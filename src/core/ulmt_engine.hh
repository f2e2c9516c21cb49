/**
 * @file
 * The User-Level Memory Thread engine: the paper's primary mechanism.
 *
 * The engine runs the infinite loop of Figure 2 on the memory
 * processor.  It observes the miss stream the memory controller
 * exposes (queue 2), and for each observed miss executes the
 * Prefetching step (table lookup + prefetch generation; its duration
 * is the response time) followed by the Learning step (table update);
 * the total is the occupancy time.  Misses arriving while the thread
 * is busy queue up in queue 2 and are dropped when it overflows.
 *
 * Execution cost is derived from the actual operations the algorithm
 * performs: instructions retire at the memory processor's issue width
 * (2-issue, 800 MHz), and every table-memory touch goes through a
 * model of the memory processor's 32 KB L1 cache, with misses paying
 * placement-dependent DRAM latency (and contending for real banks).
 */

#ifndef CORE_ULMT_ENGINE_HH
#define CORE_ULMT_ENGINE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "check/check.hh"
#include "ckpt/state.hh"
#include "core/correlation_prefetcher.hh"
#include "mem/cache.hh"
#include "mem/memory_system.hh"
#include "mem/timing_params.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace core {

/** ULMT execution statistics (feeds Figure 10). */
struct UlmtStats
{
    std::uint64_t missesObserved = 0;    //!< deposited in queue 2
    std::uint64_t missesProcessed = 0;
    std::uint64_t missesDroppedQueueFull = 0;
    std::uint64_t prefetchesGenerated = 0;

    sim::SampleStat responseTime;   //!< main cycles, per miss
    sim::SampleStat occupancyTime;  //!< main cycles, per miss
    sim::SampleStat responseBusy;   //!< computation part of response
    sim::SampleStat responseMem;    //!< table-memory part of response
    sim::SampleStat occupancyBusy;  //!< computation part of occupancy
    sim::SampleStat occupancyMem;   //!< table-memory part of occupancy
    sim::Cycle busyCycles = 0;      //!< main cycles of computation
    sim::Cycle memStallCycles = 0;  //!< main cycles of table-mem stall
    sim::InstCount instructions = 0;

    /** Memory-processor IPC: instructions per 800 MHz cycle. */
    double
    ipc() const
    {
        const double mem_proc_cycles =
            static_cast<double>(busyCycles + memStallCycles) /
            static_cast<double>(sim::mainCyclesPerMemProcCycle);
        return mem_proc_cycles > 0.0
                   ? static_cast<double>(instructions) / mem_proc_cycles
                   : 0.0;
    }
};

/** The ULMT running on the memory processor. */
class UlmtEngine : public mem::MissObserver, public sim::EventTarget
{
  public:
    /**
     * @param eq global event queue
     * @param tp machine parameters (placement, memproc cache, queues)
     * @param ms the memory system (prefetch injection, table DRAM)
     * @param algo the prefetching algorithm this thread executes
     */
    UlmtEngine(sim::EventQueue &eq, const mem::TimingParams &tp,
               mem::MemorySystem &ms,
               std::unique_ptr<CorrelationPrefetcher> algo);

    /**
     * Multicore form.  @p shards holds either one algorithm serving
     * every tenant (shared mode) or one algorithm per served core
     * (sharded tables, each built with a distinct table base).  The
     * engine serves cores [@p base_core, @p base_core + @p num_cores)
     * round-robin from per-core sub-queues of queue 2; percore mode
     * instantiates one engine per core with num_cores = 1.
     * @p engine_id is carried in the arg0 of UlmtProcess events so the
     * driver can resolve them to the right engine on restore.
     */
    UlmtEngine(sim::EventQueue &eq, const mem::TimingParams &tp,
               mem::MemorySystem &ms,
               std::vector<std::unique_ptr<CorrelationPrefetcher>> shards,
               unsigned num_cores, unsigned base_core,
               unsigned engine_id);

    /** mem::MissObserver: a miss became visible in queue 2. */
    void observeMiss(sim::Cycle when, sim::Addr line_addr,
                     sim::RequestKind kind) override;

    /** Deliver a page-remap notification to the algorithm (Sec 3.4). */
    void pageRemap(sim::Addr old_page, sim::Addr new_page,
                   std::uint32_t page_bytes);

    const UlmtStats &stats() const { return stats_; }
    /** The first (or only) algorithm shard. */
    CorrelationPrefetcher &algorithm() { return *shards_[0]; }
    const CorrelationPrefetcher &algorithm() const { return *shards_[0]; }

    /** Number of algorithm shards (1 unless sharded mode). */
    std::size_t numShards() const { return shards_.size(); }
    CorrelationPrefetcher &shard(std::size_t i) { return *shards_[i]; }
    const CorrelationPrefetcher &shard(std::size_t i) const
    {
        return *shards_[i];
    }

    /** Id carried in this engine's UlmtProcess events. */
    unsigned engineId() const { return engineId_; }
    /** First core this engine serves. */
    unsigned baseCore() const { return baseCore_; }
    /** Number of cores this engine serves. */
    unsigned numCoresServed() const { return numCores_; }

    /** Misses served per core (sized numCoresServed). */
    const std::vector<std::uint64_t> &servedPerCore() const
    {
        return servedPerCore_;
    }

    /** Misses currently waiting in queue 2 (sampling only). */
    std::size_t
    queue2Depth() const
    {
        std::size_t n = 0;
        for (const auto &q : queues2_)
            n += q.size();
        return n;
    }

    /** The memory processor's L1 (deep-checker shadow attachment). */
    mem::Cache &mpCache() { return mpCache_; }
    const mem::Cache &mpCache() const { return mpCache_; }

    /**
     * Install a passive hook fired after each processed miss's
     * Learning step, with the miss line.  The deep checker's oracle
     * pair table feeds on it; nullptr disables (one compare per
     * processed miss).
     */
    void
    setMissHook(std::function<void(sim::Addr)> hook)
    {
        missHook_ = std::move(hook);
    }

    /**
     * Invariants: queue 2 never exceeds the configured depth, the
     * memory-processor cache is structurally sound with every line's
     * fillOrigin at its defined default (its fills never set one),
     * and the algorithm's own table invariants hold.
     */
    void
    checkInvariants(check::CheckContext &ctx) const
    {
        const std::size_t depth = queue2Depth();
        ctx.require(depth <= tp_.queueDepth, "ulmt",
                    "queue 2 holds " + std::to_string(depth) +
                        " observations, depth limit " +
                        std::to_string(tp_.queueDepth));
        mpCache_.checkInvariants(ctx, sim::ServedBy::Memory);
        for (const auto &s : shards_)
            s->checkInvariants(ctx);
    }

    /**
     * Register thread/table stats, prepending @p prefix ("ulmt." by
     * default; multi-engine machines use "ulmt.<engine>.").
     */
    void registerStats(sim::StatRegistry &reg,
                       const std::string &prefix = "ulmt.") const;

    /** Emit prefetch/learn-step spans into @p t (nullptr disables). */
    void setTrace(sim::TraceEventBuffer *t) { trace_ = t; }

    /** Its only event, UlmtProcess, serves the next queue-2 miss. */
    void
    fire(sim::EventKind, std::uint64_t, std::uint64_t) override
    {
        processNext();
    }

    /** Checkpoint walk: queue 2, the memory-processor cache, the
     *  thread's occupancy state, the statistics and the algorithm's
     *  table. */
    void walk(ckpt::Stream &s);

  private:
    friend struct check::CheckTestPeer;

    /**
     * Cost tracker that models execution on the memory processor:
     * instructions at 1 main cycle each (2-issue at 800 MHz), table
     * touches through the modeled L1 and, on a miss, the DRAM.
     */
    class ExecCost : public CostTracker
    {
      public:
        ExecCost(UlmtEngine &engine, sim::Cycle start)
            : engine_(engine), start_(start)
        {
        }

        void instr(std::uint32_t n) override;
        void memRead(sim::Addr addr, std::uint32_t bytes) override;
        void memWrite(sim::Addr addr, std::uint32_t bytes) override;
        void memInvalidate(sim::Addr addr,
                           std::uint32_t bytes) override;

        sim::Cycle busy() const { return busy_; }
        sim::Cycle memStall() const { return memStall_; }
        sim::Cycle elapsed() const { return busy_ + memStall_; }
        sim::InstCount instructions() const { return instructions_; }

      private:
        void touch(sim::Addr addr, std::uint32_t bytes, bool is_write);

        UlmtEngine &engine_;
        sim::Cycle start_;
        sim::Cycle busy_ = 0;
        sim::Cycle memStall_ = 0;
        sim::InstCount instructions_ = 0;
    };

    /** Process the head of queue 2 (one iteration of Fig. 2's loop). */
    void processNext();

    /** Schedule processNext if idle and work is pending. */
    void kick(sim::Cycle earliest);

    /** Trace track of this engine (distinct per engine id). */
    std::uint32_t traceTid() const;

    /** The shard serving @p core (the single shard in shared mode). */
    CorrelationPrefetcher &
    algoFor(unsigned core)
    {
        return shards_.size() == 1 ? *shards_[0]
                                   : *shards_[core - baseCore_];
    }

    sim::EventQueue &eq_;
    const mem::TimingParams &tp_;
    mem::MemorySystem &ms_;
    /** One algorithm, or one per served core (sharded tables). */
    std::vector<std::unique_ptr<CorrelationPrefetcher>> shards_;
    unsigned numCores_ = 1;   //!< cores served by this engine
    unsigned baseCore_ = 0;   //!< first served core id
    unsigned engineId_ = 0;   //!< arg0 of this engine's events

    /** Queue 2: observed misses waiting for the thread. */
    struct Observation
    {
        sim::Cycle when;
        sim::Addr line;
        std::uint64_t flow;  //!< trace flow id of the miss (0 = none)
        unsigned core;       //!< requesting core
    };
    /**
     * One sub-queue per served core; the thread drains them
     * round-robin so no tenant can starve the others.  Their combined
     * occupancy is bounded by the single physical queue-2 depth.
     */
    std::vector<std::deque<Observation>> queues2_;
    /** Round-robin scan start for the next processed miss. */
    unsigned rrCursor_ = 0;
    /** Misses served per core (fairness accounting). */
    std::vector<std::uint64_t> servedPerCore_;

    /** The memory processor's L1 cache (holds the table's hot rows). */
    mem::Cache mpCache_;

    sim::Cycle busyUntil_ = 0;
    bool processingScheduled_ = false;
    std::vector<sim::Addr> scratch_;
    UlmtStats stats_;
    sim::TraceEventBuffer *trace_ = nullptr;
    /** Deep-checker feed: fired after each miss's Learning step. */
    std::function<void(sim::Addr)> missHook_;
};

} // namespace core

#endif // CORE_ULMT_ENGINE_HH
