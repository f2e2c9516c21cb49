/**
 * @file
 * The main memory system: memory controller, DRAM, front-side bus, and
 * the queue/filter machinery of Figure 3 that surrounds the memory
 * processor.
 *
 * Responsibilities:
 *  - service demand and processor-prefetch line fetches (queue 1),
 *  - expose the observed miss stream to the ULMT (queue 2, with
 *    Verbose / Non-Verbose selection),
 *  - inject ULMT push prefetches (queue 3) after the Filter module,
 *    the queue-capacity check, and the queue-1 cross-match,
 *  - service the memory processor's correlation-table accesses with
 *    placement-dependent latency (in-DRAM vs. North Bridge),
 *  - deliver pushed lines to the L2 via a callback, and answer "is a
 *    prefetch for line X in flight?" so the L2 can model prefetch
 *    replies stealing MSHRs (delayed hits).
 */

#ifndef MEM_MEMORY_SYSTEM_HH
#define MEM_MEMORY_SYSTEM_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "check/check.hh"
#include "ckpt/state.hh"
#include "mem/bus.hh"
#include "sim/stats.hh"
#include "mem/dram.hh"
#include "mem/prefetch_audit.hh"
#include "mem/prefetch_filter.hh"
#include "mem/table_cache.hh"
#include "mem/timing_params.hh"
#include "sim/event_queue.hh"
#include "sim/flat_map.hh"
#include "sim/types.hh"

namespace mem {

/**
 * Observer of the miss stream arriving at the memory controller.
 * Implemented by the ULMT engine (core::UlmtEngine).
 */
class MissObserver
{
  public:
    virtual ~MissObserver() = default;

    /**
     * A request reached the memory controller.
     *
     * @param when cycle at which the address is visible in queue 2
     * @param line_addr L2-line-aligned address
     * @param kind Demand or CpuPrefetch (the latter only in Verbose)
     */
    virtual void observeMiss(sim::Cycle when, sim::Addr line_addr,
                             sim::RequestKind kind) = 0;
};

/**
 * Per-tenant (per-core) QoS counters kept by the controller.  Passive:
 * they never feed back into timing, so they are excluded from config
 * fingerprints, but they are checkpointed so restored runs keep exact
 * fairness accounting.
 */
struct CoreQos
{
    std::uint64_t demandFetches = 0;
    std::uint64_t ulmtPrefetchesIssued = 0;
    /** Queue-1 residency of each demand fetch (complete - issue). */
    sim::SampleStat q1Wait;
};

/** Controller-side statistics. */
struct MemorySystemStats
{
    std::uint64_t demandFetches = 0;
    std::uint64_t cpuPrefetchFetches = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t ulmtPrefetchesIssued = 0;
    std::uint64_t ulmtPrefetchesDroppedFilter = 0;
    std::uint64_t ulmtPrefetchesDroppedQueueFull = 0;
    std::uint64_t ulmtPrefetchesDroppedDemandMatch = 0;
    /** Dropped on a cross-match against an in-flight CPU prefetch
     *  (previously misattributed to demand_match). */
    std::uint64_t ulmtPrefetchesDroppedCpuPfMatch = 0;
    /** Dropped because the push would cross a physical page boundary
     *  relative to its trigger (only with the VM layer on). */
    std::uint64_t ulmtPrefetchesDroppedPageCross = 0;
    std::uint64_t tableReads = 0;
    std::uint64_t tableWrites = 0;
};

/** Sentinel trigger address for ulmtPrefetch: no page-cross check. */
inline constexpr sim::Addr noPfTrigger = ~static_cast<sim::Addr>(0);

/** The memory system below the L2 cache. */
class MemorySystem : public sim::EventTarget
{
  public:
    /** Invoked when a pushed line arrives at the L2 of @p core. */
    using PushCallback =
        std::function<void(sim::Cycle, sim::Addr, unsigned core)>;

    MemorySystem(sim::EventQueue &eq, const TimingParams &tp)
        : eq_(eq), tp_(tp), bus_(&eq), dram_(tp, &eq),
          filter_(tp.filterEntries)
    {
    }

    /** Attach the ULMT observer; @p verbose selects the Verbose mode. */
    void
    setObserver(MissObserver *observer, bool verbose)
    {
        observer_ = observer;
        verbose_ = verbose;
    }

    /**
     * Attach a per-core ULMT observer (percore serving mode).  Misses
     * from @p core go to @p observer; cores without one fall back to
     * the default observer set by setObserver().
     */
    void
    setCoreObserver(unsigned core, MissObserver *observer, bool verbose)
    {
        if (coreObservers_.size() <= core)
            coreObservers_.resize(core + 1, nullptr);
        coreObservers_[core] = observer;
        verbose_ = verbose;
    }

    /**
     * Declare the number of main processors sharing this controller.
     * Sizes the per-tenant QoS counters; 1 (the default) keeps the
     * single-core behavior and stat namespace.
     */
    void
    setNumCores(unsigned cores)
    {
        numCores_ = cores;
        coreQos_.resize(cores);
    }

    unsigned numCores() const { return numCores_; }

    /** Per-tenant QoS counters (sized by setNumCores). */
    const std::vector<CoreQos> &coreQos() const { return coreQos_; }

    /** Set the sink for pushed prefetch lines (the L2). */
    void setPushCallback(PushCallback cb) { push_ = std::move(cb); }

    /**
     * Fetch a line for the main processor (demand miss or processor-
     * side prefetch miss at L2).
     *
     * @param issue cycle the L2 miss is detected
     * @param line_addr L2-line-aligned address
     * @param kind Demand or CpuPrefetch
     * @param core requesting main processor (0 on single-core)
     * @return cycle at which the fill completes at the L2
     */
    sim::Cycle fetchLine(sim::Cycle issue, sim::Addr line_addr,
                         sim::RequestKind kind, unsigned core = 0);

    /**
     * Inject a ULMT push prefetch for @p line_addr, generated at cycle
     * @p ready.  Applies the Filter module, the queue-3 capacity
     * limit, and the cross-match against in-flight demand fetches.
     *
     * @param flow trace-event flow id of the demand miss that triggered
     *             this prefetch (0 = none / tracing off)
     * @param core main processor the push is destined for
     * @param engine id of the issuing ULMT engine (audit attribution)
     * @param trigger physical line address of the triggering miss; with
     *                the VM layer on (setPageShift), a push whose line
     *                lies on a different physical page than its trigger
     *                is dropped (prefetching across a physical page
     *                boundary is meaningless under remapping).
     *                noPfTrigger skips the check.
     * @return true if the prefetch was issued to DRAM
     */
    bool ulmtPrefetch(sim::Cycle ready, sim::Addr line_addr,
                      std::uint64_t flow = 0, unsigned core = 0,
                      unsigned engine = 0,
                      sim::Addr trigger = noPfTrigger);

    /**
     * Enable the physical page-boundary drop rule for pushes
     * (log2(page bytes); 0 -- the default -- disables it, the pre-VM
     * behavior).
     */
    void setPageShift(std::uint32_t shift) { pageShift_ = shift; }

    /**
     * One correlation-table access by the memory processor (on a miss
     * in its own cache).
     *
     * @param ready earliest start cycle
     * @param addr table address
     * @param is_write true for a table update
     * @return completion cycle as seen by the memory processor
     */
    sim::Cycle tableAccess(sim::Cycle ready, sim::Addr addr,
                           bool is_write);

    /**
     * Build the table cache (--table-cache).  Must be called before
     * the first tableAccess(); without it the table path is
     * bit-identical to the pre-cache simulator.  Line granularity is
     * the memory processor's L1 line (tableAccess() addresses arrive
     * at that granularity) and the drain-batch row is tp.dramRowBytes.
     */
    void configureTableCache(const TableCacheSpec &spec);

    /**
     * Drop cached table lines covering [@p addr, @p addr + @p bytes):
     * a page remap relocated those table rows, so the cache must not
     * serve the stale copies.  Dirty lines are flushed to DRAM
     * starting at @p when (fire and forget).  No-op when the cache is
     * disabled.
     */
    void tableInvalidate(sim::Cycle when, sim::Addr addr,
                         std::uint32_t bytes);

    TableCache &tableCache() { return tcache_; }
    const TableCache &tableCache() const { return tcache_; }

    /** Write a dirty line back to memory (fire and forget).
     *  @param core the evicting main processor (audit attribution) */
    void writeback(sim::Cycle when, sim::Addr line_addr,
                   unsigned core = 0);

    /**
     * Arrival cycle of an in-flight ULMT prefetch for @p line_addr
     * destined for @p core, or sim::neverCycle when none is in flight.
     * Used by the L2 to model a prefetch reply stealing the MSHR of a
     * matching demand miss.
     */
    sim::Cycle
    inflightPrefetchArrival(sim::Addr line_addr, unsigned core = 0) const
    {
        auto it = inflightPf_.find(sim::packCoreLine(core, line_addr));
        return it == inflightPf_.end() ? sim::neverCycle : it->second;
    }

    const MemorySystemStats &stats() const { return stats_; }
    const Bus &bus() const { return bus_; }
    const Dram &dram() const { return dram_; }
    const PrefetchFilter &filter() const { return filter_; }
    const TimingParams &params() const { return tp_; }

    /** Demand fetches currently in flight (queue 1). */
    std::size_t inflightDemandCount() const
    {
        return inflightDemand_.size();
    }

    /** CPU-prefetch fetches currently in flight (queue 1). */
    std::size_t inflightCpuPrefetchCount() const
    {
        return inflightCpuPf_.size();
    }

    /** ULMT prefetches currently in flight (queue 3). */
    std::size_t inflightPrefetchCount() const
    {
        return inflightPf_.size();
    }

    /**
     * Trace-event flow id of the miss currently being delivered through
     * observeMiss (0 outside that call or with tracing off).  The
     * observer reads it synchronously to link its later prefetches back
     * to the triggering miss without widening the MissObserver
     * interface.
     */
    std::uint64_t observedFlowId() const { return observedFlowId_; }

    /**
     * Core id of the miss currently being delivered through
     * observeMiss (0 outside that call).  Same synchronous side-channel
     * pattern as observedFlowId(): it lets the engine tag its queue-2
     * entries per tenant without widening the MissObserver interface.
     */
    unsigned observedCore() const { return observedCore_; }

    /** Register controller/bus/DRAM/filter stats under "memsys.*". */
    void registerStats(sim::StatRegistry &reg) const;

    /**
     * Checkpoint walk of queues 1/3, the Filter, the bus and the DRAM.
     * Their pending completion events are saved and restored with the
     * event queue, whose tags fire back here.
     */
    void walk(ckpt::Stream &s);

    /**
     * Complete a queue-1 fetch (MemDemandDone, MemCpuPfDone: @p key is
     * the packed (core, line) map key) or land a queue-3 prefetch at
     * its L2 (MemPfArrival, at cycle @p arrival).
     */
    void fire(sim::EventKind kind, std::uint64_t key,
              std::uint64_t arrival) override;

    /**
     * Invariants: every in-flight entry in queues 1 and 3 has exactly
     * the matching pending completion events (MemDemandDone /
     * MemCpuPfDone counts per line, one MemPfArrival per prefetched
     * line with the recorded arrival cycle), and queue 3 never exceeds
     * the configured depth.  @p pending is the event queue's saved
     * view at the same instant.
     */
    void checkInvariants(check::CheckContext &ctx,
                         const std::vector<sim::SavedEvent> &pending)
        const;

    /** Emit spans into @p t (propagates to the bus and the DRAM). */
    void
    setTrace(sim::TraceEventBuffer *t)
    {
        trace_ = t;
        bus_.setTrace(t);
        dram_.setTrace(t);
    }

    /**
     * Attach the passive lifecycle / interference auditor (nullptr --
     * the default -- disables auditing at the cost of one pointer test
     * per hook).  The auditor only reads cycles this controller
     * already computed; timing is bit-identical with it on or off.
     */
    void setAudit(PrefetchAudit *a) { audit_ = a; }

  private:
    friend struct check::CheckTestPeer;

    /** The pre-cache tableAccess() body: one DRAM table access. */
    sim::Cycle dramTableAccess(sim::Cycle ready, sim::Addr addr,
                               bool is_write);

    sim::EventQueue &eq_;
    const TimingParams &tp_;
    Bus bus_;
    Dram dram_;
    PrefetchFilter filter_;
    MissObserver *observer_ = nullptr;
    /** Per-core observers (percore mode); fall back to observer_. */
    std::vector<MissObserver *> coreObservers_;
    bool verbose_ = false;
    PushCallback push_;

    // All three in-flight maps (and the Filter) are keyed by the packed
    // (core, line) key of sim::packCoreLine so the cross-match and
    // dedup logic is naturally per tenant; core 0's key equals the raw
    // line address.  Bus and DRAM always see the raw line address.

    /** Demand fetches currently in flight (queue 1). */
    sim::FlatMap<std::uint32_t> inflightDemand_;
    /** CPU-prefetch fetches in flight (queue 1, tracked separately so
     *  cross-match drops are attributed per Figure 3). */
    sim::FlatMap<std::uint32_t> inflightCpuPf_;
    /** ULMT prefetches in flight: key -> arrival cycle (queue 3). */
    sim::FlatMap<sim::Cycle> inflightPf_;

    MemorySystemStats stats_;
    unsigned numCores_ = 1;
    /** Per-tenant QoS counters (sized by setNumCores). */
    std::vector<CoreQos> coreQos_;
    /** Queueing delay seen by correlation-table accesses at the DRAM. */
    sim::SampleStat tableWait_;
    sim::TraceEventBuffer *trace_ = nullptr;
    PrefetchAudit *audit_ = nullptr;
    std::uint64_t observedFlowId_ = 0;
    unsigned observedCore_ = 0;
    /** log2(page bytes) for the push page-cross drop (0 = off). */
    std::uint32_t pageShift_ = 0;
    /** SRAM cache in front of the table's DRAM traffic (MSCache). */
    TableCache tcache_;
    /** Scratch list of write-backs produced by one cache operation. */
    std::vector<sim::Addr> tcacheWbs_;

  public:
    const sim::SampleStat &tableWait() const { return tableWait_; }
};

} // namespace mem

#endif // MEM_MEMORY_SYSTEM_HH
