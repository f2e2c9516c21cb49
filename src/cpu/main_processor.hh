/**
 * @file
 * The main-processor timing model.
 *
 * A window model of the paper's 6-issue dynamic superscalar: work
 * issues in order at up to issueWidth ops per cycle; loads are
 * non-blocking with up to maxPendingLoads outstanding; a reference
 * whose address depends on the previous load waits for that load
 * (pointer chasing serializes); the window stalls when the pending-
 * load or pending-store limit is reached.
 *
 * Every stall is attributed to the hierarchy level that serviced the
 * blocking access, producing the paper's execution-time decomposition
 * (Figure 7): Busy (compute + issue), UptoL2 (stall on L1/L2-serviced
 * accesses) and BeyondL2 (stall on memory-serviced accesses).
 *
 * The model is a resumable state machine over the global event queue:
 * whenever the core's local clock would run more than a few cycles
 * ahead of the event clock (a stall, or accumulated busy work), it
 * yields to resume at its local clock, so that cache/memory state it
 * observes is never stale with respect to concurrent ULMT activity.
 * When its resume would be the queue's very next event anyway
 * (sim::EventQueue::continueAt), it carries on inline as that event
 * instead of rescheduling itself.
 */

#ifndef CPU_MAIN_PROCESSOR_HH
#define CPU_MAIN_PROCESSOR_HH

#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ckpt/state.hh"
#include "cpu/hierarchy.hh"
#include "cpu/trace.hh"
#include "mem/timing_params.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace cpu {

/** Processor-level statistics (feeds Figure 7). */
struct ProcessorStats
{
    sim::Cycle totalCycles = 0;
    sim::Cycle busyCycles = 0;       //!< compute + issue slots
    sim::Cycle uptoL2Stall = 0;      //!< stall on L1/L2-serviced refs
    sim::Cycle beyondL2Stall = 0;    //!< stall on memory-serviced refs
    std::uint64_t records = 0;
    std::uint64_t ops = 0;

    // Stall-source decomposition (diagnostics).
    sim::Cycle stallDependence = 0;  //!< waits on the previous load
    sim::Cycle stallLoadWindow = 0;  //!< pending-load limit reached
    sim::Cycle stallStoreWindow = 0; //!< pending-store limit reached
    sim::Cycle stallDrain = 0;       //!< end-of-trace drain
    sim::SampleStat beyondWaits;     //!< individual memory-level waits
    sim::SampleStat uptoWaits;       //!< individual L1/L2-level waits
};

/** Event-driven window model of the main processor. */
class MainProcessor : public sim::EventTarget
{
  public:
    /**
     * @param eq global event queue
     * @param tp machine parameters
     * @param hierarchy the processor's cache hierarchy
     * @param source the workload's dynamic trace
     * @param core id of this processor; carried in the arg0 of its
     *        ProcStep events so the driver can resolve them on restore
     */
    MainProcessor(sim::EventQueue &eq, const mem::TimingParams &tp,
                  Hierarchy &hierarchy, TraceSource &source,
                  unsigned core = 0)
        : eq_(eq), tp_(tp), hierarchy_(hierarchy), source_(source),
          core_(core), pendingLoads_(tp.maxPendingLoads),
          pendingStores_(tp.maxPendingStores)
    {
    }

    /** Id of this processor. */
    unsigned core() const { return core_; }

    /** Schedule the first fetch; the run ends when the trace drains. */
    void
    start()
    {
        eq_.schedule(eq_.now(), *this, sim::EventKind::ProcStep, core_);
    }

    bool finished() const { return finished_; }
    const ProcessorStats &stats() const { return stats_; }

    /** Its only event, ProcStep, resumes step(). */
    void
    fire(sim::EventKind, std::uint64_t, std::uint64_t) override
    {
        step();
    }

    /**
     * Checkpoint walk of the window state.  step() re-derives its
     * local clock from the event queue on entry, so the members below
     * are the complete resume state; the workload cursor (how many
     * records source_ has produced) is stats_.records and is
     * fast-forwarded by the driver, not here.
     */
    void walk(ckpt::Stream &s);

    /**
     * Register core cycle/stall stats under "proc.*", prepending
     * @p prefix (e.g. "cpu.2." on multicore machines).
     */
    void
    registerStats(sim::StatRegistry &reg,
                  const std::string &prefix = "") const
    {
        const auto n = [&prefix](const char *name) {
            return prefix + name;
        };
        reg.addCounter(n("proc.total_cycles"), &stats_.totalCycles);
        reg.addCounter(n("proc.busy_cycles"), &stats_.busyCycles);
        reg.addCounter(n("proc.stall.upto_l2"), &stats_.uptoL2Stall);
        reg.addCounter(n("proc.stall.beyond_l2"),
                       &stats_.beyondL2Stall);
        reg.addCounter(n("proc.stall.dependence"),
                       &stats_.stallDependence);
        reg.addCounter(n("proc.stall.load_window"),
                       &stats_.stallLoadWindow);
        reg.addCounter(n("proc.stall.store_window"),
                       &stats_.stallStoreWindow);
        reg.addCounter(n("proc.stall.drain"), &stats_.stallDrain);
        reg.addCounter(n("proc.records"), &stats_.records);
        reg.addCounter(n("proc.ops"), &stats_.ops);
        reg.addSample(n("proc.wait.beyond_l2"), &stats_.beyondWaits);
        reg.addSample(n("proc.wait.upto_l2"), &stats_.uptoWaits);
    }

    /** Invoked once when the trace drains and all loads complete. */
    std::function<void(sim::Cycle)> onFinish;

  private:
    struct Pending
    {
        sim::Cycle complete;
        sim::ServedBy served;
        /** Cumulative op count at issue (program order / ROB age). */
        std::uint64_t opStamp;
    };

    /**
     * Program-order queue of in-flight references: a fixed ring of
     * its window rounded up to a power of two.  step() pops the oldest
     * entry before it pushes into a full window, so the ring never
     * holds more than the window.
     */
    class PendingQueue
    {
      public:
        explicit PendingQueue(std::uint32_t window)
            : window_(window), buf_(std::bit_ceil(window)),
              mask_(static_cast<std::uint32_t>(buf_.size()) - 1)
        {
            SIM_ASSERT(window > 0, "empty load/store window");
        }

        std::uint32_t window() const { return window_; }
        bool empty() const { return size_ == 0; }
        std::uint32_t size() const { return size_; }
        const Pending &front() const { return buf_[head_]; }
        /** The @p i-th oldest entry. */
        const Pending &
        operator[](std::uint32_t i) const
        {
            return buf_[(head_ + i) & mask_];
        }

        void
        pop_front()
        {
            head_ = (head_ + 1) & mask_;
            --size_;
        }

        void
        push_back(const Pending &p)
        {
            SIM_ASSERT(size_ < window_, "pending window overflow");
            buf_[(head_ + size_) & mask_] = p;
            ++size_;
        }

        void
        clear()
        {
            head_ = 0;
            size_ = 0;
        }

      private:
        std::uint32_t window_;
        std::vector<Pending> buf_;
        std::uint32_t mask_;
        std::uint32_t head_ = 0;
        std::uint32_t size_ = 0;
    };

    /** Resume execution at the current event time. */
    void step();

    /** Pop the completed in-order prefix of both queues. */
    void retireCompleted(sim::Cycle c);

    /** Final drain when the trace ends. */
    void finish(sim::Cycle c);

    /** Charge a wait until @p until to the level @p served. */
    void
    stallUntil(sim::Cycle &c, sim::Cycle until, sim::ServedBy served)
    {
        if (until <= c)
            return;
        const sim::Cycle wait = until - c;
        if (served == sim::ServedBy::Memory) {
            stats_.beyondL2Stall += wait;
            stats_.beyondWaits.sample(static_cast<double>(wait));
        } else {
            stats_.uptoL2Stall += wait;
            stats_.uptoWaits.sample(static_cast<double>(wait));
        }
        c = until;
    }

    sim::EventQueue &eq_;
    const mem::TimingParams &tp_;
    Hierarchy &hierarchy_;
    TraceSource &source_;
    unsigned core_ = 0;

    PendingQueue pendingLoads_;
    PendingQueue pendingStores_;
    Pending lastLoad_{0, sim::ServedBy::L1, 0};
    bool lastLoadValid_ = false;
    std::uint64_t opsIssued_ = 0;

    /** The in-progress record, already busy-charged. */
    TraceRecord rec_;
    bool haveRec_ = false;

    bool finished_ = false;
    ProcessorStats stats_;
};

} // namespace cpu

#endif // CPU_MAIN_PROCESSOR_HH
