/**
 * @file
 * The runtime invariant checker behind `--check` / `--check=deep`.
 *
 * One instance hangs off a driver::System.  install() arms the event
 * queue's passive inspector so a full invariant walk runs every
 * CheckOptions::everyEvents executed events, at a consistent instant
 * between events:
 *
 *  - queue 1/3 in-flight maps vs. the pending MemDemandDone /
 *    MemCpuPfDone / MemPfArrival events, and the queue-3 depth bound,
 *  - Filter FIFO vs. its presence multiset,
 *  - L1/L2/memory-processor tag arrays (duplicate tags, set mapping,
 *    stamp bounds; the memory-processor cache additionally pins every
 *    line's fillOrigin to the insert() default),
 *  - queue 2 depth and the algorithm's table invariants (MRU lists
 *    bounded by NumSucc, unique tags, trailing pointers in range).
 *
 * In Deep mode the checker also attaches lockstep reference models
 * (RefLruCache shadows on all three caches; a RefPairTable fed by the
 * engine's miss hook when the algorithm is plain Base or Chain) and
 * diffs them on every pass.  Wrapped algorithms (Seq*, composites,
 * Repl) keep the structural walks only.
 *
 * A failed pass throws check::CheckError listing every violation.
 * The checker never mutates simulated state, so cycle counts and
 * results are bit-identical with checking on or off.
 */

#ifndef CHECK_INVARIANT_CHECKER_HH
#define CHECK_INVARIANT_CHECKER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "check/check.hh"
#include "check/ref_models.hh"
#include "core/ulmt_engine.hh"
#include "cpu/hierarchy.hh"
#include "mem/memory_system.hh"
#include "sim/event_queue.hh"
#include "sim/stat_registry.hh"

namespace check {

/** Walks all component invariants at a configurable event cadence. */
class InvariantChecker
{
  public:
    /**
     * One hierarchy per core and any number of ULMT engines (empty
     * for no-ULMT configurations).  The deep pair-table
     * oracle attaches only in the single-engine single-shard case;
     * every other structure is shadowed and diffed per instance.
     */
    InvariantChecker(const CheckOptions &opts, sim::EventQueue &eq,
                     mem::MemorySystem &ms,
                     std::vector<cpu::Hierarchy *> hiers,
                     std::vector<core::UlmtEngine *> engines);

    /** Detaches the inspector, shadows and hooks. */
    ~InvariantChecker();

    InvariantChecker(const InvariantChecker &) = delete;
    InvariantChecker &operator=(const InvariantChecker &) = delete;

    /** Arm the event-queue inspector (and, in Deep mode, the models). */
    void install();

    /**
     * Run one full pass now; throws CheckError on any violation.
     * Called by the inspector, after a checkpoint restore, and as the
     * final check when the queue drains.
     */
    void runChecks();

    /**
     * Rebuild the deep reference models from the real structures.
     * Required after any mutation that bypasses the notification
     * stream: checkpoint restore, page remap.
     */
    void resyncDeep();

    /** Completed checker passes (registered as "check.passes"). */
    std::uint64_t passes() const { return passes_; }

    void registerStats(sim::StatRegistry &reg) const;

  private:
    CheckOptions opts_;
    sim::EventQueue &eq_;
    mem::MemorySystem &ms_;
    std::vector<cpu::Hierarchy *> hiers_;
    std::vector<core::UlmtEngine *> engines_;

    // Deep-mode reference models (empty in Basic mode); indexed like
    // hiers_ / engines_.
    std::vector<std::unique_ptr<RefLruCache>> l1Refs_;
    std::vector<std::unique_ptr<RefLruCache>> l2Refs_;
    std::vector<std::unique_ptr<RefLruCache>> mpRefs_;
    std::unique_ptr<RefPairTable> pairRef_;
    std::unique_ptr<RefTableCache> tcacheRef_;

    std::uint64_t passes_ = 0;
    bool installed_ = false;
};

} // namespace check

#endif // CHECK_INVARIANT_CHECKER_HH
