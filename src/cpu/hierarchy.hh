/**
 * @file
 * The main processor's cache hierarchy: L1, L2, the Conven4 stream
 * prefetcher, and the L2-side support for accepting ULMT push
 * prefetches (Section 2.1).
 *
 * The L2 implements the paper's four push drop rules (line already
 * present, line in the write-back queue, all MSHRs busy, target set
 * fully transaction-pending), MSHR stealing when a pushed line matches
 * a pending demand miss (delayed hits), and the prefetch-effectiveness
 * classification behind Figure 9 (Hits / DelayedHits / NonPrefMisses /
 * Replaced / Redundant).
 */

#ifndef CPU_HIERARCHY_HH
#define CPU_HIERARCHY_HH

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "cpu/stream_prefetcher.hh"
#include "mem/cache.hh"
#include "mem/memory_system.hh"
#include "mem/timing_params.hh"
#include "sim/event_queue.hh"
#include "sim/flat_map.hh"
#include "sim/stat_registry.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace vm {
class Vm;
}

namespace cpu {

/** Result of a processor memory reference. */
struct AccessOutcome
{
    sim::Cycle complete;   //!< cycle when the data is ready
    sim::ServedBy served;  //!< level that serviced the reference
};

/** Hierarchy-level statistics (feeds Figures 6, 7, 9). */
struct HierarchyStats
{
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;        //!< demand L2 misses
    std::uint64_t l2MshrMerges = 0;    //!< merged into a pending fill

    // --- Figure 9 classification ------------------------------------
    std::uint64_t ulmtHits = 0;        //!< demand hit on pushed line
    std::uint64_t ulmtDelayedHits = 0; //!< miss matched in-flight push
    std::uint64_t nonPrefMisses = 0;   //!< demand misses at full latency
    std::uint64_t ulmtReplaced = 0;    //!< pushed line evicted unused
    std::uint64_t pushRedundantPresent = 0;
    std::uint64_t pushRedundantWb = 0;
    std::uint64_t pushDroppedMshrFull = 0;
    std::uint64_t pushDroppedSetPending = 0;
    std::uint64_t pushInstalled = 0;
    /** Latency cycles saved by delayed hits. */
    std::uint64_t delayedHitSavedCycles = 0;

    // --- Processor-side prefetcher ----------------------------------
    std::uint64_t cpuPfIssued = 0;
    std::uint64_t cpuPfToMemory = 0;
    std::uint64_t cpuPfUseful = 0;   //!< prefetched line later referenced
    std::uint64_t cpuPfTimely = 0;   //!< ... and ready when referenced
    std::uint64_t cpuPfReplaced = 0;
    /** Stream-prefetch candidates refused because they crossed a
     *  physical page boundary (VM layer on only). */
    std::uint64_t cpuPfDroppedPageCross = 0;
};

/**
 * A bounded set of outstanding L2 fills (miss status handling
 * registers).  Entries expire at their completion cycle.
 */
class MshrFile
{
  public:
    explicit MshrFile(std::uint32_t capacity) : capacity_(capacity) {}

    /** Drop entries whose fill completed at or before @p now. */
    void
    expire(sim::Cycle now)
    {
        while (!busyUntil_.empty() && *busyUntil_.begin() <= now)
            busyUntil_.erase(busyUntil_.begin());
    }

    bool full() const { return busyUntil_.size() >= capacity_; }

    /** Entries still busy strictly after @p now (sampling only). */
    std::size_t
    inUse(sim::Cycle now) const
    {
        std::size_t n = 0;
        for (auto it = busyUntil_.rbegin();
             it != busyUntil_.rend() && *it > now; ++it)
            ++n;
        return n;
    }

    /**
     * Reserve an MSHR at @p ready; if all are busy, wait for the
     * earliest outstanding fill.
     * @return the cycle the reservation can start
     */
    sim::Cycle
    acquire(sim::Cycle ready)
    {
        expire(ready);
        if (!full())
            return ready;
        sim::Cycle earliest = *busyUntil_.begin();
        busyUntil_.erase(busyUntil_.begin());
        return earliest > ready ? earliest : ready;
    }

    void add(sim::Cycle complete) { busyUntil_.insert(complete); }

    void clear() { busyUntil_.clear(); }

    /** Checkpoint walk of the outstanding-fill deadlines (a multiset
     *  iterates sorted, so the encoding is deterministic). */
    void walk(ckpt::Stream &s) { s.u64s(busyUntil_); }

  private:
    std::uint32_t capacity_;
    std::multiset<sim::Cycle> busyUntil_;
};

/** L1 + L2 + stream prefetcher + memory-system glue. */
class Hierarchy
{
  public:
    /**
     * @param eq global event queue
     * @param tp machine parameters
     * @param ms memory system below the L2
     * @param enable_stream_pf enable the Conven4 prefetcher
     * @param core id of the owning main processor (0 on single-core)
     */
    Hierarchy(sim::EventQueue &eq, const mem::TimingParams &tp,
              mem::MemorySystem &ms, bool enable_stream_pf,
              unsigned core = 0);

    /** Id of the owning main processor. */
    unsigned core() const { return core_; }

    /**
     * Attach the passive prefetch-lifecycle auditor (nullptr -- the
     * default -- disables the hooks).  The L2 reports each pushed
     * line's terminal outcome: first demand touch (useful timely),
     * delayed-hit claim (useful late), refusal (redundant) and unused
     * eviction.  Purely observational; timing is unchanged.
     */
    void setAudit(mem::PrefetchAudit *a) { audit_ = a; }

    /**
     * Attach the virtual-memory layer (nullptr -- the default -- keeps
     * the pre-VM flat addressing, bit-for-bit).  When set, access()
     * treats its address as virtual: the per-core TLB translates it
     * (charging the page walk on a miss) and everything below the
     * processor -- caches, prefetchers, queues -- observes physical
     * addresses.  Stream-prefetch candidates that land on a different
     * physical page than their trigger are dropped, since physical
     * contiguity across a page boundary is meaningless under remap.
     */
    void setVm(vm::Vm *v);

    /**
     * A demand reference from the processor.
     *
     * @param when issue cycle
     * @param addr byte address
     * @param is_write store vs. load
     */
    AccessOutcome access(sim::Cycle when, sim::Addr addr, bool is_write);

    /**
     * A ULMT-pushed line arriving at the L2 (wired as the memory
     * system's push callback).
     */
    void acceptPush(sim::Cycle when, sim::Addr line_addr);

    /** L2-line-aligned address. */
    sim::Addr l2LineAddr(sim::Addr addr) const { return l2_.lineAddr(addr); }

    const HierarchyStats &stats() const { return stats_; }
    const mem::Cache &l1() const { return l1_; }
    const mem::Cache &l2() const { return l2_; }
    /** Mutable cache access (deep-checker shadow attachment only). */
    mem::Cache &l1() { return l1_; }
    mem::Cache &l2() { return l2_; }

    /** Structural invariants of both tag arrays. */
    void
    checkInvariants(check::CheckContext &ctx) const
    {
        l1_.checkInvariants(ctx);
        l2_.checkInvariants(ctx);
    }
    const StreamPrefetcher *streamPrefetcher() const
    {
        return streamPfEnabled_ ? &streamPf_ : nullptr;
    }

    /** Inter-arrival histogram of demand misses at memory (Fig. 6). */
    const sim::BinnedHistogram &missGapHistogram() const
    {
        return missGaps_;
    }

    /** L2 MSHRs busy strictly after @p now (sampling only). */
    std::size_t mshrInUse(sim::Cycle now) const
    {
        return l2Mshrs_.inUse(now);
    }

    /**
     * Register cache/push/prefetcher stats under "l1.*"/"l2.*",
     * prepending @p prefix (e.g. "cpu.2." on multicore machines).
     */
    void registerStats(sim::StatRegistry &reg,
                       const std::string &prefix = "") const;

    /** Checkpoint walk: both tag arrays, MSHRs, stream prefetcher,
     *  queues. */
    void walk(ckpt::Stream &s);

    /**
     * Optional observer of demand L2 misses (issue cycle, line addr),
     * used to capture the miss stream for the Figure 5 predictability
     * study.
     */
    std::function<void(sim::Cycle, sim::Addr)> onDemandL2Miss;

  private:
    /** Handle an L1 miss: L2 lookup and, if needed, memory. */
    AccessOutcome accessL2(sim::Cycle when, sim::Addr addr,
                           bool count_demand);

    /** Issue the Conven4 prefetches in pfScratch_ for a reference to
     *  @p addr, dropping those that leave its page (VM on). */
    void issueCpuPrefetches(sim::Cycle when, sim::Addr addr);

    /** Issue one processor-side prefetch into the L1. */
    void issueCpuPrefetch(sim::Cycle when, sim::Addr addr);

    /** Fill the L1 with a line; handle the eviction.
     *  @return the installed line */
    mem::CacheLine *fillL1(sim::Cycle now, sim::Addr addr,
                           sim::Cycle ready_at, sim::ServedBy origin,
                           bool cpu_prefetched);

    /** Fill the L2 with a line; handle the eviction. */
    mem::CacheLine *fillL2(sim::Cycle now, sim::Addr addr,
                           sim::Cycle ready_at, sim::ServedBy origin,
                           bool ulmt_pushed, bool cpu_prefetched);

    void recordMissAtMemory(sim::Cycle at_memory);

    sim::EventQueue &eq_;
    const mem::TimingParams &tp_;
    mem::MemorySystem &ms_;
    unsigned core_;
    mem::Cache l1_;
    mem::Cache l2_;
    MshrFile l2Mshrs_;
    bool streamPfEnabled_;
    StreamPrefetcher streamPf_;
    std::vector<sim::Addr> pfScratch_;

    /** Demand misses that claimed an in-flight push (delayed hits). */
    sim::FlatSet claimedPush_;
    /** Lines recently evicted dirty: line -> write-back retire cycle. */
    sim::FlatMap<sim::Cycle> wbQueue_;

    HierarchyStats stats_;
    sim::BinnedHistogram missGaps_;
    sim::Cycle lastMissAtMemory_ = sim::neverCycle;
    mem::PrefetchAudit *audit_ = nullptr;
    vm::Vm *vm_ = nullptr;
    std::uint32_t pageShift_ = 0;  //!< 0 = VM layer off
};

} // namespace cpu

#endif // CPU_HIERARCHY_HH
