/**
 * @file
 * Thin virtual-memory subsystem (DESIGN.md section 13).
 *
 * Workloads emit *virtual* addresses; the caches, queues 1-3 and the
 * ULMT observe *physical* ones.  The layer models just enough of an
 * OS/MMU to stress correlation survival:
 *
 *   - a per-process (= per-core) page table with allocate-on-touch
 *     mapping out of a shared, deterministic bump frame allocator;
 *   - a per-core set-associative TLB with per-page-size lookup (the
 *     Virtuoso ULB idiom: each supported page size has its own
 *     set-indexed array and lookups probe them in order), charging a
 *     fixed page-walk latency on a miss;
 *   - a seed-driven remap engine that periodically migrates the
 *     hottest page of one address space to a fresh frame and fires
 *     the existing OS-notification hook (System::pageRemap ->
 *     UlmtEngine::pageRemap -> checker resyncDeep), modelling OS page
 *     migration churn;
 *   - page-size control (4 KB or 2 MB) so huge pages can be compared
 *     against base pages.
 *
 * Remaps are copy-without-invalidate: cache lines fetched from the old
 * frame age out naturally, post-remap accesses miss and refetch from
 * the new frame, and correlation entries whose successors still name
 * the old frame prefetch dead lines -- exactly the churn the paper
 * waves away.  Everything is deterministic: frames are allocated
 * sequentially from a fixed base, the victim choice depends only on
 * touch counters (SplitMix64 from VmSpec::seed breaks cold ties), and
 * remap events are ordinary tagged events on the global queue.
 *
 * Physical frames start at 2^47, above every core's virtual slice
 * (core * sim::coreAddrStride = core * 2^40, for up to sim::maxCores
 * cores) and safely below the core-id bits of sim::packCoreLine (bit
 * 56), so virtual and physical addresses can never collide.
 */

#ifndef VM_VM_HH
#define VM_VM_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "ckpt/state.hh"
#include "sim/event_queue.hh"
#include "sim/set_assoc.hh"
#include "sim/stat_registry.hh"
#include "sim/types.hh"

namespace vm {

/** First physical byte handed out by the frame allocator (2^47):
 *  above every core's virtual slice, below the core-id bits of packed
 *  (core, line) keys. */
inline constexpr sim::Addr physFrameBase = 1ULL << 47;
static_assert(sim::maxCores * sim::coreAddrStride <= physFrameBase,
              "core address slices overlap the physical frames");
static_assert(physFrameBase < (sim::Addr(1) << sim::coreKeyShift),
              "physical frames overlap the packed core-id bits");

/** Main cycles charged for a page-table walk on a TLB miss. */
inline constexpr sim::Cycle pageWalkCycles = 120;

/** Parse "4k" or "2m" (case-insensitive) into a page-byte count.
 *  @throws std::invalid_argument on anything else. */
std::uint32_t parsePageSize(const std::string &s);

/** "4k" / "2m" for the two supported sizes; "<N>b" otherwise. */
std::string pageSizeName(std::uint32_t page_bytes);

/**
 * One-line human summary of a "vm" checkpoint section: remap count,
 * frames allocated, and per-core mapped-page / valid-TLB-entry
 * counts, read back from a scratch Vm the section is restored into.
 * @p cores and @p page_bytes come from the checkpoint header (the
 * section layout depends on both).
 * @throws ckpt::CkptError when the header or payload is malformed.
 */
std::string sectionSummary(const std::string &payload, unsigned cores,
                           std::uint32_t page_bytes);

/**
 * Virtual-memory configuration carried in driver::SystemConfig.
 * The defaults (off, 4 KB, no remaps) describe the pre-VM machine:
 * on() is false, no Vm instance is built, and fingerprints, BENCH
 * output and checkpoints are bit-identical to a build without the
 * subsystem.
 */
struct VmSpec
{
    /** Force translation on even with default page size and no
     *  remaps (the churn sweep's rate-0 baseline). */
    bool enabled = false;
    std::uint32_t pageBytes = 4096;  //!< 4096 or 2 MB (2097152)
    /** Page remaps per million main cycles; 0 = never. */
    double remapRate = 0.0;
    /** Seed of the remap engine's tie-break generator. */
    std::uint64_t seed = 0x756C6D74766D31ULL;  // "ulmtvm1"

    /** True when the machine should translate at all. */
    bool
    on() const
    {
        return enabled || remapRate > 0.0 || pageBytes != 4096u;
    }

    /** log2(pageBytes). */
    std::uint32_t pageShift() const;
};

/** Per-core TLB / translation statistics. */
struct VmCoreStats
{
    std::uint64_t accesses = 0;    //!< translations requested
    std::uint64_t tlbHits = 0;
    std::uint64_t tlbMisses = 0;   //!< each pays pageWalkCycles
    std::uint64_t walkCycles = 0;
    std::uint64_t remaps = 0;      //!< pages of this space migrated
};

/**
 * The virtual-memory subsystem of one simulated machine: one address
 * space and TLB per core, a shared frame allocator and the remap
 * engine.  Built by the System only when VmSpec::on().
 */
class Vm : public sim::EventTarget
{
  public:
    Vm(sim::EventQueue &eq, const VmSpec &spec, unsigned cores);

    /**
     * Translate @p vaddr in @p core's address space, allocating the
     * page on first touch.  A TLB miss advances @p when by
     * pageWalkCycles (the walk serializes with the L1 lookup); a hit
     * is free (performed in parallel with the L1 index).
     * @return the physical address.
     */
    sim::Addr translate(unsigned core, sim::Addr vaddr,
                        sim::Cycle &when);

    /** log2(page bytes) of this machine. */
    std::uint32_t pageShift() const { return pageShift_; }
    std::uint32_t pageBytes() const { return spec_.pageBytes; }

    /**
     * Fired on every remap with the old and new physical *page
     * numbers* and the page size -- the shape UlmtEngine::pageRemap
     * and CorrelationPrefetcher::onPageRemap expect.
     */
    void
    setRemapCallback(
        std::function<void(sim::Addr, sim::Addr, std::uint32_t)> cb)
    {
        remapCb_ = std::move(cb);
    }

    /** Schedule the first remap event (no-op when remapRate == 0). */
    void start();

    /** Its only event, VmRemap, runs one remap tick. */
    void
    fire(sim::EventKind, std::uint64_t, std::uint64_t) override
    {
        doRemap();
    }

    /** Register "vm.core.<i>.*" and machine-wide "vm.*" stats. */
    void registerStats(sim::StatRegistry &reg) const;

    std::uint64_t remaps() const { return remaps_; }
    const VmCoreStats &coreStats(unsigned core) const
    {
        return stats_[core];
    }

    /** Pages currently mapped in @p core's address space. */
    std::size_t pagesMapped(unsigned core) const
    {
        return spaces_[core].pages.size();
    }

    /** Physical frames handed out so far. */
    std::uint64_t
    framesAllocated() const
    {
        return nextFrame_ - (physFrameBase >> pageShift_);
    }

    /** Valid TLB entries of @p core, over every page-size class. */
    std::size_t tlbValid(unsigned core) const;

    /** Checkpoint walk of page tables, TLBs, the allocator and the
     *  remap engine (the "vm" checkpoint section). */
    void walk(ckpt::Stream &s);

  private:
    /** One mapped virtual page. */
    struct PageEntry
    {
        std::uint64_t frame = 0;    //!< physical page number
        std::uint64_t touches = 0;  //!< accesses since the last remap
    };

    /** One process's address space.  std::map keeps iteration (and
     *  therefore victim selection and checkpoint bytes) ordered by
     *  virtual page number. */
    struct AddressSpace
    {
        std::map<std::uint64_t, PageEntry> pages;
    };

    /** One page size's set-associative array, tagged by virtual page
     *  number with the frame as payload (the ULB keeps one of these
     *  per supported size: 4 KB first, then 2 MB). */
    struct TlbSizeClass
    {
        sim::SetAssoc<std::uint64_t> entries;

        std::uint32_t
        setOf(std::uint64_t vpage) const
        {
            return static_cast<std::uint32_t>(vpage) &
                   (entries.sets() - 1);
        }
    };

    /** One core's TLB: a list of per-page-size arrays.  Only the
     *  machine's page size ever fills, so that class's LRU clock is
     *  the TLB's one tick. */
    struct Tlb
    {
        std::vector<TlbSizeClass> classes;
    };

    std::uint64_t allocFrame();
    /** Index of the TLB class matching this machine's page size. */
    std::size_t activeClass() const;
    void tlbInvalidate(Tlb &tlb, std::uint64_t vpage);
    void doRemap();

    sim::EventQueue &eq_;
    VmSpec spec_;
    std::uint32_t pageShift_;
    sim::Cycle remapPeriod_ = 0;  //!< cycles between remaps (0 = off)

    std::vector<AddressSpace> spaces_;  //!< one per core
    std::vector<Tlb> tlbs_;             //!< one per core
    std::vector<VmCoreStats> stats_;    //!< one per core

    /** Next physical page number to hand out (bump allocator). */
    std::uint64_t nextFrame_;
    /** SplitMix64 state for cold-tie victim picks. */
    std::uint64_t rng_;
    /** Round-robin core cursor of the remap engine. */
    std::uint32_t remapCursor_ = 0;
    std::uint64_t remaps_ = 0;
    std::uint64_t accessesAtLastTick_ = 0;

    std::function<void(sim::Addr, sim::Addr, std::uint32_t)> remapCb_;
};

} // namespace vm

#endif // VM_VM_HH
