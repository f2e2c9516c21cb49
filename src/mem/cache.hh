/**
 * @file
 * A generic set-associative, write-back tag array with LRU replacement.
 *
 * The class models tag state and per-line metadata; the surrounding
 * hierarchy (cpu::Hierarchy, core::MemProcCache) decides what a hit or
 * miss costs and what happens on eviction.  A line installed by a miss
 * is resident immediately but carries a readyAt cycle: accesses before
 * readyAt are delayed hits that complete at readyAt (this models MSHR
 * merging), and a line whose readyAt is in the future counts as
 * "transaction pending" for the push-prefetch drop rules of Section 2.1.
 */

#ifndef MEM_CACHE_HH
#define MEM_CACHE_HH

#include <cstdint>
#include <optional>
#include <string>

#include "check/check.hh"
#include "ckpt/state.hh"
#include "mem/timing_params.hh"
#include "sim/logging.hh"
#include "sim/set_assoc.hh"
#include "sim/types.hh"

namespace mem {

/**
 * Passive observer of a Cache's replacement-relevant transitions,
 * used by the deep checker's reference LRU model.  Notifications fire
 * synchronously from the mutating call; implementations MUST NOT
 * touch the cache back.  All hooks are behind a null-pointer guard,
 * so an unattached cache pays one compare per operation.
 */
class CacheShadow
{
  public:
    virtual ~CacheShadow() = default;
    /** A resident line was promoted to MRU. */
    virtual void onTouch(sim::Addr line_addr) = 0;
    /** A line was installed (victim selection already happened). */
    virtual void onInsert(sim::Addr line_addr, sim::Cycle now,
                          sim::Cycle ready_at) = 0;
    /** A resident line was dropped. */
    virtual void onInvalidate(sim::Addr line_addr) = 0;
    /** The whole array was cleared. */
    virtual void onReset() = 0;
};

/** Metadata of one cache line (the tag, valid bit and LRU stamp live
 *  in the line's sim::SetAssoc entry). */
struct CacheLine
{
    bool dirty = false;
    /** Pushed by the ULMT and not yet referenced by a demand access. */
    bool prefetched = false;
    /** Filled by the processor-side stream prefetcher, unreferenced. */
    bool cpuPrefetched = false;
    /** Where the fill came from (for stall attribution on delayed hits). */
    sim::ServedBy fillOrigin = sim::ServedBy::L1;
    sim::Cycle readyAt = 0;     //!< cycle when the data is available
};

/** What fell out of a set when a new line was installed. */
struct Eviction
{
    bool valid = false;         //!< an actual line was displaced
    sim::Addr lineAddr = sim::invalidAddr;
    bool dirty = false;
    bool prefetched = false;    //!< ULMT-pushed line, never referenced
    bool cpuPrefetched = false;
};

/** Statistics kept by the tag array itself. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t dirtyEvictions = 0;
};

/**
 * Set-associative tag array with true-LRU replacement.
 */
class Cache
{
  public:
    using Ways = sim::SetAssoc<CacheLine>;

    Cache(std::string name, const CacheGeometry &geom);

    /** Strip the offset bits: the line-aligned address. */
    sim::Addr
    lineAddr(sim::Addr addr) const
    {
        return addr & lineMask_;
    }

    std::uint32_t lineBytes() const { return geom_.lineBytes; }
    std::uint32_t numSets() const { return ways_.sets(); }
    std::uint32_t assoc() const { return geom_.assoc; }
    const std::string &name() const { return name_; }
    const CacheStats &stats() const { return stats_; }

    /**
     * Look up a line without modifying replacement state.
     * @return pointer to the resident line, or nullptr on miss.
     */
    CacheLine *
    find(sim::Addr addr)
    {
        const std::size_t i = ways_.find(setIndex(addr), lineAddr(addr));
        return i == Ways::npos ? nullptr : &ways_.data(i);
    }

    const CacheLine *
    find(sim::Addr addr) const
    {
        return const_cast<Cache *>(this)->find(addr);
    }

    /** Promote a line to MRU. */
    void
    touch(CacheLine *line)
    {
        touch(ways_.indexOf(line));
    }

    /** Attach/detach the deep checker's shadow (nullptr = off). */
    void setShadow(CacheShadow *shadow) { shadow_ = shadow; }

    /**
     * Look up and update stats/LRU: the common demand-access path.
     * @return the line on a hit (promoted to MRU), nullptr on a miss.
     */
    CacheLine *
    access(sim::Addr addr)
    {
        const std::size_t i = ways_.find(setIndex(addr), lineAddr(addr));
        if (i == Ways::npos) {
            ++stats_.misses;
            return nullptr;
        }
        ++stats_.hits;
        touch(i);
        return &ways_.data(i);
    }

    /**
     * Install a line, evicting the LRU victim of its set.  Victims
     * whose fill is still pending (readyAt > now) are avoided when any
     * settled line exists.
     *
     * @param addr      any address within the new line
     * @param now       current cycle (used to identify pending lines)
     * @param ready_at  cycle at which the new line's data arrives
     * @param evicted   out-parameter describing the displaced line
     * @return the installed line (valid, clean, MRU)
     */
    CacheLine *insert(sim::Addr addr, sim::Cycle now, sim::Cycle ready_at,
                      Eviction &evicted);

    /**
     * True if every line in addr's set is valid with a pending fill:
     * the "all lines in the set are in transaction-pending state" push
     * drop rule.
     */
    bool setAllPending(sim::Addr addr, sim::Cycle now) const;

    /** Drop a line if resident (used by page-remap tests). */
    void invalidate(sim::Addr addr);

    /** Invalidate everything and zero the stats. */
    void reset();

    /**
     * Checkpoint walk of the tag array: a geometry guard, stats, the
     * LRU stamp counter, and only the valid lines (sparse: varint line
     * index + fields), so a barely warm cache costs a few bytes per
     * resident line.  A checkpoint taken under a different geometry is
     * rejected (CkptError) before any line is touched.
     */
    void walk(ckpt::Stream &s);

    /** Read-only walk over the valid lines: fn(entry, line), where
     *  entry carries set, way, tag and LRU stamp. */
    template <typename Fn>
    void
    forEachLine(Fn &&fn) const
    {
        ways_.forEach(
            [&](const Ways::Entry &e) { fn(e, ways_.data(e.index)); });
    }

    /**
     * Invariants: every valid line's tag is line-aligned and maps to
     * the set it sits in, no set holds the same tag twice, and no LRU
     * stamp exceeds the stamp counter.  When @p expected_origin is
     * given, every valid line must carry that fillOrigin — the
     * memory-thread cache uses this to pin the "insert resets
     * fillOrigin" fix.
     */
    void checkInvariants(
        check::CheckContext &ctx,
        std::optional<sim::ServedBy> expected_origin = {}) const;

  private:
    friend struct check::CheckTestPeer;

    std::uint32_t
    setIndex(sim::Addr addr) const
    {
        return static_cast<std::uint32_t>((addr >> lineShift_) & setMask_);
    }

    void
    touch(std::size_t i)
    {
        ways_.touch(i);
        if (shadow_)
            shadow_->onTouch(ways_.tag(i));
    }

    std::string name_;
    CacheGeometry geom_;
    Ways ways_;
    /** Both powers of two (asserted): set index and line address are
     *  a shift and masks. */
    std::uint32_t lineShift_ = 0;
    sim::Addr setMask_ = 0;
    sim::Addr lineMask_ = 0;
    CacheStats stats_;
    CacheShadow *shadow_ = nullptr;
};

} // namespace mem

#endif // MEM_CACHE_HH
