/**
 * @file
 * SetAssoc: the one set-associative, stamp-LRU array under every
 * simulated set-associative structure -- the L1/L2 caches and the
 * memory processor's L1 (mem::Cache), the MSCache (mem::TableCache),
 * the correlation tables (core::CorrelationTable) and the TLB
 * (vm::Vm).  DESIGN.md section 5, "One set-associative core".
 *
 * Storage is structure-of-arrays: packed tag, valid and LRU-stamp
 * arrays, set-major (entry index = set * ways + way), plus a flat
 * arena of owner-defined payloads.  The array knows nothing of
 * addresses: the owner keeps its own set hash, its own cost
 * accounting and its own checkpoint field order, and talks to the
 * array in (set, tag) and entry indices.
 *
 * Replacement: a victim is the first invalid way, scanning from a
 * start way and wrapping; with no invalid way it is the valid way
 * with the smallest stamp, optionally among "eligible" ways only
 * (falling back to all).  Stamps come from one counter per array and
 * are unique among valid ways, so only the order in which invalid ways
 * fill depends on the start way.
 */

#ifndef SIM_SET_ASSOC_HH
#define SIM_SET_ASSOC_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "check/check.hh"
#include "ckpt/state.hh"
#include "sim/mapped_alloc.hh"

namespace sim {

/** Payload of an array whose owner keeps no per-entry fields. */
struct NoPayload
{
};

template <typename Payload = NoPayload>
class SetAssoc
{
  public:
    /** "No entry" result of find(). */
    static constexpr std::size_t npos = ~std::size_t(0);

    /** One valid entry, as forEach() presents it. */
    struct Entry
    {
        std::size_t index;
        std::uint32_t set;
        std::uint32_t way;
        std::uint64_t tag;
        std::uint64_t stamp;
    };

    SetAssoc() = default;

    SetAssoc(std::uint32_t sets, std::uint32_t ways)
        : sets_(sets), ways_(ways),
          tag_(std::size_t(sets) * ways), valid_(tag_.size()),
          stamp_(tag_.size())
    {
        if constexpr (!std::is_empty_v<Payload>)
            data_.resize(tag_.size());
    }

    std::uint32_t sets() const { return sets_; }
    std::uint32_t ways() const { return ways_; }
    std::size_t size() const { return tag_.size(); }

    std::size_t
    index(std::uint32_t set, std::uint32_t way) const
    {
        return std::size_t(set) * ways_ + way;
    }

    /** The valid entry of @p set holding @p tag, or npos. */
    std::size_t
    find(std::uint32_t set, std::uint64_t tag) const
    {
        const std::size_t base = index(set, 0);
        for (std::size_t i = base; i < base + ways_; ++i) {
            if (tag_[i] == tag && valid_[i])
                return i;
        }
        return npos;
    }

    /** Promote entry @p i to MRU. */
    void touch(std::size_t i) { stamp_[i] = ++clock_; }

    /**
     * The entry of @p set to replace: the first invalid way scanning
     * from @p first_way (wrapping), else the LRU valid way among those
     * @p eligible accepts, else the LRU valid way.
     */
    template <typename Eligible>
    std::size_t
    victim(std::uint32_t set, Eligible &&eligible,
           std::uint32_t first_way = 0) const
    {
        return scanSet<false>(set, 0, eligible, first_way);
    }

    std::size_t
    victim(std::uint32_t set, std::uint32_t first_way = 0) const
    {
        return victim(set, [](std::size_t) { return false; }, first_way);
    }

    /**
     * victim() from way 0 for a @p tag about to be installed in
     * @p set, in one scan that also proves @p tag is not resident
     * there: npos if it is, else the entry victim() would pick.
     */
    template <typename Eligible>
    std::size_t
    victimFor(std::uint32_t set, std::uint64_t tag,
              Eligible &&eligible) const
    {
        return scanSet<true>(set, tag, eligible, 0);
    }

    /** Claim entry @p i for @p tag as MRU.  The payload is the
     *  owner's to reset. */
    void
    install(std::size_t i, std::uint64_t tag)
    {
        tag_[i] = tag;
        valid_[i] = 1;
        touch(i);
    }

    /** Drop entry @p i.  Its tag, stamp and payload stay readable. */
    void invalidate(std::size_t i) { valid_[i] = 0; }

    /** Every entry invalid and zeroed, the stamp counter at 0. */
    void
    reset()
    {
        clearEntries();
        clock_ = 0;
    }

    bool valid(std::size_t i) const { return valid_[i] != 0; }
    std::uint64_t tag(std::size_t i) const { return tag_[i]; }
    std::uint64_t stamp(std::size_t i) const { return stamp_[i]; }
    Payload &data(std::size_t i) { return data_[i]; }
    const Payload &data(std::size_t i) const { return data_[i]; }
    /** Index of the entry whose payload @p p is. */
    std::size_t
    indexOf(const Payload *p) const
    {
        return static_cast<std::size_t>(p - data_.data());
    }
    std::uint32_t setOf(std::size_t i) const { return i / ways_; }

    /** The LRU stamp counter. */
    std::uint64_t clock() const { return clock_; }
    void setClock(std::uint64_t c) { clock_ = c; }

    /** Visit every valid entry in index order: fn(const Entry &). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t i = 0; i < tag_.size(); ++i) {
            if (valid_[i])
                fn(Entry{i, setOf(i), std::uint32_t(i % ways_), tag_[i],
                         stamp_[i]});
        }
    }

    /**
     * Sparse checkpoint frame: the valid count, then per valid entry
     * its index and tag followed by whatever @p fields(i) walks.
     * Restoring clears every entry (not the stamp counter) first; an
     * index outside the array throws ckpt::CkptError(@p range_error).
     */
    template <typename Fn>
    void
    walkSparse(ckpt::Stream &s, const std::string &range_error,
               Fn &&fields)
    {
        std::uint64_t valid = 0;
        for (std::uint8_t v : valid_)
            valid += v;
        valid = s.count(valid);
        if (s.saving()) {
            forEach([&](const Entry &e) {
                std::uint64_t i = e.index;
                s.u64(i, tag_[i]);
                fields(e.index);
            });
            return;
        }
        clearEntries();
        for (std::uint64_t n = 0; n < valid; ++n) {
            std::uint64_t i = 0;
            s.u64(i);
            if (i >= tag_.size())
                throw ckpt::CkptError(range_error);
            valid_[i] = 1;
            s.u64(tag_[i]);
            fields(std::size_t(i));
        }
    }

    /** Dense checkpoint frame: every entry's valid flag and tag, then
     *  whatever @p fields(i) walks, then its stamp. */
    template <typename Fn>
    void
    walkDense(ckpt::Stream &s, Fn &&fields)
    {
        for (std::size_t i = 0; i < tag_.size(); ++i) {
            bool v = valid_[i] != 0;
            s.b(v);
            if (s.restoring())
                valid_[i] = v ? 1 : 0;
            s.u64(tag_[i]);
            fields(i);
            s.u64(stamp_[i]);
        }
    }

    /** The LRU stamp counter and entry @p i's stamp, for the owner's
     *  walk (each owner places them in its own field order). */
    void walkClock(ckpt::Stream &s) { s.u64(clock_); }
    void walkStamp(ckpt::Stream &s, std::size_t i) { s.u64(stamp_[i]); }

    /**
     * Structural invariants every owner shares: each valid tag maps to
     * the set it sits in (@p set_of(tag)), no set holds a tag twice,
     * and no stamp exceeds the counter.  Owners add their own checks.
     */
    template <typename SetOf>
    void
    checkStructure(check::CheckContext &ctx, const std::string &who,
                   SetOf &&set_of) const
    {
        forEach([&](const Entry &e) {
            const std::uint32_t home = set_of(e.tag);
            if (home != e.set)
                ctx.fail(who, "tag " + check::hex(e.tag) +
                                  " resident in set " +
                                  std::to_string(e.set) +
                                  " but maps to set " +
                                  std::to_string(home));
            if (e.stamp > clock_)
                ctx.fail(who, "tag " + check::hex(e.tag) +
                                  " carries LRU stamp " +
                                  std::to_string(e.stamp) +
                                  " beyond the counter " +
                                  std::to_string(clock_));
            for (std::size_t j = e.index + 1; j < index(e.set + 1, 0);
                 ++j) {
                if (valid_[j] && tag_[j] == e.tag)
                    ctx.fail(who, "duplicate tag " + check::hex(e.tag) +
                                      " in set " + std::to_string(e.set));
            }
        });
    }

  private:
    friend struct check::CheckTestPeer;

    /** The one victim rule.  With @p CheckTag every way is scanned so
     *  a resident @p tag is seen (npos); without it the first invalid
     *  way ends the scan. */
    template <bool CheckTag, typename Eligible>
    std::size_t
    scanSet(std::uint32_t set, std::uint64_t tag, Eligible &eligible,
            std::uint32_t first_way) const
    {
        const std::size_t base = index(set, 0);
        std::size_t invalid = npos;
        std::size_t lru = npos;
        std::size_t pick = npos;
        for (std::uint32_t k = 0; k < ways_; ++k) {
            const std::uint32_t w =
                first_way + k < ways_ ? first_way + k : first_way + k - ways_;
            const std::size_t i = base + w;
            if (!valid_[i]) {
                if constexpr (!CheckTag)
                    return i;
                if (invalid == npos)
                    invalid = i;
                continue;
            }
            if constexpr (CheckTag) {
                if (tag_[i] == tag)
                    return npos;
                if (invalid != npos)
                    continue;
            }
            if (lru == npos || stamp_[i] < stamp_[lru])
                lru = i;
            if (eligible(i) && (pick == npos || stamp_[i] < stamp_[pick]))
                pick = i;
        }
        if (invalid != npos)
            return invalid;
        return pick != npos ? pick : lru;
    }

    void
    clearEntries()
    {
        std::fill(tag_.begin(), tag_.end(), 0);
        std::fill(valid_.begin(), valid_.end(), 0);
        std::fill(stamp_.begin(), stamp_.end(), 0);
        std::fill(data_.begin(), data_.end(), Payload{});
    }

    std::uint32_t sets_ = 0;
    std::uint32_t ways_ = 0;
    MappedVector<std::uint64_t> tag_;
    MappedVector<std::uint8_t> valid_;
    MappedVector<std::uint64_t> stamp_;
    /** Empty for an empty Payload. */
    MappedVector<Payload> data_;
    std::uint64_t clock_ = 0;
};

} // namespace sim

#endif // SIM_SET_ASSOC_HH
