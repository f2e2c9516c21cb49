/**
 * @file
 * An open-addressing hash map keyed by addresses, for the per-miss and
 * per-push bookkeeping maps.
 *
 * Those maps see an insert and an erase for nearly every memory
 * transaction, so a node-based std::unordered_map pays an allocation,
 * a free and a pointer chase each time.  FlatMap keeps its entries in
 * one power-of-two array: linear probing at a load factor of at most
 * 1/2, a multiplicative (Fibonacci) hash because line addresses have
 * their low bits clear, and backward-shift deletion, so there are no
 * tombstones and a probe never walks past a deleted entry.
 *
 * Iteration order is unspecified and walks the whole table, not just
 * the live entries.  Anything whose output depends on the entries
 * sorts them first (DESIGN §9).
 */

#ifndef SIM_FLAT_MAP_HH
#define SIM_FLAT_MAP_HH

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace sim {

/** An Addr-keyed open-addressing map (see the file comment). */
template <typename V>
class FlatMap
{
  public:
    using value_type = std::pair<Addr, V>;

  private:
    template <bool Const>
    class Iter
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = FlatMap::value_type;
        using difference_type = std::ptrdiff_t;
        using pointer =
            std::conditional_t<Const, const value_type *, value_type *>;
        using reference =
            std::conditional_t<Const, const value_type &, value_type &>;

        Iter(pointer p, pointer end) : p_(p), end_(end) { skipEmpty(); }

        reference operator*() const { return *p_; }
        pointer operator->() const { return p_; }

        Iter &
        operator++()
        {
            ++p_;
            skipEmpty();
            return *this;
        }

        bool operator==(const Iter &o) const { return p_ == o.p_; }
        bool operator!=(const Iter &o) const { return p_ != o.p_; }

      private:
        friend class FlatMap;

        void
        skipEmpty()
        {
            while (p_ != end_ && p_->first == emptyKey)
                ++p_;
        }

        pointer p_;
        pointer end_;
    };

  public:
    using iterator = Iter<false>;
    using const_iterator = Iter<true>;

    FlatMap() : slots_(minCapacity, value_type{emptyKey, V{}}) {}

    std::size_t size() const { return size_; }

    iterator begin() { return {slots_.data(), endPtr()}; }
    iterator end() { return {endPtr(), endPtr()}; }
    const_iterator begin() const { return {slots_.data(), endPtr()}; }
    const_iterator end() const { return {endPtr(), endPtr()}; }

    iterator
    find(Addr key)
    {
        const std::size_t i = indexOf(key);
        return i == npos ? end() : iterator{&slots_[i], endPtr()};
    }

    const_iterator
    find(Addr key) const
    {
        const std::size_t i = indexOf(key);
        return i == npos ? end() : const_iterator{&slots_[i], endPtr()};
    }

    std::size_t count(Addr key) const { return indexOf(key) != npos; }

    /** The entry for @p key, value-initialized if it was absent. */
    V &
    operator[](Addr key)
    {
        return tryEmplace(key).first->second;
    }

    /** Remove @p key; returns the number of entries removed (0/1). */
    std::size_t
    erase(Addr key)
    {
        const std::size_t i = indexOf(key);
        if (i == npos)
            return 0;
        eraseAt(i);
        return 1;
    }

    /** Remove the entry @p it names.  Other iterators are invalidated:
     *  erasure shifts later entries of the probe run back. */
    void
    erase(iterator it)
    {
        eraseAt(static_cast<std::size_t>(it.p_ - slots_.data()));
    }

    /**
     * Remove every entry for which @p pred(entry) is true, visiting
     * each entry exactly once.  The walk starts just past an empty
     * slot: no probe run spans that slot, so the back-shifts of
     * erasure never carry an unvisited entry behind the walk or a
     * visited one ahead of it.
     */
    template <typename Pred>
    void
    eraseIf(Pred pred)
    {
        if (size_ == 0)
            return;
        const std::size_t mask = slots_.size() - 1;
        std::size_t stop = 0;
        while (slots_[stop].first != emptyKey)
            ++stop;
        for (std::size_t i = (stop + 1) & mask; i != stop;) {
            if (slots_[i].first != emptyKey &&
                pred(std::as_const(slots_[i])))
                eraseAt(i);  // re-examine i: a later entry moved in
            else
                i = (i + 1) & mask;
        }
    }

    /** Remove every entry, keeping the table's capacity. */
    void
    clear()
    {
        if (size_ == 0)
            return;
        for (value_type &s : slots_)
            s.first = emptyKey;
        size_ = 0;
    }

    /** Insert @p key (value-initialized) if absent; returns the entry
     *  and whether it was inserted. */
    std::pair<iterator, bool>
    tryEmplace(Addr key)
    {
        SIM_ASSERT(key != emptyKey, "FlatMap key collides with the "
                                    "empty-slot marker");
        if (2 * (size_ + 1) > slots_.size())
            grow();
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = home(key);; i = (i + 1) & mask) {
            value_type &s = slots_[i];
            if (s.first == key)
                return {iterator{&s, endPtr()}, false};
            if (s.first == emptyKey) {
                s.first = key;
                s.second = V{};
                ++size_;
                return {iterator{&s, endPtr()}, true};
            }
        }
    }

  private:
    /** Marks an empty slot; no line address or packed key reaches it. */
    static constexpr Addr emptyKey = ~Addr{0};
    static constexpr std::size_t minCapacity = 16;
    static constexpr std::size_t npos = ~std::size_t{0};

    value_type *endPtr() { return slots_.data() + slots_.size(); }
    const value_type *
    endPtr() const
    {
        return slots_.data() + slots_.size();
    }

    /** The preferred slot: the top log2(capacity) bits of key * phi,
     *  which mixes every key bit into the index. */
    std::size_t
    home(Addr key) const
    {
        return static_cast<std::size_t>(
            (key * 0x9E3779B97F4A7C15ull) >> shift_);
    }

    std::size_t
    indexOf(Addr key) const
    {
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = home(key);; i = (i + 1) & mask) {
            const Addr k = slots_[i].first;
            if (k == key)
                return i;
            if (k == emptyKey)
                return npos;
        }
    }

    /** Backward-shift deletion: pull each later entry of the probe run
     *  into the hole when the hole lies between its home and it. */
    void
    eraseAt(std::size_t hole)
    {
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t j = (hole + 1) & mask;
             slots_[j].first != emptyKey; j = (j + 1) & mask) {
            const std::size_t h = home(slots_[j].first);
            if (((j - h) & mask) >= ((j - hole) & mask)) {
                slots_[hole] = std::move(slots_[j]);
                hole = j;
            }
        }
        slots_[hole].first = emptyKey;
        --size_;
    }

    /** Double the table and reinsert every entry. */
    void
    grow()
    {
        std::vector<value_type> old(2 * slots_.size(),
                                    value_type{emptyKey, V{}});
        old.swap(slots_);
        --shift_;
        const std::size_t mask = slots_.size() - 1;
        for (value_type &s : old) {
            if (s.first == emptyKey)
                continue;
            std::size_t i = home(s.first);
            while (slots_[i].first != emptyKey)
                i = (i + 1) & mask;
            slots_[i] = std::move(s);
        }
    }

    std::vector<value_type> slots_;  //!< first == emptyKey: unused
    std::size_t size_ = 0;
    /** 64 - log2(capacity); grow() doubles, so one less per grow. */
    unsigned shift_ = 64 - 4;
    static_assert(minCapacity == 16, "shift_ starts at 64 - log2(16)");
};

/** The set form of FlatMap. */
class FlatSet
{
    struct None
    {
    };

  public:
    /** Returns true if @p key was not present. */
    bool insert(Addr key) { return map_.tryEmplace(key).second; }
    std::size_t erase(Addr key) { return map_.erase(key); }
    std::size_t count(Addr key) const { return map_.count(key); }
    std::size_t size() const { return map_.size(); }
    void clear() { map_.clear(); }

    /** Every key, in unspecified order. */
    std::vector<Addr>
    keys() const
    {
        std::vector<Addr> out;
        out.reserve(map_.size());
        for (const auto &entry : map_)
            out.push_back(entry.first);
        return out;
    }

  private:
    FlatMap<None> map_;
};

} // namespace sim

#endif // SIM_FLAT_MAP_HH
