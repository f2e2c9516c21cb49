/**
 * @file
 * StateWriter / StateReader: one section's payload encoding, and
 * Stream, the checkpoint walk built on them.
 *
 * Every stateful component lists its checkpointed fields once, in one
 * walk(ckpt::Stream &) function; a Stream holds either a StateWriter
 * (save) or a StateReader (restore), so saving and restoring run the
 * same field list and cannot drift apart.  The driver still checks
 * that every section is fully consumed (finish()).  Scalars are
 * varint-encoded (state is mostly small counters and sparse indices);
 * doubles travel as exact u64 bit patterns so a restored SampleStat is
 * bit-identical, not merely close.
 *
 * Determinism requirement: a walk must emit a byte-deterministic
 * encoding -- unordered containers go through sortedMap()/sortedSet()
 * -- so that the same simulator state always produces the same
 * checkpoint bytes (the committed corpus depends on this).
 */

#ifndef CKPT_STATE_HH
#define CKPT_STATE_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "ckpt/format.hh"

namespace ckpt {

/** Accumulates one section's payload. */
class StateWriter
{
  public:
    void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
    void b(bool v) { u8(v ? 1 : 0); }
    void u32(std::uint32_t v) { putVarint(buf_, v); }
    void u64(std::uint64_t v) { putVarint(buf_, v); }
    void i64(std::int64_t v) { putVarint(buf_, zigzagEncode(v)); }

    /** Exact bit pattern -- restored doubles compare equal bitwise. */
    void
    f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        putLe(buf_, bits);
    }

    void
    str(const std::string &s)
    {
        if (s.size() > maxStringLen)
            throw CkptError("string too long for checkpoint section");
        u32(static_cast<std::uint32_t>(s.size()));
        buf_.append(s);
    }

    const std::string &buffer() const { return buf_; }
    std::string take() { return std::move(buf_); }

  private:
    std::string buf_;
};

/** Decodes one section's payload; throws CkptError on any overrun. */
class StateReader
{
  public:
    StateReader(const void *data, std::size_t size)
        : data_(static_cast<const unsigned char *>(data)), size_(size)
    {
    }

    explicit StateReader(const std::string &payload)
        : StateReader(payload.data(), payload.size())
    {
    }

    std::uint8_t
    u8()
    {
        if (pos_ >= size_)
            throw CkptError("truncated checkpoint section");
        return data_[pos_++];
    }

    bool
    b()
    {
        const std::uint8_t v = u8();
        if (v > 1)
            throw CkptError("corrupt bool in checkpoint section");
        return v != 0;
    }

    std::uint32_t
    u32()
    {
        const std::uint64_t v = getVarint(data_, size_, pos_);
        if (v > 0xFFFFFFFFULL)
            throw CkptError("u32 field out of range in checkpoint");
        return static_cast<std::uint32_t>(v);
    }

    std::uint64_t u64() { return getVarint(data_, size_, pos_); }

    std::int64_t
    i64()
    {
        return zigzagDecode(getVarint(data_, size_, pos_));
    }

    double
    f64()
    {
        const std::uint64_t bits =
            getLe<std::uint64_t>(data_, size_, pos_);
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::string
    str()
    {
        const std::uint32_t len = u32();
        if (len > maxStringLen || size_ - pos_ < len)
            throw CkptError("truncated string in checkpoint section");
        std::string s(reinterpret_cast<const char *>(data_ + pos_),
                      len);
        pos_ += len;
        return s;
    }

    std::size_t remaining() const { return size_ - pos_; }

    /** Call once all fields are read; trailing bytes mean a mismatch. */
    void
    finish() const
    {
        if (pos_ != size_)
            throw CkptError(
                "checkpoint section has trailing bytes (save/restore "
                "field mismatch)");
    }

  private:
    const unsigned char *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

/**
 * One checkpoint walk's stream: a StateWriter when saving, a
 * StateReader when restoring.  Each field call takes the field by
 * reference: saving writes it, restoring overwrites it.  Restore-only
 * work (clearing derived state, range checks) goes behind restoring().
 */
class Stream
{
  public:
    explicit Stream(StateWriter &w) : w_(&w) {}
    explicit Stream(StateReader &r) : r_(&r) {}

    bool saving() const { return w_ != nullptr; }
    bool restoring() const { return r_ != nullptr; }

    template <typename... T>
    void
    u8(T &...v)
    {
        (io(v, &StateWriter::u8, &StateReader::u8), ...);
    }

    template <typename... T>
    void
    b(T &...v)
    {
        (io(v, &StateWriter::b, &StateReader::b), ...);
    }

    template <typename... T>
    void
    u32(T &...v)
    {
        (io(v, &StateWriter::u32, &StateReader::u32), ...);
    }

    template <typename... T>
    void
    u64(T &...v)
    {
        (io(v, &StateWriter::u64, &StateReader::u64), ...);
    }

    template <typename... T>
    void
    i64(T &...v)
    {
        (io(v, &StateWriter::i64, &StateReader::i64), ...);
    }

    /** Exact bit patterns. */
    template <typename... T>
    void
    f64(T &...v)
    {
        (io(v, &StateWriter::f64, &StateReader::f64), ...);
    }

    /**
     * A guard: saving writes @p value; restoring reads the stored one
     * and throws CkptError(@p msg) unless it equals @p value.  The
     * encoding follows the type (u32 or u64).
     */
    template <typename T>
    void
    expect(T value, const std::string &msg)
    {
        T stored = value;
        if constexpr (std::is_same_v<T, std::uint32_t>)
            u32(stored);
        else
            u64(stored);
        if (stored != value)
            throw CkptError(msg);
    }

    /** An enum stored as one byte; a restored value above @p max
     *  throws CkptError(@p msg). */
    template <typename E>
    void
    enumU8(E &v, E max, const std::string &msg)
    {
        std::uint8_t raw = static_cast<std::uint8_t>(v);
        u8(raw);
        if (raw > static_cast<std::uint8_t>(max))
            throw CkptError(msg);
        if (restoring())
            v = static_cast<E>(raw);
    }

    /** A sequence's count: @p n is written on save; the stored count is
     *  returned on restore. */
    std::uint64_t
    count(std::uint64_t n)
    {
        u64(n);
        return n;
    }

    /**
     * A count-prefixed sequence; @p fn walks one element.  Restoring
     * clears @p c and appends the stored elements; a count above
     * @p max throws CkptError(@p too_long).
     */
    template <typename C, typename Fn>
    void
    seq(C &c, Fn &&fn, std::uint64_t max = noMax,
        const char *too_long = "")
    {
        const std::uint64_t n = count(c.size());
        if (saving()) {
            for (typename C::value_type e : c)
                fn(e);
            return;
        }
        if (n > max)
            throw CkptError(too_long);
        c.clear();
        for (std::uint64_t i = 0; i < n; ++i) {
            typename C::value_type e{};
            fn(e);
            c.insert(c.end(), std::move(e));
        }
    }

    /** seq() of plain u64 elements. */
    template <typename C>
    void
    u64s(C &c, std::uint64_t max = noMax, const char *too_long = "")
    {
        seq(c, [this](std::uint64_t &v) { u64(v); }, max, too_long);
    }

    /**
     * A hash map as its count, then its entries in key order, so
     * identical state is identical bytes; @p fn(key, value) walks one
     * entry.  Restoring clears @p m first.
     */
    template <typename M, typename Fn>
    void
    sortedMap(M &m, Fn &&fn)
    {
        using K = std::remove_const_t<typename M::value_type::first_type>;
        using V = typename M::value_type::second_type;
        std::vector<std::pair<K, V>> entries;
        if (saving()) {
            entries.assign(m.begin(), m.end());
            std::sort(entries.begin(), entries.end(),
                      [](const auto &a, const auto &b) {
                          return a.first < b.first;
                      });
        }
        seq(entries, [&](std::pair<K, V> &e) { fn(e.first, e.second); });
        if (restoring()) {
            m.clear();
            for (const auto &[k, v] : entries)
                m[k] = v;
        }
    }

    /** A hash set of u64 keys in key order; restoring clears it. */
    template <typename S>
    void
    sortedSet(S &set)
    {
        std::vector<std::uint64_t> keys;
        if (saving()) {
            keys = set.keys();
            std::sort(keys.begin(), keys.end());
        }
        u64s(keys);
        if (restoring()) {
            set.clear();
            for (std::uint64_t k : keys)
                set.insert(k);
        }
    }

    static constexpr std::uint64_t noMax = ~std::uint64_t(0);

  private:
    /** One field: write it, or read it back in place. */
    template <typename T, typename W, typename R>
    void
    io(T &v, void (StateWriter::*write)(W), R (StateReader::*read)())
    {
        static_assert(std::is_same_v<T, W> && std::is_same_v<T, R>,
                      "field type does not match its encoding");
        if (w_)
            (w_->*write)(v);
        else
            v = (r_->*read)();
    }

    StateWriter *w_ = nullptr;
    StateReader *r_ = nullptr;
};

/** Walk a component: its walk(Stream &) member.  Value types of the
 *  sim/ layer overload this in ckpt/sim_state.hh. */
template <typename T>
void
walk(Stream &s, T &obj)
{
    obj.walk(s);
}

/** Save @p obj's walk into @p w.  A saving walk only reads its
 *  fields, so the const_cast never writes through. */
template <typename T>
void
save(StateWriter &w, const T &obj)
{
    Stream s(w);
    walk(s, const_cast<T &>(obj));
}

/** Restore @p obj's walk from @p r. */
template <typename T>
void
restore(StateReader &r, T &obj)
{
    Stream s(r);
    walk(s, obj);
}

} // namespace ckpt

#endif // CKPT_STATE_HH
