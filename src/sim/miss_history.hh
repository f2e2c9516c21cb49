/**
 * @file
 * MissHistory: the last N miss lines sim::StreamTable's stream
 * detection remembers, as a fixed ring of N entries.  A push past N
 * overwrites the oldest line, and the stream test scans the filled
 * entries once, in place; the order of the lines matters only to the
 * checkpoint, which lists them oldest first.
 */

#ifndef SIM_MISS_HISTORY_HH
#define SIM_MISS_HISTORY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/state.hh"
#include "sim/types.hh"

namespace sim {

class MissHistory
{
  public:
    explicit MissHistory(std::uint32_t depth) : buf_(depth) {}

    std::uint32_t depth() const { return std::uint32_t(buf_.size()); }

    /**
     * The stride of the +/-1 line sequence whose third miss @p line
     * would be: +1 if lines line-1 and line-2 are both remembered,
     * else -1 if line+1 and line+2 are, else 0.  Line arithmetic
     * wraps modulo 2^64, as the lines themselves do.
     */
    std::int64_t
    sequenceStride(Addr line) const
    {
        unsigned seen = 0;  // bit k: line + k - 2 is remembered
        for (std::uint32_t i = 0; i < size_; ++i) {
            const Addr k = buf_[i] - line + 2;
            if (k <= 4)
                seen |= 1u << k;
        }
        if ((seen & 0b00011) == 0b00011)
            return 1;
        if ((seen & 0b11000) == 0b11000)
            return -1;
        return 0;
    }

    /** Remember @p line, forgetting the oldest line when full. */
    void
    push(Addr line)
    {
        buf_[next_] = line;
        next_ = next_ + 1 == depth() ? 0 : next_ + 1;
        if (size_ < depth())
            ++size_;
    }

    /**
     * Checkpoint walk: the count, then the lines oldest first.  A
     * stored history longer than the depth throws
     * ckpt::CkptError(@p who + " miss history ... longer than its
     * depth N").
     */
    void
    walk(ckpt::Stream &s, const std::string &who)
    {
        std::vector<Addr> lines;
        for (std::uint32_t k = 0; s.saving() && k < size_; ++k)
            lines.push_back(buf_[(next_ + depth() - size_ + k) % depth()]);
        const std::string too_long =
            who + " miss history in checkpoint is longer than its depth " +
            std::to_string(depth());
        s.u64s(lines, depth(), too_long.c_str());
        if (s.restoring()) {
            next_ = size_ = 0;
            for (Addr line : lines)
                push(line);
        }
    }

  private:
    std::vector<Addr> buf_;
    std::uint32_t next_ = 0;  //!< slot the next push writes
    std::uint32_t size_ = 0;  //!< filled slots, at most depth()
};

} // namespace sim

#endif // SIM_MISS_HISTORY_HH
