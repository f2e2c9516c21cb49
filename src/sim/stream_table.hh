/**
 * @file
 * StreamTable: the sequential-stream engine under both of the paper's
 * stream prefetchers, the processor-side Conven4 on L1 misses
 * (cpu::StreamPrefetcher, Section 4) and the ULMT's Seq1/Seq4 on L2
 * misses (core::SeqPrefetcher, Section 3.3.3).  NumSeq registers each
 * follow one stream of stride +1 or -1 lines; a stream starts, in the
 * least recently used register, on the third miss of a +/-1 line
 * sequence in the miss history, and runs ahead of the misses that
 * fall in its window.  The owners differ only in numbers, passed to
 * match() and emitAhead(): the window, and how far ahead to run.
 */

#ifndef SIM_STREAM_TABLE_HH
#define SIM_STREAM_TABLE_HH

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/state.hh"
#include "sim/logging.hh"
#include "sim/miss_history.hh"
#include "sim/types.hh"

namespace sim {

class StreamTable
{
  public:
    /** One stream register; lines are line indices. */
    struct Stream
    {
        bool valid = false;
        Addr nextExpected = 0;    //!< furthest line reached
        Addr lastMiss = 0;        //!< last miss on it; the owner sets it
        std::int64_t stride = 0;  //!< +1 or -1
        std::uint64_t stamp = 0;  //!< LRU
    };

    /** A register's checkpoint fields: Seq's layout writes lastMiss
     *  between nextExpected and stride, Conven4's leaves it out. */
    enum class Layout { WithoutLastMiss, WithLastMiss };

    /** @p line_bytes is a power of two, @p history_depth at least 1;
     *  @p who names the owner in assertions and checkpoint errors. */
    StreamTable(std::uint32_t num_seq, std::uint32_t line_bytes,
                std::uint32_t history_depth, const char *who,
                Layout layout)
        : who_(who), layout_(layout),
          lineShift_(static_cast<std::uint32_t>(
              std::countr_zero(line_bytes))),
          streams_(num_seq), history_(history_depth)
    {
        SIM_ASSERT(std::has_single_bit(line_bytes),
                   "%s: line size must be a power of two", who);
        SIM_ASSERT(history_depth >= 1,
                   "%s: miss history depth must be at least 1", who);
    }

    Addr lineOf(Addr addr) const { return addr >> lineShift_; }
    Addr addrOf(Addr line) const { return line << lineShift_; }

    /** Lines @p line lies short of @p s's next expected line. */
    static std::int64_t
    distance(const Stream &s, Addr line)
    {
        return (static_cast<std::int64_t>(s.nextExpected) -
                static_cast<std::int64_t>(line)) *
               s.stride;
    }

    /** The first valid stream with lo <= distance(s, line) <= hi. */
    Stream *
    match(Addr line, std::int64_t lo, std::int64_t hi)
    {
        for (Stream &s : streams_) {
            if (!s.valid)
                continue;
            const std::int64_t dist = distance(s, line);
            if (dist >= lo && dist <= hi)
                return &s;
        }
        return nullptr;
    }

    /** Detection: when @p line is the third miss of a +/-1 line
     *  sequence in the history, start a stream at it in the LRU
     *  register and return it; else nullptr.  Remembers nothing. */
    Stream *
    detect(Addr line)
    {
        const std::int64_t stride = history_.sequenceStride(line);
        if (!stride)
            return nullptr;
        Stream *s = &streams_[0];
        for (Stream &r : streams_) {
            if (!r.valid) {
                s = &r;
                break;
            }
            if (r.stamp < s->stamp)
                s = &r;
        }
        s->valid = true;
        s->stride = stride;
        s->nextExpected = line;
        ++streamsDetected_;
        return s;
    }

    /** Remember the miss @p line, forgetting the oldest when full. */
    void remember(Addr line) { history_.push(line); }

    /** Advance @p s up to @p ahead lines past @p from_line, never
     *  below line 0, appending each line's address to @p out; returns
     *  how many it appended.  Marks @p s most recently used. */
    std::uint32_t
    emitAhead(Stream &s, Addr from_line, std::uint32_t ahead,
              std::vector<Addr> &out)
    {
        const std::int64_t target =
            static_cast<std::int64_t>(from_line) +
            s.stride * static_cast<std::int64_t>(ahead);
        std::uint32_t emitted = 0;
        while (true) {
            const std::int64_t next =
                static_cast<std::int64_t>(s.nextExpected) + s.stride;
            if (next < 0 || (target - next) * s.stride < 0)
                break;
            s.nextExpected = static_cast<Addr>(next);
            out.push_back(addrOf(s.nextExpected));
            ++emitted;
        }
        s.stamp = ++stampCounter_;
        return emitted;
    }

    const std::vector<Stream> &streams() const { return streams_; }
    std::uint64_t streamsDetected() const { return streamsDetected_; }

    /** Checkpoint walk: registers, miss history, counters. */
    void
    walk(ckpt::Stream &s)
    {
        s.expect(streams_.size(),
                 who_ + " register count in checkpoint does not match "
                        "the configuration");
        for (Stream &st : streams_) {
            s.b(st.valid);
            s.u64(st.nextExpected);
            if (layout_ == Layout::WithLastMiss)
                s.u64(st.lastMiss);
            s.i64(st.stride);
            s.u64(st.stamp);
        }
        history_.walk(s, who_);
        s.u64(streamsDetected_, stampCounter_);
    }

  private:
    std::string who_;
    Layout layout_;
    std::uint32_t lineShift_;
    std::vector<Stream> streams_;
    MissHistory history_;
    std::uint64_t streamsDetected_ = 0;
    std::uint64_t stampCounter_ = 0;
};

} // namespace sim

#endif // SIM_STREAM_TABLE_HH
