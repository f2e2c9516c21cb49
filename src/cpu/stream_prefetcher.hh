/**
 * @file
 * The processor-side sequential prefetcher ("Conven4" in the paper).
 *
 * Following Section 4: the prefetcher monitors L1 cache misses and can
 * identify and prefetch up to NumSeq concurrent streams of stride +1
 * or -1 (in L1 lines).  When the third miss of an arithmetic sequence
 * is observed it recognizes a stream and prefetches the next NumPref
 * lines into the L1; a register remembers the stride and next expected
 * address, and further activity on the stream keeps it running ahead.
 */

#ifndef CPU_STREAM_PREFETCHER_HH
#define CPU_STREAM_PREFETCHER_HH

#include <cstdint>
#include <vector>

#include "ckpt/state.hh"
#include "sim/miss_history.hh"
#include "sim/types.hh"

namespace cpu {

/** Configuration of the stream prefetcher. */
struct StreamPrefetcherParams
{
    std::uint32_t numSeq = 4;    //!< concurrent stream registers
    std::uint32_t numPref = 6;   //!< lines prefetched per trigger
    std::uint32_t lineBytes = 32;     //!< a power of two
    std::uint32_t historyDepth = 16;  //!< misses kept for detection, >= 1
};

/** Detects sequential miss streams and emits prefetch addresses. */
class StreamPrefetcher
{
  public:
    explicit StreamPrefetcher(const StreamPrefetcherParams &p);

    /**
     * Observe a demand L1 miss.  Appends the lines to prefetch (L1-line
     * aligned) to @p out.
     */
    void observeMiss(sim::Addr addr, std::vector<sim::Addr> &out);

    /**
     * Observe the first demand touch of a line this prefetcher brought
     * into the L1: the stream continues.  A timely touch keeps the
     * stream one line ahead; a late touch (the line was still in
     * flight, i.e. the processor effectively missed on the expected
     * address, as with the paper's stream register) pushes it NumPref
     * lines further out so the distance grows until prefetches arrive
     * on time.
     */
    void observePrefetchedTouch(sim::Addr addr, bool late,
                                std::vector<sim::Addr> &out);

    std::uint64_t streamsDetected() const { return streamsDetected_; }

    void
    reset()
    {
        for (auto &s : streams_)
            s = Stream{};
        history_.clear();
        streamsDetected_ = 0;
        stampCounter_ = 0;
    }

    /** Checkpoint walk: stream registers, miss history, counters. */
    void
    walk(ckpt::Stream &s)
    {
        s.expect(streams_.size(),
                 "stream-prefetcher register count in checkpoint does "
                 "not match the configuration");
        for (Stream &st : streams_) {
            s.b(st.valid);
            s.u64(st.nextExpected);
            s.i64(st.stride);
            s.u64(st.stamp);
        }
        history_.walk(s, "stream-prefetcher");
        s.u64(streamsDetected_, stampCounter_);
    }

  private:
    struct Stream
    {
        bool valid = false;
        sim::Addr nextExpected = 0;  //!< line address
        std::int64_t stride = 0;     //!< in lines, +1 or -1
        std::uint64_t stamp = 0;     //!< LRU
    };

    sim::Addr lineOf(sim::Addr addr) const { return addr >> lineShift_; }
    sim::Addr addrOf(sim::Addr line) const { return line << lineShift_; }

    Stream *matchStream(sim::Addr line);
    Stream *allocStream();
    /** Advance nextExpected by up to @p count lines, emitting each. */
    void emitExtend(Stream &s, std::uint32_t count,
                    std::vector<sim::Addr> &out);
    /** Top the stream up to numPref lines past @p from_line. */
    void emitAhead(Stream &s, sim::Addr from_line,
                   std::vector<sim::Addr> &out);

    StreamPrefetcherParams p_;
    std::uint32_t lineShift_;
    std::vector<Stream> streams_;
    sim::MissHistory history_;  //!< recent miss lines
    std::uint64_t streamsDetected_ = 0;
    std::uint64_t stampCounter_ = 0;
};

} // namespace cpu

#endif // CPU_STREAM_PREFETCHER_HH
