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
 * The registers are a sim::StreamTable.
 */

#ifndef CPU_STREAM_PREFETCHER_HH
#define CPU_STREAM_PREFETCHER_HH

#include <cstdint>
#include <vector>

#include "sim/stream_table.hh"

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
    explicit StreamPrefetcher(const StreamPrefetcherParams &p)
        : numPref_(p.numPref), window_(4 * std::int64_t(p.numPref)),
          table_(p.numSeq, p.lineBytes, p.historyDepth,
                 "stream-prefetcher",
                 sim::StreamTable::Layout::WithoutLastMiss)
    {
    }

    /** Observe a demand L1 miss; appends to @p out the lines to
     *  prefetch: NumPref past a miss in a stream's window (the paper's
     *  stream register) or past the third miss of a new stream. */
    void observeMiss(sim::Addr addr, std::vector<sim::Addr> &out);

    /**
     * Observe the first demand touch of a line this prefetcher brought
     * into the L1: the stream tops up to NumPref lines past it.  The
     * lookahead is fixed, timely touch or late, so the paper's CG
     * prefetches are accurate but only ~64% timely -- the gap the
     * Seq1+Repl Verbose customization closes.
     */
    void observePrefetchedTouch(sim::Addr addr,
                                std::vector<sim::Addr> &out);

    std::uint64_t streamsDetected() const { return table_.streamsDetected(); }

    /** Checkpoint walk: stream registers, miss history, counters. */
    void walk(ckpt::Stream &s) { table_.walk(s); }

  private:
    std::uint32_t numPref_;
    std::int64_t window_;  //!< a stream matches -1..window_ lines short
    sim::StreamTable table_;
};

} // namespace cpu

#endif // CPU_STREAM_PREFETCHER_HH
