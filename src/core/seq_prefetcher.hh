/**
 * @file
 * Software sequential prefetching in the ULMT (Seq1 / Seq4, Table 4).
 *
 * Section 3.3.3 proposes adding sequential-prefetching support to the
 * ULMT algorithms; Seq1 and Seq4 are the 1-stream and 4-stream
 * variants evaluated in Figures 5 and 7, and Seq1 is composed with
 * Replicated in the CG customization (Table 5).  Unlike the hardware
 * Conven4 prefetcher (which watches L1 misses), these observe the L2
 * miss stream arriving at the memory processor.
 *
 * The state is a handful of stream registers that fit in the memory
 * processor's cache, so the algorithm's cost is almost pure
 * computation: very low response time for sequential patterns.
 */

#ifndef CORE_SEQ_PREFETCHER_HH
#define CORE_SEQ_PREFETCHER_HH

#include <cstdint>
#include <vector>

#include "core/correlation_prefetcher.hh"
#include "core/params.hh"
#include "sim/miss_history.hh"

namespace core {

/** ULMT sequential prefetcher with NumSeq stream registers. */
class SeqPrefetcher : public CorrelationPrefetcher
{
  public:
    explicit SeqPrefetcher(const SeqParams &p);

    std::string name() const override
    {
        return "Seq" + std::to_string(p_.numSeq);
    }

    std::uint32_t levels() const override { return p_.numPref; }

    void prefetchStep(sim::Addr miss_line, std::vector<sim::Addr> &out,
                      CostTracker &cost) override;
    void learnStep(sim::Addr miss_line, CostTracker &cost) override;
    void predict(sim::Addr miss_line,
                 LevelPredictions &out) const override;

    std::uint64_t streamsDetected() const { return streamsDetected_; }

    /** Checkpoint walk: stream registers, miss history, counters. */
    void
    walk(ckpt::Stream &s) override
    {
        s.expect(streams_.size(),
                 "seq-prefetcher register count in checkpoint does not "
                 "match the configuration");
        for (Stream &st : streams_) {
            s.b(st.valid);
            s.u64(st.nextExpected, st.lastMiss);
            s.i64(st.stride);
            s.u64(st.stamp);
        }
        history_.walk(s, "seq-prefetcher");
        s.u64(streamsDetected_, stampCounter_);
    }

  private:
    struct Stream
    {
        bool valid = false;
        sim::Addr nextExpected = 0;  //!< line index
        sim::Addr lastMiss = 0;      //!< last observed miss on stream
        std::int64_t stride = 0;     //!< +1 or -1, in lines
        std::uint64_t stamp = 0;
    };

    sim::Addr lineOf(sim::Addr addr) const { return addr >> lineShift_; }
    sim::Addr addrOf(sim::Addr line) const { return line << lineShift_; }

    /** Stream whose window covers @p line, or nullptr. */
    Stream *match(sim::Addr line);
    const Stream *match(sim::Addr line) const;
    Stream *allocStream();
    void emitAhead(Stream &s, sim::Addr from_line,
                   std::vector<sim::Addr> &out, CostTracker &cost);

    SeqParams p_;
    std::uint32_t lineShift_;
    std::vector<Stream> streams_;
    sim::MissHistory history_;
    std::uint64_t streamsDetected_ = 0;
    std::uint64_t stampCounter_ = 0;
};

} // namespace core

#endif // CORE_SEQ_PREFETCHER_HH
