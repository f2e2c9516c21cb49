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
 * computation: very low response time for sequential patterns.  The
 * registers are a sim::StreamTable, the engine Conven4 runs too.
 */

#ifndef CORE_SEQ_PREFETCHER_HH
#define CORE_SEQ_PREFETCHER_HH

#include <cstdint>
#include <vector>

#include "core/correlation_prefetcher.hh"
#include "core/params.hh"
#include "sim/stream_table.hh"

namespace core {

/** ULMT sequential prefetcher with NumSeq stream registers. */
class SeqPrefetcher : public CorrelationPrefetcher
{
  public:
    explicit SeqPrefetcher(const SeqParams &p)
        : p_(p), table_(p.numSeq, p.lineBytes, p.historyDepth,
                        "seq-prefetcher",
                        sim::StreamTable::Layout::WithLastMiss)
    {
    }

    std::string name() const override
    {
        return "Seq" + std::to_string(p_.numSeq);
    }

    std::uint32_t levels() const override { return p_.numPref; }

    void
    prefetchStep(sim::Addr miss_line, std::vector<sim::Addr> &out,
                 CostTracker &cost) override
    {
        const sim::Addr line = table_.lineOf(miss_line);
        cost.instr(cost::seqCheck * p_.numSeq);
        // A miss up to lookahead() lines short of a stream's next
        // expected line keeps the stream lookahead() lines ahead of it.
        sim::StreamTable::Stream *s =
            table_.match(line, 0, std::int64_t(p_.lookahead()));
        if (!s) {
            s = table_.detect(line);
            if (!s)
                return;
            cost.instr(cost::seqCheck);
        }
        s->lastMiss = line;
        const std::uint32_t emitted =
            table_.emitAhead(*s, line, p_.lookahead(), out);
        for (std::uint32_t i = 0; i < emitted; ++i)
            cost.instr(cost::emitPrefetch);
    }

    void
    learnStep(sim::Addr miss_line, CostTracker &cost) override
    {
        cost.instr(2);
        table_.remember(table_.lineOf(miss_line));
    }

    /**
     * The paper scores a sequential prediction as correct when the
     * upcoming miss "matches the next address predicted by one of the
     * streams identified" -- so every active stream predicts its next
     * lines: from the miss if the miss belongs to the stream, else
     * from the stream's last miss.  "Belongs" is Conven4's wide window
     * (-1..4*NumPref lines short), not prefetchStep's 0..lookahead():
     * Fig 5's Seq columns are scored with it.
     */
    void
    predict(sim::Addr miss_line, LevelPredictions &out) const override
    {
        out.assign(p_.numPref, {});
        const sim::Addr line = table_.lineOf(miss_line);
        for (const sim::StreamTable::Stream &s : table_.streams()) {
            if (!s.valid)
                continue;
            const std::int64_t dist = sim::StreamTable::distance(s, line);
            const sim::Addr from =
                dist >= -1 && dist <= 4 * std::int64_t(p_.numPref)
                    ? line
                    : s.lastMiss;
            for (std::uint32_t lvl = 0; lvl < p_.numPref; ++lvl) {
                const std::int64_t pred = std::int64_t(from) +
                                          s.stride * std::int64_t(lvl + 1);
                if (pred >= 0)
                    out[lvl].push_back(table_.addrOf(sim::Addr(pred)));
            }
        }
    }

    std::uint64_t streamsDetected() const { return table_.streamsDetected(); }

    /** Checkpoint walk: stream registers, miss history, counters. */
    void walk(ckpt::Stream &s) override { table_.walk(s); }

  private:
    SeqParams p_;
    sim::StreamTable table_;
};

} // namespace core

#endif // CORE_SEQ_PREFETCHER_HH
