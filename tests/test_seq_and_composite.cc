/**
 * @file
 * Tests for the software sequential prefetcher (Seq1/Seq4), the
 * composite algorithm (union prediction, short-circuit mode).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "core/composite.hh"
#include "core/replicated.hh"
#include "core/seq_prefetcher.hh"
#include "sim/random.hh"

namespace {

core::NullCostTracker nc;

core::SeqParams
seqParams(std::uint32_t streams)
{
    core::SeqParams p;
    p.numSeq = streams;
    p.numPref = 6;
    p.lineBytes = 64;
    return p;
}

void
observe(core::CorrelationPrefetcher &algo, sim::Addr miss)
{
    std::vector<sim::Addr> discard;
    algo.prefetchStep(miss, discard, nc);
    algo.learnStep(miss, nc);
}

TEST(SeqPrefetcher, DetectsAndRunsAhead)
{
    core::SeqPrefetcher seq(seqParams(1));
    std::vector<sim::Addr> out;
    observe(seq, 0x1000);
    observe(seq, 0x1040);
    // Third consecutive line: detection + NumPref lines ahead.
    seq.prefetchStep(0x1080, out, nc);
    seq.learnStep(0x1080, nc);
    ASSERT_EQ(out.size(), 6u);
    EXPECT_EQ(out.front(), 0x10c0u);
    EXPECT_EQ(out.back(), 0x1200u);
    EXPECT_EQ(seq.streamsDetected(), 1u);
}

TEST(SeqPrefetcher, PredictsFromEveryActiveStream)
{
    core::SeqPrefetcher seq(seqParams(4));
    // Establish two streams.
    for (int i = 0; i < 4; ++i) {
        observe(seq, 0x10000 + i * 64);
        observe(seq, 0x80000 + i * 64);
    }
    core::LevelPredictions preds;
    // Predict from a miss on the first stream: level-1 must contain
    // the next line of BOTH streams (the paper's permissive metric).
    seq.predict(0x10000 + 4 * 64, preds);
    ASSERT_FALSE(preds.empty());
    const auto &lvl1 = preds[0];
    EXPECT_NE(std::find(lvl1.begin(), lvl1.end(), 0x10000 + 5 * 64),
              lvl1.end());
    EXPECT_NE(std::find(lvl1.begin(), lvl1.end(), 0x80000 + 4 * 64),
              lvl1.end());
}

TEST(SeqPrefetcher, LookaheadKnob)
{
    core::SeqParams p = seqParams(1);
    p.lookaheadLines = 12;
    core::SeqPrefetcher seq(p);
    std::vector<sim::Addr> out;
    observe(seq, 0x1000);
    observe(seq, 0x1040);
    seq.prefetchStep(0x1080, out, nc);
    EXPECT_EQ(out.size(), 12u);
}

/** Sums the instructions charged; Seq touches no table memory. */
class CountingCost : public core::CostTracker
{
  public:
    void instr(std::uint32_t n) override { instrs += n; }
    void memRead(sim::Addr, std::uint32_t) override { ++memTouches; }
    void memWrite(sim::Addr, std::uint32_t) override { ++memTouches; }

    std::uint64_t instrs = 0;
    std::uint64_t memTouches = 0;
};

/**
 * Reference model of the Seq1/Seq4 algorithm, self-contained: stream
 * registers with their last miss, a std::deque miss history searched
 * by std::find, lines by division, and the instruction charges.  A
 * miss matches a stream 0..lookahead lines short of its next expected
 * line; predict() continues a stream from the miss when the miss lies
 * -1..4*numPref lines short of it, else from the stream's last miss.
 */
class RefSeqPrefetcher
{
  public:
    explicit RefSeqPrefetcher(const core::SeqParams &p)
        : p_(p), streams_(p.numSeq)
    {
    }

    void
    prefetchStep(sim::Addr addr, std::vector<sim::Addr> &out,
                 std::uint64_t &instrs)
    {
        const sim::Addr line = addr / p_.lineBytes;
        instrs += 4 * p_.numSeq;
        if (Stream *s = match(line, 0, p_.lookahead())) {
            s->last = line;
            emitAhead(*s, line, out, instrs);
            return;
        }
        for (std::int64_t stride : {std::int64_t{1}, std::int64_t{-1}}) {
            if (inHistory(line - sim::Addr(stride)) &&
                inHistory(line - sim::Addr(2 * stride))) {
                instrs += 4;
                Stream *s = alloc();
                *s = Stream{true, line, line, stride, 0};
                ++detected_;
                emitAhead(*s, line, out, instrs);
                return;
            }
        }
    }

    void
    learnStep(sim::Addr addr, std::uint64_t &instrs)
    {
        instrs += 2;
        history_.push_back(addr / p_.lineBytes);
        if (history_.size() > p_.historyDepth)
            history_.pop_front();
    }

    void
    predict(sim::Addr addr, core::LevelPredictions &out) const
    {
        out.assign(p_.numPref, {});
        const sim::Addr line = addr / p_.lineBytes;
        for (const Stream &s : streams_) {
            if (!s.valid)
                continue;
            const std::int64_t dist =
                (std::int64_t(s.next) - std::int64_t(line)) * s.stride;
            const sim::Addr from =
                dist >= -1 && dist <= 4 * std::int64_t(p_.numPref)
                    ? line
                    : s.last;
            for (std::uint32_t lvl = 0; lvl < p_.numPref; ++lvl) {
                const std::int64_t pred =
                    std::int64_t(from) + s.stride * std::int64_t(lvl + 1);
                if (pred >= 0)
                    out[lvl].push_back(sim::Addr(pred) * p_.lineBytes);
            }
        }
    }

    std::uint64_t streamsDetected() const { return detected_; }

  private:
    struct Stream
    {
        bool valid = false;
        sim::Addr next = 0;
        sim::Addr last = 0;
        std::int64_t stride = 0;
        std::uint64_t stamp = 0;
    };

    bool
    inHistory(sim::Addr line) const
    {
        return std::find(history_.begin(), history_.end(), line) !=
               history_.end();
    }

    Stream *
    match(sim::Addr line, std::int64_t lo, std::int64_t hi)
    {
        for (Stream &s : streams_) {
            const std::int64_t dist =
                (std::int64_t(s.next) - std::int64_t(line)) * s.stride;
            if (s.valid && dist >= lo && dist <= hi)
                return &s;
        }
        return nullptr;
    }

    Stream *
    alloc()
    {
        Stream *victim = &streams_[0];
        for (Stream &s : streams_) {
            if (!s.valid)
                return &s;
            if (s.stamp < victim->stamp)
                victim = &s;
        }
        return victim;
    }

    void
    emitAhead(Stream &s, sim::Addr from, std::vector<sim::Addr> &out,
              std::uint64_t &instrs)
    {
        const std::int64_t target =
            std::int64_t(from) + s.stride * std::int64_t(p_.lookahead());
        while (true) {
            const std::int64_t next = std::int64_t(s.next) + s.stride;
            if (next < 0 || (target - next) * s.stride < 0)
                break;
            s.next = sim::Addr(next);
            instrs += 2;
            out.push_back(s.next * p_.lineBytes);
        }
        s.stamp = ++stamps_;
    }

    core::SeqParams p_;
    std::vector<Stream> streams_;
    std::deque<sim::Addr> history_;
    std::uint64_t detected_ = 0;
    std::uint64_t stamps_ = 0;
};

/**
 * SeqPrefetcher against the reference model: random +/-1-stride miss
 * streams (several at once, near line 0 too, so descending streams
 * run off the bottom) with random jumps, stepped through prefetchStep
 * and learnStep alone or together, as the ULMT and the short-circuit
 * composite call them.  Every step must emit the same lines, charge
 * the same instructions and predict the same levels.
 */
TEST(SeqPrefetcher, MatchesReferenceModel)
{
    for (std::uint32_t streams : {1u, 4u}) {
        for (std::uint32_t lookahead : {0u, 12u}) {
            for (std::uint32_t depth : {1u, 3u, 16u}) {
                core::SeqParams p = seqParams(streams);
                p.lookaheadLines = lookahead;
                p.historyDepth = depth;
                const std::string where =
                    "numSeq " + std::to_string(streams) + " lookahead " +
                    std::to_string(lookahead) + " depth " +
                    std::to_string(depth);
                core::SeqPrefetcher seq(p);
                RefSeqPrefetcher ref(p);
                CountingCost cost;
                std::uint64_t want_instrs = 0;
                sim::Rng rng(streams * 1000 + lookahead * 100 + depth);
                struct Walker
                {
                    sim::Addr line;
                    std::int64_t stride;
                };
                std::vector<Walker> walkers;
                std::vector<sim::Addr> got, want;
                core::LevelPredictions got_pred, want_pred;
                for (int i = 0; i < 20000; ++i) {
                    if (walkers.size() < 3 || rng.chance(0.01)) {
                        const sim::Addr base = rng.chance(0.2)
                                                   ? rng.below(8)
                                                   : rng.below(1 << 20);
                        const std::int64_t stride =
                            rng.chance(0.5) ? 1 : -1;
                        if (walkers.size() >= 6)
                            walkers.erase(walkers.begin());
                        walkers.push_back({base, stride});
                    }
                    sim::Addr addr;
                    if (rng.chance(0.15)) {
                        addr = rng.below(1ull << 26);  // a jump
                    } else {
                        Walker &w = walkers[rng.below(walkers.size())];
                        addr = w.line * 64 + rng.below(64);
                        if (!(w.stride < 0 && w.line == 0))
                            w.line =
                                sim::Addr(std::int64_t(w.line) + w.stride);
                    }
                    const std::uint64_t pick = rng.below(10);
                    if (pick != 9) {
                        got.clear();
                        want.clear();
                        seq.prefetchStep(addr, got, cost);
                        ref.prefetchStep(addr, want, want_instrs);
                        ASSERT_EQ(got, want) << where << " iter " << i;
                    }
                    if (pick != 8) {
                        seq.learnStep(addr, cost);
                        ref.learnStep(addr, want_instrs);
                    }
                    ASSERT_EQ(cost.instrs, want_instrs)
                        << where << " iter " << i;
                    seq.predict(addr, got_pred);
                    ref.predict(addr, want_pred);
                    ASSERT_EQ(got_pred, want_pred) << where << " iter " << i;
                }
                EXPECT_EQ(seq.streamsDetected(), ref.streamsDetected())
                    << where;
                EXPECT_EQ(cost.memTouches, 0u) << where;
                if (depth >= 2) {
                    EXPECT_GT(seq.streamsDetected(), 100u) << where;
                }
            }
        }
    }
}

TEST(Composite, RunsBothAndMergesPredictions)
{
    std::vector<std::unique_ptr<core::CorrelationPrefetcher>> parts;
    parts.push_back(
        std::make_unique<core::SeqPrefetcher>(seqParams(4)));
    parts.push_back(std::make_unique<core::ReplicatedPrefetcher>(
        core::chainReplDefaults(1024)));
    core::CompositePrefetcher comp(std::move(parts));
    EXPECT_EQ(comp.name(), "Seq4+Repl");
    EXPECT_EQ(comp.levels(), 6u);  // max of parts

    // Irregular repeating pattern: only Repl learns it.
    for (int rep = 0; rep < 3; ++rep) {
        observe(comp, 0x9000);
        observe(comp, 0x3000);
        observe(comp, 0x7000);
    }
    core::LevelPredictions preds;
    comp.predict(0x9000, preds);
    EXPECT_NE(std::find(preds[0].begin(), preds[0].end(), 0x3000),
              preds[0].end());
}

TEST(Composite, ShortCircuitSkipsBackOnStreamHit)
{
    std::vector<std::unique_ptr<core::CorrelationPrefetcher>> parts;
    auto seq = std::make_unique<core::SeqPrefetcher>(seqParams(1));
    auto repl = std::make_unique<core::ReplicatedPrefetcher>(
        core::chainReplDefaults(1024));
    core::ReplicatedPrefetcher *repl_raw = repl.get();
    parts.push_back(std::move(seq));
    parts.push_back(std::move(repl));
    core::CompositePrefetcher comp(std::move(parts),
                                   /*short_circuit=*/true);

    // Sequential misses: the front component owns them, so the table
    // never learns them (insertions stay at the detection phase).
    for (int i = 0; i < 32; ++i)
        observe(comp, 0x40000 + i * 64);
    // The first two misses (pre-detection) fall through to Repl; once
    // the stream is live, Repl stops learning.
    EXPECT_LE(repl_raw->insertions(), 4u);
}

TEST(SeqPrefetcherDeathTest, RefusesBadParameters)
{
    core::SeqParams odd_line = seqParams(1);
    odd_line.lineBytes = 96;
    EXPECT_DEATH(core::SeqPrefetcher{odd_line},
                 "line size must be a power of two");
    core::SeqParams no_history = seqParams(1);
    no_history.historyDepth = 0;
    EXPECT_DEATH(core::SeqPrefetcher{no_history},
                 "history depth must be at least 1");
}

} // namespace
