/**
 * @file
 * Tests for the software sequential prefetcher (Seq1/Seq4), the
 * composite algorithm (union prediction, short-circuit mode).
 */

#include <gtest/gtest.h>

#include "core/composite.hh"
#include "core/replicated.hh"
#include "core/seq_prefetcher.hh"

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
