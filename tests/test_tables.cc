/**
 * @file
 * Tests for the correlation tables and algorithms, anchored on the
 * paper's own worked example: Figure 4 runs the miss sequence
 * a,b,c,a,d,c through Base, Chain and Replicated and gives the exact
 * table contents and the prefetches issued on a subsequent miss on a.
 */

#include <gtest/gtest.h>

#include "core/base_chain.hh"
#include "core/replicated.hh"

namespace {

// Line-aligned stand-ins for the figure's a, b, c, d.
constexpr sim::Addr A = 0x1000, B = 0x2000, C = 0x3000, D = 0x4000;

core::NullCostTracker nc;

void
feed(core::CorrelationPrefetcher &algo,
     std::initializer_list<sim::Addr> misses)
{
    std::vector<sim::Addr> discard;
    for (sim::Addr m : misses) {
        discard.clear();
        algo.prefetchStep(m, discard, nc);
        algo.learnStep(m, nc);
    }
}

std::vector<sim::Addr>
prefetchesOn(core::CorrelationPrefetcher &algo, sim::Addr miss)
{
    std::vector<sim::Addr> out;
    algo.prefetchStep(miss, out, nc);
    return out;
}

core::CorrelationParams
figureParams(std::uint32_t num_succ, std::uint32_t num_levels)
{
    core::CorrelationParams p;
    p.numRows = 16;
    p.assoc = 4;
    p.numSucc = num_succ;
    p.numLevels = num_levels;
    return p;
}

TEST(Figure4, BaseLearnsAndPrefetchesImmediateSuccessors)
{
    core::BasePrefetcher base(figureParams(2, 1));
    feed(base, {A, B, C, A, D, C});
    // Figure 4-(a)(iii): on a miss on a, prefetch d then b (MRU order).
    EXPECT_EQ(prefetchesOn(base, A), (std::vector<sim::Addr>{D, B}));
    EXPECT_EQ(prefetchesOn(base, B), (std::vector<sim::Addr>{C}));
    EXPECT_EQ(prefetchesOn(base, C), (std::vector<sim::Addr>{A}));
    EXPECT_EQ(prefetchesOn(base, D), (std::vector<sim::Addr>{C}));
}

TEST(Figure4, ChainFollowsTheMruLink)
{
    core::ChainPrefetcher chain(figureParams(2, 2));
    feed(chain, {A, B, C, A, D, C});
    // Figure 4-(b)(iii): prefetch d, b; follow the MRU link to d's
    // row; prefetch c.
    EXPECT_EQ(prefetchesOn(chain, A),
              (std::vector<sim::Addr>{D, B, C}));
}

TEST(Figure4, ReplicatedKeepsTrueMruPerLevel)
{
    core::ReplicatedPrefetcher repl(figureParams(2, 2));
    feed(repl, {A, B, C, A, D, C});
    // Figure 4-(c)(iii): a's row holds level-1 {d, b} and level-2 {c}:
    // prefetch d, b, c with a single row access.
    EXPECT_EQ(prefetchesOn(repl, A),
              (std::vector<sim::Addr>{D, B, C}));

    core::LevelPredictions preds;
    repl.predict(A, preds);
    ASSERT_EQ(preds.size(), 2u);
    EXPECT_EQ(preds[0], (std::vector<sim::Addr>{D, B}));
    EXPECT_EQ(preds[1], (std::vector<sim::Addr>{C}));
}

TEST(Figure4, ChainMissesOffPathSuccessors)
{
    // The paper's accuracy example (Section 3.3.1): in the sequence
    // a,b,c,...,b,e,b,f,...  Chain prefetching on a follows the MRU
    // path through b and misses c, while Replicated still predicts c
    // at level 2.
    constexpr sim::Addr E = 0x5000, F = 0x6000;
    // Six distinct rows live at once: use a set large enough to hold
    // them so no prediction is lost to conflicts.
    core::CorrelationParams p = figureParams(2, 2);
    p.numRows = 16;
    p.assoc = 8;
    core::ChainPrefetcher chain(p);
    core::ReplicatedPrefetcher repl(p);
    for (int rep = 0; rep < 3; ++rep) {
        feed(chain, {A, B, C, B, E, B, F});
        feed(repl, {A, B, C, B, E, B, F});
    }
    const auto chain_pf = prefetchesOn(chain, A);
    EXPECT_EQ(std::count(chain_pf.begin(), chain_pf.end(), C), 0);
    core::LevelPredictions preds;
    repl.predict(A, preds);
    EXPECT_NE(std::find(preds[1].begin(), preds[1].end(), C),
              preds[1].end());
}

TEST(PairTable, SuccessorListIsMruWithLruReplacement)
{
    core::CorrelationParams p = figureParams(2, 1);
    core::PairTable table(p, 12);
    const core::RowIndex row = table.findOrAlloc(A, nc);
    const auto succ = [&] {
        const auto s = table.successors(row);
        return std::vector<sim::Addr>(s.begin(), s.end());
    };
    table.insertSuccessor(row, B, nc);
    table.insertSuccessor(row, C, nc);
    EXPECT_EQ(succ(), (std::vector<sim::Addr>{C, B}));
    // Re-inserting B promotes it.
    table.insertSuccessor(row, B, nc);
    EXPECT_EQ(succ(), (std::vector<sim::Addr>{B, C}));
    // A third distinct successor displaces the LRU one (C).
    table.insertSuccessor(row, D, nc);
    EXPECT_EQ(succ(), (std::vector<sim::Addr>{D, B}));
}

TEST(PairTable, SetConflictsReplaceLruRow)
{
    core::CorrelationParams p;
    p.numRows = 2;
    p.assoc = 2;
    p.numSucc = 2;
    core::PairTable table(p, 12);
    // All addresses fall in the single set.
    table.findOrAlloc(A, nc);
    table.findOrAlloc(B, nc);
    EXPECT_EQ(table.replacements(), 0u);
    table.find(A, nc);  // touch A: B becomes LRU
    table.findOrAlloc(C, nc);
    EXPECT_EQ(table.replacements(), 1u);
    EXPECT_NE(table.findNoCost(A), core::noRow);
    EXPECT_EQ(table.findNoCost(B), core::noRow);
}

TEST(PairTable, SizeAccountingMatchesPaper)
{
    // Table 2: Base rows are 20 B, Chain rows 12 B, Repl rows 28 B.
    core::BasePrefetcher base(core::baseDefaults(64 * 1024));
    EXPECT_EQ(base.tableBytes(), 64u * 1024u * 20u);
    core::ChainPrefetcher chain(core::chainReplDefaults(64 * 1024));
    EXPECT_EQ(chain.tableBytes(), 64u * 1024u * 12u);
    core::ReplicatedPrefetcher repl(core::chainReplDefaults(64 * 1024));
    EXPECT_EQ(repl.tableBytes(), 64u * 1024u * 28u);
}

TEST(Replicated, StalePointersAreSkipped)
{
    // Tiny table: one set of two rows; force the row a pointer refers
    // to, to be reallocated before the next learn.
    core::CorrelationParams p;
    p.numRows = 2;
    p.assoc = 2;
    p.numSucc = 2;
    p.numLevels = 3;
    core::ReplicatedPrefetcher repl(p);
    feed(repl, {A, B, C, D});  // each alloc displaces an older row
    // No crash, and predictions never contain garbage rows: the last
    // miss D must have a row.
    core::LevelPredictions preds;
    repl.predict(D, preds);
    EXPECT_EQ(preds.size(), 3u);
}

TEST(Replicated, DeeperLevelsWithNumLevels4)
{
    // Five live rows: size the set so none is evicted.
    core::CorrelationParams p = figureParams(2, 4);
    p.numRows = 16;
    p.assoc = 8;
    core::ReplicatedPrefetcher repl(p);
    for (int rep = 0; rep < 3; ++rep)
        feed(repl, {A, B, C, D, 0x5000});
    core::LevelPredictions preds;
    repl.predict(A, preds);
    ASSERT_EQ(preds.size(), 4u);
    for (const auto &level : preds)
        ASSERT_FALSE(level.empty());
    EXPECT_EQ(preds[0].front(), B);
    EXPECT_EQ(preds[1].front(), C);
    EXPECT_EQ(preds[2].front(), D);
    EXPECT_EQ(preds[3].front(), 0x5000u);
}

TEST(PageRemap, PairTableRelocatesRowsAndSuccessors)
{
    constexpr std::uint32_t page = 4096;
    core::CorrelationParams p;
    p.numRows = 1024;
    p.assoc = 2;
    p.numSucc = 2;
    core::BasePrefetcher base(p);
    // Misses inside page 1, with successors inside the same page.
    const sim::Addr m1 = 1 * page + 0x40;
    const sim::Addr m2 = 1 * page + 0x80;
    feed(base, {m1, m2, m1, m2});
    // Remap page 1 -> page 9.
    base.onPageRemap(1, 9, page, nc);
    const sim::Addr n1 = 9 * page + 0x40;
    const sim::Addr n2 = 9 * page + 0x80;
    // The relocated rows predict relocated successors.
    core::LevelPredictions preds;
    base.predict(n1, preds);
    ASSERT_FALSE(preds[0].empty());
    EXPECT_NE(std::find(preds[0].begin(), preds[0].end(), n2),
              preds[0].end());
    // The old rows are gone.
    base.predict(m1, preds);
    EXPECT_TRUE(preds[0].empty());
}

TEST(PageRemap, ReplicatedRelocates)
{
    constexpr std::uint32_t page = 4096;
    core::CorrelationParams p;
    p.numRows = 1024;
    p.assoc = 2;
    p.numSucc = 2;
    p.numLevels = 3;
    core::ReplicatedPrefetcher repl(p);
    const sim::Addr m1 = 2 * page + 0x40;
    const sim::Addr m2 = 2 * page + 0xc0;
    feed(repl, {m1, m2, m1, m2});
    repl.onPageRemap(2, 7, page, nc);
    core::LevelPredictions preds;
    repl.predict(7 * page + 0x40, preds);
    ASSERT_FALSE(preds[0].empty());
    EXPECT_EQ(preds[0].front(), 7 * page + 0xc0);
}

TEST(Insertions, CountedForSizingCriterion)
{
    core::BasePrefetcher base(core::baseDefaults(1024));
    feed(base, {A, B, C, D});
    EXPECT_EQ(base.insertions(), 4u);
    EXPECT_EQ(base.replacements(), 0u);
}

} // namespace
