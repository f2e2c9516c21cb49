/**
 * @file
 * Tests for the runtime invariant checker (DESIGN.md section 10):
 * the three bugs it pins (queue-1 cross-match attribution, the
 * disabled-filter admit counter, the fillOrigin reset on insert),
 * the invariant catalog — every cataloged invariant must fire on
 * deliberately seeded corruption — the deep reference models, and
 * checker passivity (bit-identical cycles with checking off or deep).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "check/invariant_checker.hh"
#include "check/ref_models.hh"
#include "core/base_chain.hh"
#include "core/factory.hh"
#include "core/replicated.hh"
#include "core/ulmt_engine.hh"
#include "driver/experiment.hh"
#include "driver/system.hh"
#include "mem/cache.hh"
#include "mem/memory_system.hh"
#include "mem/prefetch_filter.hh"
#include "workloads/workload.hh"

namespace check {

/**
 * The test-only corruption backdoor declared in check/check.hh: each
 * helper mutates one private structure in a way the corresponding
 * invariant must catch.
 */
struct CheckTestPeer
{
    // --- PrefetchFilter ---------------------------------------------
    static void
    fifoPushOnly(mem::PrefetchFilter &f, sim::Addr a)
    {
        f.fifo_.push_back(a);  // FIFO/present_ now disagree
    }

    static void
    presentBump(mem::PrefetchFilter &f, sim::Addr a)
    {
        ++f.present_[a];
    }

    static void
    presentZero(mem::PrefetchFilter &f, sim::Addr a)
    {
        f.present_[a] = 0;
    }

    // --- Cache -------------------------------------------------------
    static mem::CacheLine &
    line(mem::Cache &c, std::uint32_t set, std::uint32_t way)
    {
        return c.ways_.data(c.ways_.index(set, way));
    }

    static bool
    valid(mem::Cache &c, std::uint32_t set, std::uint32_t way)
    {
        return c.ways_.valid(c.ways_.index(set, way));
    }

    static std::uint64_t &
    tag(mem::Cache &c, std::uint32_t set, std::uint32_t way)
    {
        return c.ways_.tag_[c.ways_.index(set, way)];
    }

    static std::uint64_t &
    stamp(mem::Cache &c, std::uint32_t set, std::uint32_t way)
    {
        return c.ways_.stamp_[c.ways_.index(set, way)];
    }

    // --- MemorySystem ------------------------------------------------
    static void
    ghostDemand(mem::MemorySystem &ms, sim::Addr a)
    {
        ++ms.inflightDemand_[a];
    }

    static void
    ghostCpuPf(mem::MemorySystem &ms, sim::Addr a)
    {
        ++ms.inflightCpuPf_[a];
    }

    static void
    ghostPf(mem::MemorySystem &ms, sim::Addr a, sim::Cycle arrival)
    {
        ms.inflightPf_[a] = arrival;
    }

    static void
    dropQueue1(mem::MemorySystem &ms)
    {
        ms.inflightDemand_.clear();
        ms.inflightCpuPf_.clear();
    }

    // --- CorrelationTable (PairTable, Repl's rows) -----------------
    static std::size_t
    firstValidRow(const core::CorrelationTable &t)
    {
        for (std::size_t i = 0; i < t.rows_.size(); ++i) {
            if (t.rows_.valid(i))
                return i;
        }
        ADD_FAILURE() << "no valid row";
        return 0;
    }

    static std::uint64_t &
    tag(core::CorrelationTable &t, std::size_t row)
    {
        return t.rows_.tag_[row];
    }

    static std::uint64_t &
    stamp(core::CorrelationTable &t, std::size_t row)
    {
        return t.rows_.stamp_[row];
    }

    /** Live length of a successor list (may be set past NumSucc). */
    static std::uint32_t &
    count(core::CorrelationTable &t, std::size_t row,
          std::uint32_t level = 0)
    {
        return t.count_[t.listIndex(core::RowIndex(row), level)];
    }

    /** Overwrite a successor list (at most NumSucc entries). */
    static void
    setList(core::CorrelationTable &t, std::size_t row,
            std::uint32_t level, const std::vector<sim::Addr> &list)
    {
        ASSERT_LE(list.size(), t.params_.numSucc);
        const std::size_t l = t.listIndex(core::RowIndex(row), level);
        std::copy(list.begin(), list.end(),
                  t.succ_.begin() +
                      std::ptrdiff_t(l * t.params_.numSucc));
        t.count_[l] = static_cast<std::uint32_t>(list.size());
    }

    // --- ReplicatedPrefetcher ---------------------------------------
    static core::CorrelationTable &
    table(core::ReplicatedPrefetcher &r)
    {
        return r.table_;
    }

    static void
    danglePtr(core::ReplicatedPrefetcher &r)
    {
        ASSERT_FALSE(r.ptrs_.empty());
        r.ptrs_[0].valid = true;
        r.ptrs_[0].index = r.params_.numRows + 7;
    }

    // --- UlmtEngine --------------------------------------------------
    static void
    stuffQueue2(core::UlmtEngine &e, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i)
            e.queues2_[0].push_back({0, 0x40 * (i + 1), 0, 0});
    }
};

} // namespace check

namespace {

using check::CheckContext;
using check::CheckTestPeer;

// ====================================================================
// The three bug fixes
// ====================================================================

struct MemsysFixture : public ::testing::Test
{
    sim::EventQueue eq;
    mem::TimingParams tp;
    mem::MemorySystem ms{eq, tp};
};

TEST_F(MemsysFixture, CpuPrefetchCrossMatchAttributedSeparately)
{
    // A CPU prefetch in flight must drop a colliding ULMT prefetch as
    // a cpu_pf_match, not a demand_match (the old misattribution).
    ms.fetchLine(0, 0x1000, sim::RequestKind::CpuPrefetch);
    EXPECT_EQ(ms.inflightCpuPrefetchCount(), 1u);
    EXPECT_EQ(ms.inflightDemandCount(), 0u);

    EXPECT_FALSE(ms.ulmtPrefetch(1, 0x1000));
    EXPECT_EQ(ms.stats().ulmtPrefetchesDroppedCpuPfMatch, 1u);
    EXPECT_EQ(ms.stats().ulmtPrefetchesDroppedDemandMatch, 0u);

    // A demand in flight still drops as a demand_match.
    ms.fetchLine(2, 0x2000, sim::RequestKind::Demand);
    EXPECT_FALSE(ms.ulmtPrefetch(3, 0x2000));
    EXPECT_EQ(ms.stats().ulmtPrefetchesDroppedDemandMatch, 1u);
    EXPECT_EQ(ms.stats().ulmtPrefetchesDroppedCpuPfMatch, 1u);

    // Completions drain both queue-1 maps.
    eq.run();
    EXPECT_EQ(ms.inflightCpuPrefetchCount(), 0u);
    EXPECT_EQ(ms.inflightDemandCount(), 0u);

    // With nothing in flight the same lines now pass the cross-match.
    EXPECT_TRUE(ms.ulmtPrefetch(eq.now() + 1, 0x1000));
    EXPECT_EQ(ms.stats().ulmtPrefetchesIssued, 1u);
}

TEST(PrefetchFilterFix, DisabledFilterStillCountsAdmits)
{
    mem::PrefetchFilter f(0);
    EXPECT_TRUE(f.admit(0x40));
    EXPECT_TRUE(f.admit(0x40));  // disabled: duplicates pass too
    EXPECT_EQ(f.admits(), 2u);   // previously stuck at 0
    EXPECT_EQ(f.drops(), 0u);
    EXPECT_EQ(f.size(), 0u);     // nothing is recorded
}

TEST(CacheFix, InsertResetsFillOriginOnReusedWay)
{
    mem::CacheGeometry geom{/*sizeBytes=*/1024, /*assoc=*/1,
                            /*lineBytes=*/64};
    mem::Cache c("t", geom);
    mem::Eviction ev;

    // First resident line gets a non-default origin, as the hierarchy
    // caches set after their inserts.
    mem::CacheLine *a = c.insert(0x0, 0, 0, ev);
    a->fillOrigin = sim::ServedBy::L2;

    // Reusing the way (same set: numSets*lineBytes apart) must not
    // leak the previous occupant's origin.
    mem::CacheLine *b = c.insert(0x400, 1, 1, ev);
    EXPECT_TRUE(ev.valid);
    EXPECT_EQ(b->fillOrigin, sim::ServedBy::Memory);

    CheckContext ctx;
    c.checkInvariants(ctx, sim::ServedBy::Memory);
    EXPECT_TRUE(ctx.ok()) << ctx.report("clean cache");
}

// ====================================================================
// Invariant catalog: every invariant fires on seeded corruption
// ====================================================================

TEST(FilterInvariants, CleanFilterPasses)
{
    mem::PrefetchFilter f(4);
    for (sim::Addr a = 0x40; a <= 0x200; a += 0x40)
        f.admit(a);
    CheckContext ctx;
    f.checkInvariants(ctx);
    EXPECT_TRUE(ctx.ok()) << ctx.report("clean filter");
}

TEST(FilterInvariants, FifoOverCapacityFires)
{
    mem::PrefetchFilter f(2);
    f.admit(0x40);
    f.admit(0x80);
    CheckTestPeer::fifoPushOnly(f, 0xc0);
    CheckTestPeer::presentBump(f, 0xc0);
    CheckContext ctx;
    f.checkInvariants(ctx);
    EXPECT_FALSE(ctx.ok());
}

TEST(FilterInvariants, FifoPresentDisagreementFires)
{
    mem::PrefetchFilter f(8);
    f.admit(0x40);
    CheckTestPeer::presentBump(f, 0x40);  // count 2, FIFO holds 1
    CheckContext ctx;
    f.checkInvariants(ctx);
    EXPECT_FALSE(ctx.ok());
}

TEST(FilterInvariants, OrphanedFifoEntryFires)
{
    mem::PrefetchFilter f(8);
    f.admit(0x40);
    CheckTestPeer::fifoPushOnly(f, 0x80);  // not in present_
    CheckContext ctx;
    f.checkInvariants(ctx);
    EXPECT_FALSE(ctx.ok());
}

TEST(FilterInvariants, ZeroCountFires)
{
    mem::PrefetchFilter f(8);
    f.admit(0x40);
    CheckTestPeer::presentZero(f, 0x80);
    CheckContext ctx;
    f.checkInvariants(ctx);
    EXPECT_FALSE(ctx.ok());
}

struct CacheInvariants : public ::testing::Test
{
    CacheInvariants() : c("t", mem::CacheGeometry{2048, 2, 64})
    {
        mem::Eviction ev;
        c.insert(0x0, 0, 0, ev);     // set 0, way 0
        c.insert(0x1000, 0, 0, ev);  // set 0, way 1 (16 sets * 64 B)
        c.insert(0x40, 0, 0, ev);    // set 1
    }

    mem::Cache c;
};

TEST_F(CacheInvariants, CleanCachePasses)
{
    CheckContext ctx;
    c.checkInvariants(ctx);
    EXPECT_TRUE(ctx.ok()) << ctx.report("clean cache");
}

TEST_F(CacheInvariants, DuplicateTagFires)
{
    CheckTestPeer::tag(c, 0, 1) = 0x0;  // same as way 0
    CheckContext ctx;
    c.checkInvariants(ctx);
    EXPECT_FALSE(ctx.ok());
}

TEST_F(CacheInvariants, WrongSetTagFires)
{
    CheckTestPeer::tag(c, 0, 0) = 0x40;  // maps to set 1
    CheckContext ctx;
    c.checkInvariants(ctx);
    EXPECT_FALSE(ctx.ok());
}

TEST_F(CacheInvariants, UnalignedTagFires)
{
    CheckTestPeer::tag(c, 0, 0) = 0x8;  // not line-aligned
    CheckContext ctx;
    c.checkInvariants(ctx);
    EXPECT_FALSE(ctx.ok());
}

TEST_F(CacheInvariants, StampAboveCounterFires)
{
    CheckTestPeer::stamp(c, 0, 0) = 1u << 20;
    CheckContext ctx;
    c.checkInvariants(ctx);
    EXPECT_FALSE(ctx.ok());
}

TEST_F(CacheInvariants, UnexpectedFillOriginFires)
{
    CheckTestPeer::line(c, 0, 0).fillOrigin = sim::ServedBy::L2;
    CheckContext ctx;
    c.checkInvariants(ctx, sim::ServedBy::Memory);
    EXPECT_FALSE(ctx.ok());
}

TEST_F(MemsysFixture, CleanQueuesPass)
{
    ms.fetchLine(0, 0x1000, sim::RequestKind::Demand);
    ms.fetchLine(0, 0x2000, sim::RequestKind::CpuPrefetch);
    ms.ulmtPrefetch(1, 0x3000);
    CheckContext ctx;
    ms.checkInvariants(ctx, eq.saveEvents());
    EXPECT_TRUE(ctx.ok()) << ctx.report("clean memsys");
}

TEST_F(MemsysFixture, GhostDemandEntryFires)
{
    CheckTestPeer::ghostDemand(ms, 0x40);  // no pending completion
    CheckContext ctx;
    ms.checkInvariants(ctx, eq.saveEvents());
    EXPECT_FALSE(ctx.ok());
}

TEST_F(MemsysFixture, GhostCpuPrefetchEntryFires)
{
    CheckTestPeer::ghostCpuPf(ms, 0x40);
    CheckContext ctx;
    ms.checkInvariants(ctx, eq.saveEvents());
    EXPECT_FALSE(ctx.ok());
}

TEST_F(MemsysFixture, OrphanedCompletionEventFires)
{
    ms.fetchLine(0, 0x1000, sim::RequestKind::Demand);
    ms.fetchLine(0, 0x2000, sim::RequestKind::CpuPrefetch);
    CheckTestPeer::dropQueue1(ms);  // events now have no map entries
    CheckContext ctx;
    ms.checkInvariants(ctx, eq.saveEvents());
    EXPECT_FALSE(ctx.ok());
}

TEST_F(MemsysFixture, Queue3OverDepthFires)
{
    for (std::uint32_t i = 0; i <= tp.queueDepth; ++i)
        CheckTestPeer::ghostPf(ms, 0x40 * (i + 1), 100);
    CheckContext ctx;
    ms.checkInvariants(ctx, eq.saveEvents());
    EXPECT_FALSE(ctx.ok());
}

TEST_F(MemsysFixture, PrefetchArrivalMismatchFires)
{
    ms.ulmtPrefetch(1, 0x3000);
    CheckTestPeer::ghostPf(ms, 0x3000, 1);  // wrong arrival cycle
    CheckContext ctx;
    ms.checkInvariants(ctx, eq.saveEvents());
    EXPECT_FALSE(ctx.ok());
}

struct PairTableInvariants : public ::testing::Test
{
    PairTableInvariants()
        : table(core::chainReplDefaults(64), 12), learner(table)
    {
        core::NullCostTracker cost;
        for (sim::Addr a = 0x40; a <= 0x40 * 200; a += 0x40)
            learner.learn(a, cost);
    }

    std::size_t
    firstValidRow()
    {
        return CheckTestPeer::firstValidRow(table);
    }

    core::PairTable table;
    core::PairLearner learner;
};

TEST_F(PairTableInvariants, CleanTablePasses)
{
    CheckContext ctx;
    table.checkInvariants(ctx, "table.test");
    EXPECT_TRUE(ctx.ok()) << ctx.report("clean table");
}

TEST_F(PairTableInvariants, SuccessorOverflowFires)
{
    CheckTestPeer::count(table, firstValidRow()) =
        table.params().numSucc + 1;
    CheckContext ctx;
    table.checkInvariants(ctx, "table.test");
    EXPECT_FALSE(ctx.ok());
}

TEST_F(PairTableInvariants, RepeatedSuccessorFires)
{
    // The same address twice.
    CheckTestPeer::setList(table, firstValidRow(), 0, {0xbeef00, 0xbeef00});
    CheckContext ctx;
    table.checkInvariants(ctx, "table.test");
    EXPECT_FALSE(ctx.ok());
}

TEST_F(PairTableInvariants, WrongSetTagFires)
{
    // Move a valid row's tag so it hashes into a different set.
    CheckTestPeer::tag(table, firstValidRow()) += 0x40;
    CheckContext ctx;
    table.checkInvariants(ctx, "table.test");
    EXPECT_FALSE(ctx.ok());
}

TEST_F(PairTableInvariants, StampAboveCounterFires)
{
    CheckTestPeer::stamp(table, firstValidRow()) = ~0ULL;
    CheckContext ctx;
    table.checkInvariants(ctx, "table.test");
    EXPECT_FALSE(ctx.ok());
}

struct ReplInvariants : public ::testing::Test
{
    ReplInvariants() : repl(core::chainReplDefaults(64))
    {
        core::NullCostTracker cost;
        for (sim::Addr a = 0x40; a <= 0x40 * 200; a += 0x40)
            repl.learnStep(a, cost);
    }

    core::CorrelationTable &table() { return CheckTestPeer::table(repl); }
    std::size_t
    firstValidRow()
    {
        return CheckTestPeer::firstValidRow(table());
    }

    core::ReplicatedPrefetcher repl;
};

TEST_F(ReplInvariants, CleanTablePasses)
{
    CheckContext ctx;
    repl.checkInvariants(ctx);
    EXPECT_TRUE(ctx.ok()) << ctx.report("clean repl");
}

TEST_F(ReplInvariants, LevelListOverflowFires)
{
    CheckTestPeer::count(table(), firstValidRow(), 0) =
        table().params().numSucc + 1;
    CheckContext ctx;
    repl.checkInvariants(ctx);
    EXPECT_FALSE(ctx.ok());
}

TEST_F(ReplInvariants, RepeatedLevelEntryFires)
{
    CheckTestPeer::setList(table(), firstValidRow(), 0, {0xbeef00, 0xbeef00});
    CheckContext ctx;
    repl.checkInvariants(ctx);
    EXPECT_FALSE(ctx.ok());
}

TEST_F(ReplInvariants, DanglingTrailingPointerFires)
{
    CheckTestPeer::danglePtr(repl);
    CheckContext ctx;
    repl.checkInvariants(ctx);
    EXPECT_FALSE(ctx.ok());
}

TEST(UlmtEngineInvariants, Queue2OverDepthFires)
{
    sim::EventQueue eq;
    mem::TimingParams tp;
    mem::MemorySystem ms(eq, tp);
    core::UlmtSpec spec;
    spec.algo = core::UlmtAlgo::Base;
    spec.numRows = 1024;
    core::UlmtEngine engine(eq, tp, ms, core::makeAlgorithm(spec));

    CheckContext clean;
    engine.checkInvariants(clean);
    EXPECT_TRUE(clean.ok()) << clean.report("clean engine");

    CheckTestPeer::stuffQueue2(engine, tp.queueDepth + 1);
    CheckContext ctx;
    engine.checkInvariants(ctx);
    EXPECT_FALSE(ctx.ok());
}

// ====================================================================
// Deep reference models
// ====================================================================

TEST(RefLruCache, TracksInsertsAccessesAndDetectsCorruption)
{
    mem::CacheGeometry geom{2048, 2, 64};  // 16 sets, 2 ways
    mem::Cache c("t", geom);
    check::RefLruCache ref(c, "t");
    c.setShadow(&ref);

    // A colliding access pattern: plenty of evictions and promotions.
    mem::Eviction ev;
    for (int i = 0; i < 500; ++i) {
        const sim::Addr addr = 0x40 * ((i * 7) % 97);
        if (mem::CacheLine *hit = c.access(addr))
            (void)hit;
        else
            c.insert(addr, i, i + 5, ev);
    }

    CheckContext ok_ctx;
    ref.diff(c, ok_ctx);
    EXPECT_TRUE(ok_ctx.ok()) << ok_ctx.report("lockstep cache");

    // Any divergence in the real structure must show in the diff.
    for (std::uint32_t set = 0; set < c.numSets(); ++set) {
        if (CheckTestPeer::valid(c, set, 0)) {
            CheckTestPeer::line(c, set, 0).readyAt += 1;
            break;
        }
    }
    CheckContext bad_ctx;
    ref.diff(c, bad_ctx);
    EXPECT_FALSE(bad_ctx.ok());
}

TEST(RefLruCache, ResyncRepairsAfterExternalMutation)
{
    mem::CacheGeometry geom{1024, 2, 64};
    mem::Cache c("t", geom);
    check::RefLruCache ref(c, "t");
    c.setShadow(&ref);

    mem::Eviction ev;
    for (int i = 0; i < 100; ++i)
        c.insert(0x40 * ((i * 11) % 53), i, i, ev);

    // invalidate() does notify; emulate a restore by detaching first.
    sim::Addr victim = sim::invalidAddr;
    c.forEachLine([&](const auto &e, const mem::CacheLine &) {
        if (victim == sim::invalidAddr)
            victim = e.tag;
    });
    ASSERT_NE(victim, sim::invalidAddr);
    c.setShadow(nullptr);
    c.invalidate(victim);
    c.setShadow(&ref);

    CheckContext stale;
    ref.diff(c, stale);
    EXPECT_FALSE(stale.ok());  // the model missed the mutation

    ref.resync(c);
    CheckContext fresh;
    ref.diff(c, fresh);
    EXPECT_TRUE(fresh.ok()) << fresh.report("after resync");
}

/** Feed one miss through an algorithm exactly as the engine does. */
template <typename Algo>
void
feedMiss(Algo &algo, check::RefPairTable &ref, sim::Addr miss)
{
    core::NullCostTracker cost;
    std::vector<sim::Addr> out;
    algo.prefetchStep(miss, out, cost);
    algo.learnStep(miss, cost);
    ref.observeMiss(miss);
}

TEST(RefPairTable, LockstepWithBase)
{
    core::BasePrefetcher base(core::baseDefaults(64));
    check::RefPairTable ref(base.table(), /*chain_levels=*/0);

    for (int i = 0; i < 2000; ++i)
        feedMiss(base, ref, 0x40 * ((i * 13) % 211));

    CheckContext ctx;
    ref.diff(base.table(), ctx);
    EXPECT_TRUE(ctx.ok()) << ctx.report("lockstep Base table");
}

TEST(RefPairTable, LockstepWithChain)
{
    core::ChainPrefetcher chain(core::chainReplDefaults(64));
    check::RefPairTable ref(chain.table(), chain.levels());

    for (int i = 0; i < 2000; ++i)
        feedMiss(chain, ref, 0x40 * ((i * 13) % 211));

    CheckContext ctx;
    ref.diff(chain.table(), ctx);
    EXPECT_TRUE(ctx.ok()) << ctx.report("lockstep Chain table");
}

TEST(RefPairTable, DetectsSuccessorDivergence)
{
    core::BasePrefetcher base(core::baseDefaults(64));
    check::RefPairTable ref(base.table(), 0);
    // A strided stream gives every tag a single fixed successor, so a
    // swap would have nothing to reorder; alternate A's successor
    // between B and C to grow a two-entry MRU list on A's row.
    const sim::Addr a = 0x40 * 3;
    const sim::Addr b = 0x40 * 50;
    const sim::Addr c = 0x40 * 90;
    for (int i = 0; i < 20; ++i) {
        feedMiss(base, ref, a);
        feedMiss(base, ref, (i % 2) ? b : c);
    }

    bool corrupted = false;
    base.table().forEachRow([&](const auto &row) {
        const auto succ = base.table().successors(core::RowIndex(row.index));
        if (!corrupted && succ.size() >= 2) {
            CheckTestPeer::setList(base.table(), row.index, 0,
                                   {succ[1], succ[0]});
            corrupted = true;
        }
    });
    ASSERT_TRUE(corrupted);
    CheckContext ctx;
    ref.diff(base.table(), ctx);
    EXPECT_FALSE(ctx.ok());
}

TEST(RefPairTable, ResyncRepairsAfterRemap)
{
    core::BasePrefetcher base(core::baseDefaults(64));
    check::RefPairTable ref(base.table(), 0);
    for (int i = 0; i < 500; ++i)
        feedMiss(base, ref, 0x40 * ((i * 13) % 211));

    core::NullCostTracker cost;
    base.onPageRemap(0x0, 0x100000, 4096, cost);

    ref.resync(base.table(), base.learner());
    CheckContext ctx;
    ref.diff(base.table(), ctx);
    EXPECT_TRUE(ctx.ok()) << ctx.report("after remap resync");
}

TEST(RefPairTable, ResyncDoesNotMaskCorruptionAfterRemap)
{
    // The remap-resync path re-adopts the real table as truth; a
    // corruption seeded AFTER the resync must still be caught, i.e.
    // the resynced model keeps diffing at full strength.
    core::BasePrefetcher base(core::baseDefaults(64));
    check::RefPairTable ref(base.table(), 0);
    const sim::Addr a = 0x40 * 3;
    const sim::Addr b = 0x40 * 50;
    const sim::Addr c = 0x40 * 90;
    for (int i = 0; i < 20; ++i) {
        feedMiss(base, ref, a);
        feedMiss(base, ref, (i % 2) ? b : c);
    }

    core::NullCostTracker cost;
    base.onPageRemap(0x0, 0x100000, 4096, cost);
    ref.resync(base.table(), base.learner());

    bool corrupted = false;
    base.table().forEachRow([&](const auto &row) {
        const auto succ = base.table().successors(core::RowIndex(row.index));
        if (!corrupted && succ.size() >= 2) {
            CheckTestPeer::setList(base.table(), row.index, 0,
                                   {succ[1], succ[0]});
            corrupted = true;
        }
    });
    ASSERT_TRUE(corrupted);
    CheckContext ctx;
    ref.diff(base.table(), ctx);
    EXPECT_FALSE(ctx.ok());
}

// ====================================================================
// End-to-end: the checker inside a full System run
// ====================================================================

driver::RunResult
runMstOnce(check::CheckMode mode)
{
    workloads::WorkloadParams wp;
    wp.scale = 0.002;
    auto wl = workloads::makeWorkload("MST", wp);

    driver::ExperimentOptions opt;
    opt.scale = wp.scale;
    driver::SystemConfig cfg =
        driver::ulmtConfig(opt, core::UlmtAlgo::Chain, "MST");
    cfg.ulmt.numRows = 4096;
    cfg.metricsInterval = 0;
    cfg.check.mode = mode;
    cfg.check.everyEvents = 512;

    driver::System sys(cfg, *wl);
    driver::RunResult r = sys.run();
    if (mode != check::CheckMode::Off) {
        EXPECT_NE(sys.checker(), nullptr);
        EXPECT_GT(sys.checker()->passes(), 0u);
        EXPECT_TRUE(sys.statRegistry().has("check.passes"));
    } else {
        EXPECT_EQ(sys.checker(), nullptr);
    }
    return r;
}

TEST(CheckerEndToEnd, DeepCheckingIsCleanAndPassive)
{
    const driver::RunResult off = runMstOnce(check::CheckMode::Off);
    const driver::RunResult deep = runMstOnce(check::CheckMode::Deep);
    // Checking must never perturb simulated behaviour.
    EXPECT_EQ(off.cycles, deep.cycles);
    EXPECT_EQ(off.eventsExecuted, deep.eventsExecuted);
}

driver::RunResult
runMstWithRemaps(check::CheckMode mode)
{
    workloads::WorkloadParams wp;
    wp.scale = 0.002;
    auto wl = workloads::makeWorkload("MST", wp);

    driver::ExperimentOptions opt;
    opt.scale = wp.scale;
    driver::SystemConfig cfg =
        driver::ulmtConfig(opt, core::UlmtAlgo::Chain, "MST");
    cfg.ulmt.numRows = 4096;
    cfg.metricsInterval = 0;
    cfg.check.mode = mode;
    cfg.check.everyEvents = 512;
    cfg.vm.enabled = true;
    cfg.vm.remapRate = 500.0;

    driver::System sys(cfg, *wl);
    return sys.run();
}

TEST(CheckerEndToEnd, DeepCheckingSurvivesPageRemaps)
{
    // Every remap fires the checker's resync hook; deep checking must
    // stay clean across the churn and remain passive (bit-identical
    // timing with checking off).
    const driver::RunResult off =
        runMstWithRemaps(check::CheckMode::Off);
    const driver::RunResult deep =
        runMstWithRemaps(check::CheckMode::Deep);
    EXPECT_GT(off.stats.counter("vm.remaps"), 0u);
    EXPECT_EQ(off.cycles, deep.cycles);
    EXPECT_EQ(off.eventsExecuted, deep.eventsExecuted);
    EXPECT_EQ(off.stats.counter("vm.remaps"),
              deep.stats.counter("vm.remaps"));
}

TEST(CheckerEndToEnd, RemapThenRestoreStaysLockstep)
{
    // Snapshot mid-churn, restore under deep checking, and run the
    // rest: the resynced reference models must track the restored
    // machine to a bit-identical final fingerprint.
    const std::string path = "test_check_remap.ulmtckp";
    workloads::WorkloadParams wp;
    wp.scale = 0.002;

    driver::ExperimentOptions opt;
    opt.scale = wp.scale;
    driver::SystemConfig cfg =
        driver::ulmtConfig(opt, core::UlmtAlgo::Chain, "MST");
    cfg.ulmt.numRows = 4096;
    cfg.metricsInterval = 0;
    cfg.check.mode = check::CheckMode::Deep;
    cfg.check.everyEvents = 512;
    cfg.vm.enabled = true;
    cfg.vm.remapRate = 500.0;

    driver::RunResult full;
    {
        auto wl = workloads::makeWorkload("MST", wp);
        driver::System sys(cfg, *wl);
        sys.setCheckpointMeta("MST", wp.seed, wp.scale);
        sys.setCheckpointTrigger("500", path);
        full = sys.run();
        ASSERT_GT(full.stats.value("ckpt.snapshot_bytes"), 0.0);
    }
    ASSERT_GT(full.stats.counter("vm.remaps"), 0u);

    auto wl = workloads::makeWorkload("MST", wp);
    driver::System sys(cfg, *wl);
    sys.restoreCheckpoint(path);
    const driver::RunResult resumed = sys.run();
    EXPECT_EQ(full.cycles, resumed.cycles);
    EXPECT_EQ(full.stats.counter("vm.remaps"),
              resumed.stats.counter("vm.remaps"));
    std::remove(path.c_str());
}

TEST(CheckerEndToEnd, EnvVarEnablesChecking)
{
    ::setenv("ULMT_CHECK", "1", 1);
    workloads::WorkloadParams wp;
    wp.scale = 0.001;
    auto wl = workloads::makeWorkload("MST", wp);
    driver::SystemConfig cfg;
    cfg.metricsInterval = 0;
    driver::System sys(cfg, *wl);
    ::unsetenv("ULMT_CHECK");
    EXPECT_NE(sys.checker(), nullptr);
}

TEST(CheckerEndToEnd, CorruptionAbortsTheRun)
{
    workloads::WorkloadParams wp;
    wp.scale = 0.002;
    auto wl = workloads::makeWorkload("MST", wp);
    driver::ExperimentOptions opt;
    opt.scale = wp.scale;
    driver::SystemConfig cfg =
        driver::ulmtConfig(opt, core::UlmtAlgo::Base, "MST");
    cfg.ulmt.numRows = 1024;
    cfg.metricsInterval = 0;
    cfg.check.mode = check::CheckMode::Basic;
    cfg.check.everyEvents = 64;

    driver::System sys(cfg, *wl);
    CheckTestPeer::ghostDemand(sys.memorySystem(), 0xdead0040);
    EXPECT_THROW(sys.run(), check::CheckError);
}

} // namespace
