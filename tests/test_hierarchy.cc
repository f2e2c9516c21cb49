/**
 * @file
 * Tests for the cache hierarchy: hit/miss latencies, MSHR behaviour,
 * the four push-prefetch drop rules of Section 2.1, delayed hits, and
 * the Figure 9 classification counters.
 */

#include <gtest/gtest.h>

#include "cpu/hierarchy.hh"

namespace {

struct Fixture : public ::testing::Test
{
    Fixture() : ms(eq, tp), hier(eq, tp, ms, /*stream_pf=*/false)
    {
        ms.setPushCallback([this](sim::Cycle when, sim::Addr line, unsigned) {
            hier.acceptPush(when, line);
        });
    }

    /** Run the event queue so background completions land. */
    void drain() { eq.run(); }

    sim::EventQueue eq;
    mem::TimingParams tp;
    mem::MemorySystem ms;
    cpu::Hierarchy hier;
};

TEST_F(Fixture, L1HitLatency)
{
    hier.access(0, 0x1000, false);          // cold miss
    drain();
    const sim::Cycle t = eq.now() + 100;
    auto out = hier.access(t, 0x1010, false);  // same L1 line
    EXPECT_EQ(out.complete, t + tp.l1HitRt);
    EXPECT_EQ(out.served, sim::ServedBy::L1);
}

TEST_F(Fixture, L2HitLatency)
{
    hier.access(0, 0x1000, false);
    drain();
    const sim::Cycle t = eq.now() + 100;
    // Different L1 line, same L2 line (L1 32 B, L2 64 B).
    auto out = hier.access(t, 0x1020, false);
    EXPECT_EQ(out.complete, t + tp.l2HitRt);
    EXPECT_EQ(out.served, sim::ServedBy::L2);
}

TEST_F(Fixture, MemoryMissLatency)
{
    auto out = hier.access(0, 0x1000, false);
    EXPECT_EQ(out.complete, tp.memRowMissRt());
    EXPECT_EQ(out.served, sim::ServedBy::Memory);
    EXPECT_EQ(hier.stats().nonPrefMisses, 1u);
}

TEST_F(Fixture, MshrMergeOnPendingLine)
{
    auto first = hier.access(0, 0x1000, false);
    // Second access to the same L2 line while in flight merges.
    auto second = hier.access(5, 0x1040 - 0x20, false);
    EXPECT_EQ(second.complete, first.complete);
    EXPECT_EQ(hier.stats().l2MshrMerges, 1u);
    // Only one memory fetch happened.
    EXPECT_EQ(ms.stats().demandFetches, 1u);
}

TEST_F(Fixture, PushInstallsAndDemandHits)
{
    hier.acceptPush(100, 0x2000);
    EXPECT_EQ(hier.stats().pushInstalled, 1u);
    auto out = hier.access(200, 0x2000, false);
    EXPECT_EQ(out.complete, 200 + tp.l2HitRt);
    EXPECT_EQ(hier.stats().ulmtHits, 1u);
    // The flag is consumed: a second access is a plain L2 hit.
    hier.access(300, 0x2020, false);
    EXPECT_EQ(hier.stats().ulmtHits, 1u);
}

TEST_F(Fixture, PushDropRulePresent)
{
    hier.access(0, 0x2000, false);
    drain();
    hier.acceptPush(eq.now(), 0x2000);
    EXPECT_EQ(hier.stats().pushRedundantPresent, 1u);
    EXPECT_EQ(hier.stats().pushInstalled, 0u);
}

TEST_F(Fixture, PushDropRuleWritebackQueue)
{
    // Dirty an L1 line, push it down to the L2 (making the L2 copy
    // dirty), then force the L2 eviction: the line enters the write-
    // back queue and a push for it must be dropped.
    hier.access(0, 0x2000, true);
    drain();
    // L1: 2-way, 256 sets, 32 B lines -> same-set stride 8 KB.
    hier.access(eq.now(), 0x2000 + 8 * 1024, false);
    drain();
    hier.access(eq.now(), 0x2000 + 16 * 1024, false);
    drain();
    const mem::CacheLine *l2line = hier.l2().find(0x2000);
    ASSERT_NE(l2line, nullptr);
    ASSERT_TRUE(l2line->dirty);
    // L2: 4-way, 2048 sets, 64 B lines -> same-set stride 128 KB.
    const sim::Addr stride = 64 * 2048;
    const sim::Cycle t = eq.now();
    for (int i = 1; i <= 4; ++i)
        hier.access(t, 0x2000 + i * stride, false);
    ASSERT_EQ(hier.l2().find(0x2000), nullptr);  // evicted
    // The write-back is still draining when the push arrives.
    hier.acceptPush(t + 1, 0x2000);
    EXPECT_EQ(hier.stats().pushRedundantWb, 1u);
}

TEST_F(Fixture, PushDropRuleMshrsFull)
{
    // Fill all MSHRs with distinct outstanding misses.
    for (std::uint32_t i = 0; i < tp.l2Mshrs; ++i)
        hier.access(0, 0x100000 + i * 64, false);
    hier.acceptPush(1, 0x2000);
    EXPECT_EQ(hier.stats().pushDroppedMshrFull, 1u);
    // Once the fills complete, pushes are accepted again.
    drain();
    hier.acceptPush(eq.now() + 1, 0x2000);
    EXPECT_EQ(hier.stats().pushInstalled, 1u);
}

TEST_F(Fixture, PushDropRuleSetPending)
{
    // Fill one L2 set with 4 in-flight lines.
    const sim::Addr stride = 64 * 2048;
    for (int i = 0; i < 4; ++i)
        hier.access(0, 0x4000 + i * stride, false);
    hier.acceptPush(5, 0x4000 + 4 * stride);
    EXPECT_EQ(hier.stats().pushDroppedSetPending, 1u);
}

TEST_F(Fixture, DelayedHitClaimsInflightPrefetch)
{
    ASSERT_TRUE(ms.ulmtPrefetch(0, 0x3000));
    const sim::Cycle arrival = ms.inflightPrefetchArrival(0x3000);
    ASSERT_NE(arrival, sim::neverCycle);
    // Demand miss while the prefetch is in flight.
    auto out = hier.access(10, 0x3000, false);
    EXPECT_EQ(out.complete, std::max<sim::Cycle>(10 + tp.l2HitRt,
                                                 arrival));
    EXPECT_EQ(hier.stats().ulmtDelayedHits, 1u);
    EXPECT_EQ(hier.stats().nonPrefMisses, 0u);
    EXPECT_GT(hier.stats().delayedHitSavedCycles, 0u);
    // No extra demand fetch went to memory.
    EXPECT_EQ(ms.stats().demandFetches, 0u);
    // The push arrival must not double-install or count as redundant.
    drain();
    EXPECT_EQ(hier.stats().pushInstalled, 0u);
    const cpu::HierarchyStats &s = hier.stats();
    EXPECT_EQ(s.pushRedundantPresent + s.pushRedundantWb +
                  s.pushDroppedMshrFull + s.pushDroppedSetPending,
              0u);
}

TEST_F(Fixture, ReplacedCounterTracksUnusedPushes)
{
    hier.acceptPush(0, 0x5000);
    // Evict it with demand traffic to the same set before any use.
    const sim::Addr stride = 64 * 2048;
    for (int i = 1; i <= 4; ++i)
        hier.access(eq.now(), 0x5000 + i * stride, false);
    drain();
    EXPECT_EQ(hier.stats().ulmtReplaced, 1u);
}

TEST_F(Fixture, MissGapHistogramFills)
{
    hier.access(0, 0x6000, false);
    drain();
    hier.access(eq.now() + 250, 0x7000, false);
    drain();
    hier.access(eq.now() + 300, 0x8000, false);
    EXPECT_EQ(hier.missGapHistogram().total(), 2u);
}

TEST_F(Fixture, WriteAllocatesAndDirties)
{
    hier.access(0, 0x9000, true);
    drain();
    const mem::CacheLine *l1 = hier.l1().find(0x9000);
    ASSERT_NE(l1, nullptr);
    EXPECT_TRUE(l1->dirty);
}

TEST_F(Fixture, DemandMissObserverHook)
{
    std::vector<sim::Addr> seen;
    hier.onDemandL2Miss = [&](sim::Cycle, sim::Addr line) {
        seen.push_back(line);
    };
    hier.access(0, 0xA000, false);
    hier.access(1, 0xA010, false);  // L1 miss, pending L2 merge: miss?
    ASSERT_GE(seen.size(), 1u);
    EXPECT_EQ(seen[0], 0xA000u);
}

TEST(HierarchyStreamPf, StreamPrefetcherCoversSequentialMisses)
{
    sim::EventQueue eq;
    mem::TimingParams tp;
    mem::MemorySystem ms(eq, tp);
    cpu::Hierarchy hier(eq, tp, ms, /*stream_pf=*/true);
    ms.setPushCallback([&](sim::Cycle when, sim::Addr line, unsigned) {
        hier.acceptPush(when, line);
    });

    // Walk sequentially; after detection the prefetcher should turn
    // most L2 misses into prefetch hits.
    sim::Cycle t = 0;
    for (int i = 0; i < 512; ++i) {
        hier.access(t, 0x100000 + i * 32, false);
        t += 60;
        eq.run();
    }
    EXPECT_GT(hier.stats().cpuPfIssued, 100u);
    EXPECT_GT(hier.stats().cpuPfUseful, 100u);
    // Sequential misses mostly intercepted.
    EXPECT_LT(hier.stats().nonPrefMisses, 200u);
}

} // namespace
