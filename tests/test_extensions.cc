/**
 * @file
 * Tests for the extension modules: the conflict-aware wrapper
 * (Section 7 customization) and the hardware-correlation baseline.
 */

#include <gtest/gtest.h>

#include "core/conflict_aware.hh"
#include "core/replicated.hh"
#include "driver/experiment.hh"
#include "driver/hw_correlation.hh"

namespace {

core::NullCostTracker nc;

std::unique_ptr<core::ConflictAwarePrefetcher>
makeCa(double hot_factor = 2.0, std::uint32_t epoch = 256)
{
    return std::make_unique<core::ConflictAwarePrefetcher>(
        std::make_unique<core::ReplicatedPrefetcher>(
            core::chainReplDefaults(4096)),
        /*l2_sets=*/64, /*l2_line_bytes=*/64, hot_factor, epoch);
}

TEST(ConflictAware, PassesThroughWhenPressureIsEven)
{
    auto ca = makeCa();
    std::vector<sim::Addr> out;
    // Even pressure: a long repeating cycle over all sets.
    std::vector<sim::Addr> cycle;
    for (int i = 0; i < 256; ++i)
        cycle.push_back(0x10000 + ((i * 37) % 256) * 64);
    for (int rep = 0; rep < 8; ++rep) {
        for (sim::Addr m : cycle) {
            out.clear();
            ca->prefetchStep(m, out, nc);
            ca->learnStep(m, nc);
        }
    }
    EXPECT_EQ(ca->suppressed(), 0u);
}

TEST(ConflictAware, SuppressesPushesIntoHotSets)
{
    auto ca = makeCa();
    std::vector<sim::Addr> out;
    // All misses alias L2 set 0 (64 sets, line 64: stride 4096), in a
    // repeating sequence: set 0 is saturated and its prefetches must
    // be suppressed once pressure builds.
    std::vector<sim::Addr> cycle;
    for (int i = 0; i < 32; ++i)
        cycle.push_back(0x40000 + ((i * 11) % 32) * 4096);
    for (int rep = 0; rep < 40; ++rep) {
        for (sim::Addr m : cycle) {
            out.clear();
            ca->prefetchStep(m, out, nc);
            ca->learnStep(m, nc);
        }
    }
    EXPECT_GT(ca->suppressed(), 100u);
}

TEST(ConflictAware, NameAndDelegation)
{
    auto ca = makeCa();
    EXPECT_EQ(ca->name(), "Repl+CA");
    EXPECT_EQ(ca->levels(), 3u);
    // Learning still reaches the inner table.
    for (sim::Addr m : {0x1000u, 0x2000u, 0x3000u, 0x1000u, 0x2000u})
        ca->learnStep(m, nc);
    core::LevelPredictions preds;
    ca->predict(0x1000, preds);
    ASSERT_EQ(preds.size(), 3u);
    EXPECT_FALSE(preds[0].empty());
    EXPECT_EQ(preds[0].front(), 0x2000u);
    EXPECT_GT(ca->insertions(), 0u);
}

TEST(HwCorrelation, RoundsTableToPowerOfTwoBudget)
{
    sim::EventQueue eq;
    mem::TimingParams tp;
    mem::MemorySystem ms(eq, tp);
    driver::HwCorrelationEngine hw(ms, 1 << 20, /*replicated=*/false);
    // 1 MB / 20 B = 52428 rows -> 32768 rows -> 655,360 B table.
    EXPECT_EQ(hw.tableBytes(), 32768u * 20u);
    driver::HwCorrelationEngine hwr(ms, 1 << 20, /*replicated=*/true);
    EXPECT_EQ(hwr.tableBytes(), 32768u * 28u);
}

TEST(HwCorrelation, IssuesPrefetchesForLearnedPatterns)
{
    sim::EventQueue eq;
    mem::TimingParams tp;
    mem::MemorySystem ms(eq, tp);
    driver::HwCorrelationEngine hw(ms, 1 << 20);
    for (int rep = 0; rep < 2; ++rep) {
        hw.observeMiss(eq.now(), 0x1000);
        hw.observeMiss(eq.now(), 0x2000);
        hw.observeMiss(eq.now(), 0x3000);
        eq.run();
    }
    EXPECT_GT(ms.stats().ulmtPrefetchesIssued, 0u);
}

TEST(HwCorrelation, EndToEndSpeedsUpMcf)
{
    driver::ExperimentOptions opt;
    opt.scale = 0.1;
    const driver::RunResult base =
        driver::runOne("Mcf", driver::noPrefConfig(opt), opt);
    driver::SystemConfig cfg = driver::noPrefConfig(opt);
    cfg.hwCorrSramBytes = 4 << 20;
    cfg.hwCorrReplicated = true;
    cfg.label = "HW";
    const driver::RunResult hw = driver::runOne("Mcf", cfg, opt);
    EXPECT_GT(hw.speedup(base), 1.05);
    // The hardware engine classifies through the same push counters.
    EXPECT_GT(hw.stats.counter("l2.push.hits") +
                  hw.stats.counter("l2.push.delayed_hits"),
              0u);
}

TEST(HwCorrelation, UlmtIsCompetitiveWithSmallSram)
{
    // On a big-footprint app, a 256 KB SRAM table cripples the
    // hardware engine while the ULMT sizes its memory table freely.
    driver::ExperimentOptions opt;
    opt.scale = 0.2;
    const driver::RunResult base =
        driver::runOne("Gap", driver::noPrefConfig(opt), opt);
    driver::SystemConfig hw_cfg = driver::noPrefConfig(opt);
    hw_cfg.hwCorrSramBytes = 64 << 10;
    hw_cfg.hwCorrReplicated = true;
    hw_cfg.label = "HW-64KB";
    const driver::RunResult hw = driver::runOne("Gap", hw_cfg, opt);
    const driver::RunResult ulmt = driver::runOne(
        "Gap", driver::ulmtConfig(opt, core::UlmtAlgo::Repl, "Gap"),
        opt);
    const auto covered = [](const driver::RunResult &r) {
        return r.stats.counter("l2.push.hits") +
               r.stats.counter("l2.push.delayed_hits");
    };
    EXPECT_GE(covered(ulmt), covered(hw));
}

} // namespace
