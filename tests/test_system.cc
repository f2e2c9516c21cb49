/**
 * @file
 * Integration tests: whole-system runs at reduced scale across every
 * application and the main prefetching configurations, checking the
 * paper's structural invariants rather than absolute numbers.
 */

#include <gtest/gtest.h>

#include "driver/experiment.hh"
#include "driver/report.hh"

namespace {

/** Counter @p name of run @p r. */
std::uint64_t
n(const driver::RunResult &r, const std::string &name)
{
    return r.stats.counter(name);
}

driver::ExperimentOptions
opts(double scale = 0.05)
{
    driver::ExperimentOptions o;
    o.scale = scale;
    return o;
}

class EveryAppSystem : public ::testing::TestWithParam<std::string>
{
};

TEST_P(EveryAppSystem, NoPrefRunCompletesAndBalances)
{
    const auto o = opts();
    const driver::RunResult r =
        driver::runOne(GetParam(), driver::noPrefConfig(o), o);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.records, 0u);
    // The time decomposition covers the whole run.
    EXPECT_EQ(n(r, "proc.busy_cycles") + n(r, "proc.stall.upto_l2") +
                  n(r, "proc.stall.beyond_l2"),
              r.cycles);
    // Without a ULMT there are no pushes or ULMT hits.
    EXPECT_EQ(n(r, "l2.push.installed"), 0u);
    EXPECT_EQ(n(r, "l2.push.hits"), 0u);
    EXPECT_EQ(n(r, "l2.push.non_pref_misses"), n(r, "l2.misses"));
}

TEST_P(EveryAppSystem, RunsAreDeterministic)
{
    const auto o = opts();
    const driver::SystemConfig cfg =
        driver::conven4PlusUlmtConfig(o, core::UlmtAlgo::Repl,
                                      GetParam());
    const driver::RunResult a = driver::runOne(GetParam(), cfg, o);
    const driver::RunResult b = driver::runOne(GetParam(), cfg, o);
    EXPECT_EQ(a.cycles, b.cycles);
    for (const char *name :
         {"l2.misses", "ulmt.misses_processed", "memsys.queue3.issued"})
        EXPECT_EQ(n(a, name), n(b, name)) << name;
}

TEST_P(EveryAppSystem, ReplClassificationIsConsistent)
{
    const auto o = opts();
    const driver::RunResult r = driver::runOne(
        GetParam(), driver::ulmtConfig(o, core::UlmtAlgo::Repl,
                                       GetParam()),
        o);
    // Every demand L2 miss is either a delayed hit or a full miss.
    EXPECT_EQ(n(r, "l2.misses"), n(r, "l2.push.delayed_hits") +
                                     n(r, "l2.push.non_pref_misses"));
    // Pushed lines are conserved: every issued prefetch either
    // installs or is dropped as redundant (delayed-hit claims consume
    // the rest; a single in-flight prefetch can serve several misses).
    EXPECT_LE(n(r, "l2.push.installed") + driver::pushRedundant(r),
              n(r, "memsys.queue3.issued"));
    // The ULMT observed exactly the demand fetches (non-verbose).
    EXPECT_EQ(n(r, "ulmt.misses_observed"), n(r, "memsys.demand_fetches"));
}

INSTANTIATE_TEST_SUITE_P(
    Apps, EveryAppSystem,
    ::testing::ValuesIn(workloads::applicationNames()),
    [](const auto &info) { return info.param; });

TEST(System, UlmtPrefetchingReducesFullLatencyMisses)
{
    // Mcf's dependent chain repeats: Repl must convert a substantial
    // share of full misses into hits or delayed hits.
    const auto o = opts(0.1);
    const driver::RunResult base =
        driver::runOne("Mcf", driver::noPrefConfig(o), o);
    const driver::RunResult repl = driver::runOne(
        "Mcf", driver::ulmtConfig(o, core::UlmtAlgo::Repl, "Mcf"), o);
    EXPECT_LT(n(repl, "l2.push.non_pref_misses"), n(base, "l2.misses"));
    EXPECT_GT(n(repl, "l2.push.hits") + n(repl, "l2.push.delayed_hits"),
              n(base, "l2.misses") / 10);
    EXPECT_GT(repl.speedup(base), 1.0);
}

TEST(System, ReplBeatsBaseOnDeepChains)
{
    // Needs enough rounds for the deep-level tables to warm up.
    const auto o = opts(0.3);
    const driver::RunResult base_run = driver::runOne(
        "MST", driver::ulmtConfig(o, core::UlmtAlgo::Base, "MST"), o);
    const driver::RunResult repl_run = driver::runOne(
        "MST", driver::ulmtConfig(o, core::UlmtAlgo::Repl, "MST"), o);
    EXPECT_LT(repl_run.cycles, base_run.cycles);
}

TEST(System, NorthBridgePlacementCostsLittle)
{
    driver::ExperimentOptions o = opts(0.1);
    const driver::RunResult base =
        driver::runOne("Mcf", driver::noPrefConfig(o), o);
    const driver::RunResult in_dram = driver::runOne(
        "Mcf", driver::conven4PlusUlmtConfig(o, core::UlmtAlgo::Repl,
                                             "Mcf"),
        o);
    driver::ExperimentOptions nb = o;
    nb.placement = mem::MemProcPlacement::NorthBridge;
    const driver::RunResult in_nb = driver::runOne(
        "Mcf", driver::conven4PlusUlmtConfig(nb, core::UlmtAlgo::Repl,
                                             "Mcf"),
        nb);
    // Figure 8's shape: the North Bridge placement loses only a
    // little of the in-DRAM speedup.
    EXPECT_GT(in_nb.speedup(base), 1.0);
    EXPECT_GT(in_nb.speedup(base), 0.8 * in_dram.speedup(base));
}

TEST(System, VerboseModeObservesMore)
{
    const auto o = opts();
    driver::SystemConfig quiet =
        driver::conven4PlusUlmtConfig(o, core::UlmtAlgo::Repl, "CG");
    driver::SystemConfig verbose = quiet;
    verbose.ulmt.verbose = true;
    const driver::RunResult q = driver::runOne("CG", quiet, o);
    const driver::RunResult v = driver::runOne("CG", verbose, o);
    EXPECT_GE(n(v, "ulmt.misses_observed"), n(q, "ulmt.misses_observed"));
}

TEST(System, MissStreamCaptureMatchesMissCount)
{
    const auto o = opts();
    driver::SystemConfig cfg = driver::noPrefConfig(o);
    cfg.recordMissStream = true;
    const driver::RunResult r = driver::runOne("Gap", cfg, o);
    EXPECT_EQ(r.missStream.size(), n(r, "l2.misses"));
    for (sim::Addr a : r.missStream)
        EXPECT_EQ(a % 64, 0u);  // L2-line aligned
}

TEST(System, BusUtilizationBounded)
{
    const auto o = opts();
    const driver::RunResult r = driver::runOne(
        "Equake",
        driver::conven4PlusUlmtConfig(o, core::UlmtAlgo::Repl,
                                      "Equake"),
        o);
    EXPECT_GT(r.busUtilization(), 0.0);
    EXPECT_GE(r.busUtilization(), r.busUtilizationPrefetch());
}

TEST(System, PageRemapIsSurvivable)
{
    const auto o = opts();
    workloads::WorkloadParams wp;
    wp.scale = o.scale;
    auto wl = workloads::makeWorkload("Mcf", wp);
    driver::SystemConfig cfg =
        driver::ulmtConfig(o, core::UlmtAlgo::Repl, "Mcf");
    driver::System sys(cfg, *wl);
    sys.pageRemap(0x10000 / 4096, 0x90000 / 4096, 4096);
    const driver::RunResult r = sys.run();
    EXPECT_GT(r.cycles, 0u);
}

} // namespace
