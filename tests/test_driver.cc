/**
 * @file
 * Tests for the driver layer: configuration builders (incl. the Table
 * 5 customizations), the machine-flag parser shared by every CLI, the
 * algorithm factory, report formatting, and the profiling ULMT.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/factory.hh"
#include "core/profiler.hh"
#include "driver/experiment.hh"
#include "driver/report.hh"

namespace {

TEST(Factory, NamesRoundTrip)
{
    for (core::UlmtAlgo a :
         {core::UlmtAlgo::Base, core::UlmtAlgo::Chain,
          core::UlmtAlgo::Repl, core::UlmtAlgo::Seq1,
          core::UlmtAlgo::Seq4, core::UlmtAlgo::Seq4Base,
          core::UlmtAlgo::Seq4Repl, core::UlmtAlgo::Seq1Repl,
          core::UlmtAlgo::Profile}) {
        EXPECT_EQ(core::parseUlmtAlgo(core::to_string(a)), a);
        core::UlmtSpec spec;
        spec.algo = a;
        spec.numRows = 1024;
        auto algo = core::makeAlgorithm(spec);
        ASSERT_NE(algo, nullptr) << core::to_string(a);
        EXPECT_EQ(algo->name(), core::to_string(a));
    }
    core::UlmtSpec none;
    none.algo = core::UlmtAlgo::None;
    EXPECT_EQ(core::makeAlgorithm(none), nullptr);
}

TEST(Factory, Table4Defaults)
{
    core::CorrelationParams base = core::baseDefaults(64 * 1024);
    EXPECT_EQ(base.numSucc, 4u);
    EXPECT_EQ(base.assoc, 4u);
    core::CorrelationParams cr = core::chainReplDefaults(64 * 1024);
    EXPECT_EQ(cr.numSucc, 2u);
    EXPECT_EQ(cr.assoc, 2u);
    EXPECT_EQ(cr.numLevels, 3u);
}

TEST(Experiment, Table5Customizations)
{
    driver::ExperimentOptions o;
    bool customized = false;

    // CG: Seq1+Repl in Verbose mode, Conven4 on.
    driver::SystemConfig cg = driver::customConfig(o, "CG", customized);
    EXPECT_TRUE(customized);
    EXPECT_TRUE(cg.conven4);
    EXPECT_TRUE(cg.ulmt.verbose);
    EXPECT_EQ(cg.ulmt.algo, core::UlmtAlgo::Seq1Repl);

    // MST and Mcf: Repl with NumLevels = 4.
    for (const char *app : {"MST", "Mcf"}) {
        driver::SystemConfig c =
            driver::customConfig(o, app, customized);
        EXPECT_TRUE(customized) << app;
        EXPECT_EQ(c.ulmt.algo, core::UlmtAlgo::Repl);
        EXPECT_EQ(c.ulmt.numLevels, 4u);
        EXPECT_FALSE(c.ulmt.verbose);
    }

    // Everyone else: plain Conven4+Repl.
    driver::SystemConfig other =
        driver::customConfig(o, "Gap", customized);
    EXPECT_FALSE(customized);
    EXPECT_EQ(other.ulmt.algo, core::UlmtAlgo::Repl);
    EXPECT_EQ(other.ulmt.numLevels, 3u);
}

TEST(Experiment, ConfigBuilders)
{
    driver::ExperimentOptions o;
    EXPECT_EQ(driver::noPrefConfig(o).label, "NoPref");
    EXPECT_FALSE(driver::noPrefConfig(o).conven4);
    EXPECT_TRUE(driver::conven4Config(o).conven4);
    const driver::SystemConfig u =
        driver::ulmtConfig(o, core::UlmtAlgo::Chain, "Mcf");
    EXPECT_EQ(u.label, "Chain");
    EXPECT_EQ(u.ulmt.numRows, workloads::tableNumRows("Mcf"));
    const driver::SystemConfig c = driver::conven4PlusUlmtConfig(
        o, core::UlmtAlgo::Repl, "Tree");
    EXPECT_EQ(c.label, "Conven4+Repl");
    EXPECT_TRUE(c.conven4);
    EXPECT_EQ(c.ulmt.numRows, 8u * 1024u);
}

/** The configuration fingerprint of @p flags applied to the default
 *  machine, as the benches build it (a Repl config on MST). */
std::uint64_t
flagFingerprint(const std::vector<std::string> &flags)
{
    driver::ExperimentOptions o;
    o.scale = 0.01;
    for (const std::string &f : flags)
        EXPECT_TRUE(driver::parseMachineFlag(f, o.machine)) << f;
    const driver::SystemConfig cfg =
        driver::ulmtConfig(o, core::UlmtAlgo::Repl, "MST");
    workloads::WorkloadParams wp;
    wp.scale = o.scale;
    auto wl = workloads::makeWorkload("MST", wp);
    return driver::System(cfg, *wl).configFingerprint();
}

TEST(MachineFlags, DocumentedOffStatesKeepTheFlaglessMachine)
{
    const std::uint64_t flagless = flagFingerprint({});
    const std::vector<std::vector<std::string>> off = {
        {"--cores=1"},
        {"--ulmt-mode=shared"},
        {"--vm=off"},
        {"--page-size=4k"},
        {"--remap-rate=0"},
        {"--table-cache=0"},
        {"--audit=on"},
        {"--cores=1", "--ulmt-mode=shared", "--vm=off", "--page-size=4k",
         "--remap-rate=0", "--table-cache=0", "--audit=on"},
    };
    for (const auto &flags : off)
        EXPECT_EQ(flagFingerprint(flags), flagless) << flags[0];
    EXPECT_NE(flagFingerprint({"--table-cache=1024"}), flagless);
    EXPECT_NE(flagFingerprint({"--vm=on"}), flagless);
}

/** One machine flag and what it must set. */
struct FlagCase
{
    const char *arg;
    bool (*holds)(const driver::SystemConfig &);
};
const FlagCase flagCases[] = {
    {"--cores=4", [](const driver::SystemConfig &c) {
         return c.cores == 4;
     }},
    {"--ulmt-mode=sharded", [](const driver::SystemConfig &c) {
         return c.ulmtMode == core::UlmtMode::Sharded;
     }},
    {"--vm=on", [](const driver::SystemConfig &c) {
         return c.vm.enabled;
     }},
    {"--page-size=2m", [](const driver::SystemConfig &c) {
         return c.vm.pageBytes == 2u << 20;
     }},
    {"--remap-rate=12.5", [](const driver::SystemConfig &c) {
         return c.vm.remapRate == 12.5;
     }},
    {"--table-cache=1024,8", [](const driver::SystemConfig &c) {
         return c.tableCache.entries == 1024 &&
                c.tableCache.assoc == 8;
     }},
    {"--table-cache=256", [](const driver::SystemConfig &c) {
         return c.tableCache.entries == 256 &&
                c.tableCache.assoc == 4;
     }},
    {"--audit=off", [](const driver::SystemConfig &c) {
         return !c.audit;
     }},
    {"--check", [](const driver::SystemConfig &c) {
         return c.check.mode == check::CheckMode::Basic;
     }},
    {"--check=basic", [](const driver::SystemConfig &c) {
         return c.check.mode == check::CheckMode::Basic;
     }},
    {"--check=deep", [](const driver::SystemConfig &c) {
         return c.check.mode == check::CheckMode::Deep;
     }},
    {"--check-interval=512", [](const driver::SystemConfig &c) {
         return c.check.everyEvents == 512;
     }},
    {"--metrics-interval=0", [](const driver::SystemConfig &c) {
         return c.metricsInterval == 0;
     }},
};

TEST(MachineFlags, EveryFlagSetsItsField)
{
    for (const FlagCase &c : flagCases) {
        driver::SystemConfig cfg;
        ASSERT_TRUE(driver::parseMachineFlag(c.arg, cfg)) << c.arg;
        EXPECT_TRUE(c.holds(cfg)) << c.arg;
    }
}

/** The configuration fingerprint of a Repl machine @p machine on MST. */
std::uint64_t
machineFingerprint(const driver::SystemConfig &machine)
{
    driver::ExperimentOptions o;
    o.machine = machine;
    const driver::SystemConfig cfg =
        driver::ulmtConfig(o, core::UlmtAlgo::Repl, "MST");
    auto ws = driver::makeCoreWorkloads("MST", o.seed, 0.01, cfg.cores);
    const std::string name = ws[0]->name();
    return driver::System(cfg, std::move(ws), name).configFingerprint();
}

TEST(MachineFlags, PrintedFlagsReadBackToTheSameMachine)
{
    EXPECT_TRUE(driver::machineFlags(driver::SystemConfig{}).empty());

    std::vector<driver::SystemConfig> machines;
    for (const FlagCase &c : flagCases) {
        machines.emplace_back();
        ASSERT_TRUE(driver::parseMachineFlag(c.arg, machines.back()));
    }
    // Machines like the fuzzer's, and vm_churn's 2 MB rates (100 and
    // 500 remaps per 4 KB-equivalent: 100 * 4096 / 2097152), which a
    // six-digit printer would round.
    driver::SystemConfig fuzzed;
    fuzzed.cores = 4;
    fuzzed.ulmtMode = core::UlmtMode::Sharded;
    fuzzed.tableCache = {4096, 8};
    fuzzed.vm.enabled = true;
    fuzzed.vm.remapRate = 20;
    fuzzed.metricsInterval = 0;
    machines.push_back(fuzzed);
    fuzzed.cores = 2;
    fuzzed.ulmtMode = core::UlmtMode::PerCore;
    fuzzed.tableCache = {0, 8};
    fuzzed.vm.pageBytes = 2u << 20;
    fuzzed.audit = false;
    fuzzed.check = {check::CheckMode::Deep, 1024};
    for (double rate : {100.0 * 4096 / 2097152, 500.0 * 4096 / 2097152}) {
        fuzzed.vm.remapRate = rate;
        machines.push_back(fuzzed);
    }

    for (const driver::SystemConfig &m : machines) {
        const std::vector<std::string> flags = driver::machineFlags(m);
        std::string text;
        driver::SystemConfig back;
        for (const std::string &f : flags) {
            text += f + " ";
            ASSERT_TRUE(driver::parseMachineFlag(f, back)) << f;
        }
        EXPECT_FALSE(flags.empty());
        EXPECT_EQ(machineFingerprint(back), machineFingerprint(m)) << text;
        EXPECT_EQ(back.vm.remapRate, m.vm.remapRate) << text;
        EXPECT_EQ(back.audit, m.audit) << text;
        EXPECT_EQ(back.check.mode, m.check.mode) << text;
        EXPECT_EQ(back.check.everyEvents, m.check.everyEvents) << text;
        EXPECT_EQ(back.metricsInterval, m.metricsInterval) << text;
    }
}

TEST(MachineFlags, BadValuesThrowNamingTheFlag)
{
    const std::vector<std::string> bad = {
        "--cores=0", "--cores=abc", "--cores=", "--cores", "--cores=65",
        "--cores=2x", "--ulmt-mode=bogus", "--ulmt-mode=",
        "--vm=garbage", "--vm", "--vm=", "--page-size=8k",
        "--page-size=", "--remap-rate=-5", "--remap-rate=abc",
        "--remap-rate=", "--remap-rate=nan", "--remap-rate=2e6",
        "--table-cache=abc", "--table-cache=-1", "--table-cache=100,8",
        "--table-cache=1024,0", "--table-cache=1024,65",
        "--table-cache=1024,", "--table-cache=2097152",
        "--table-cache=", "--audit=maybe", "--audit", "--check=full",
        "--check=", "--check-interval=0", "--check-interval=x",
        "--metrics-interval=-1", "--metrics-interval=1k",
        "--metrics-interval="};
    for (const std::string &arg : bad) {
        driver::SystemConfig cfg;
        const std::string flag = arg.substr(0, arg.find('='));
        try {
            driver::parseMachineFlag(arg, cfg);
            ADD_FAILURE() << arg << " was accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(flag), std::string::npos)
                << arg << ": " << e.what();
        }
    }
}

TEST(MachineFlags, ForeignArgumentsAreNotOwned)
{
    for (const char *arg :
         {"--jobs=2", "--apps=MST", "--scale=0.5", "--core=3",
          "--coresx=2", "--checkpoint-at=200", "--audits=on", "0.5"}) {
        driver::SystemConfig cfg;
        EXPECT_FALSE(driver::parseMachineFlag(arg, cfg)) << arg;
    }
}

TEST(MachineFlags, ScaleAndSeedParseWholeStrings)
{
    EXPECT_EQ(driver::parseScale("0.25"), 0.25);
    EXPECT_EQ(driver::parseSeed("42"), 42u);
    EXPECT_EQ(driver::parseSeed("0xA11CE"), 0xA11CEu);
    for (const char *s : {"abc", "-1", "0", "nan", "inf", "0.5x", ""})
        EXPECT_THROW(driver::parseScale(s), std::invalid_argument) << s;
    for (const char *s : {"xyz", "-1", "12ab", "", "99999999999999999999"})
        EXPECT_THROW(driver::parseSeed(s), std::invalid_argument) << s;
}

TEST(Report, TextTableAligns)
{
    driver::TextTable t({"A", "LongHeader"});
    t.addRow({"xx", "1"});
    t.addRow({"y", "22"});
    const std::string s = t.render();
    EXPECT_NE(s.find("A   LongHeader"), std::string::npos);
    EXPECT_NE(s.find("xx  1"), std::string::npos);
    EXPECT_NE(s.find("y   22"), std::string::npos);
}

TEST(Report, Formatting)
{
    EXPECT_EQ(driver::fmt(1.2345), "1.23");
    EXPECT_EQ(driver::fmt(1.2345, 1), "1.2");
    EXPECT_EQ(driver::fmtPercent(0.375), "37.5%");
    EXPECT_EQ(driver::mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_EQ(driver::mean({}), 0.0);
}

TEST(Profiler, ReportsHotPagesAndSets)
{
    core::ProfilingUlmt prof(4096, 2048, 64);
    core::NullCostTracker nc;
    std::vector<sim::Addr> discard;
    // 100 misses on page 3, 10 on page 7, sequential within page 3.
    for (int i = 0; i < 100; ++i) {
        prof.prefetchStep(3 * 4096 + (i % 64) * 64, discard, nc);
        prof.learnStep(3 * 4096 + (i % 64) * 64, nc);
    }
    for (int i = 0; i < 10; ++i)
        prof.learnStep(7 * 4096 + i * 64, nc);

    const core::MissProfile p = prof.report(5);
    EXPECT_EQ(p.misses, 110u);
    ASSERT_FALSE(p.hottestPages.empty());
    EXPECT_EQ(p.hottestPages[0].first, 3u);
    EXPECT_EQ(p.hottestPages[0].second, 100u);
    EXPECT_GT(p.sequentialFraction, 0.5);
    EXPECT_GT(p.distinctLines, 60u);
    EXPECT_FALSE(p.hottestSets.empty());
}

} // namespace
