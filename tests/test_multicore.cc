/**
 * @file
 * Tests for the multicore machine: N main processors over one shared
 * memory system, the three ULMT serving modes (shared / percore /
 * sharded), per-tenant QoS accounting, the per-core address-slice
 * workloads, the core-sliced stat registry dump, and the v3
 * checkpoint round trip -- a restored N=4 run must finish
 * bit-identical to the uninterrupted one in every serving mode, and a
 * snapshot must be loudly rejected by a machine with a different core
 * count or serving mode.  Runs whose steps continue inline match runs
 * forced through the event heap.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "check/check.hh"
#include "ckpt/checkpoint.hh"
#include "core/factory.hh"
#include "driver/experiment.hh"
#include "driver/report.hh"
#include "driver/system.hh"
#include "workloads/offset.hh"
#include "workloads/workload.hh"

namespace {

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

driver::SystemConfig
mcConfig(unsigned cores, core::UlmtMode mode,
         const std::string &app = "MST")
{
    driver::ExperimentOptions opt;
    opt.scale = 0.01;
    driver::SystemConfig cfg =
        driver::ulmtConfig(opt, core::UlmtAlgo::Repl, app);
    cfg.cores = cores;
    cfg.ulmtMode = mode;
    return cfg;
}

std::unique_ptr<driver::System>
makeSystem(const driver::SystemConfig &cfg,
           const std::string &app = "MST", double scale = 0.01)
{
    const driver::ExperimentOptions defaults;
    auto ws = driver::makeCoreWorkloads(app, defaults.seed, scale,
                                        cfg.cores);
    const std::string name = ws[0]->name();
    auto sys = std::make_unique<driver::System>(cfg, std::move(ws),
                                                name);
    sys->setCheckpointMeta(app, defaults.seed, scale);
    return sys;
}

const std::vector<core::UlmtMode> kModes = {core::UlmtMode::Shared,
                                            core::UlmtMode::PerCore,
                                            core::UlmtMode::Sharded};

TEST(Multicore, FourCoreRunCompletesInEveryMode)
{
    // Sparse is the workload whose miss pairs actually repeat, so the
    // ULMT issues prefetches for every tenant (MST/Tree/CG's synthetic
    // traces learn pairs but re-encounter none at small scales).
    for (core::UlmtMode mode : kModes) {
        SCOPED_TRACE(core::to_string(mode));
        auto sys = makeSystem(mcConfig(4, mode, "Sparse"), "Sparse");
        const driver::RunResult r = sys->run();
        const sim::StatSnapshot &s = r.stats;

        // One stat slice per core and per engine, and no more.
        ASSERT_TRUE(s.has("cpu.3.proc.records"));
        ASSERT_TRUE(s.has("cpu.3.l2.misses"));
        EXPECT_FALSE(s.has("cpu.4.proc.records"));
        ASSERT_TRUE(s.has("memsys.core.3.demand_fetches"));
        EXPECT_FALSE(s.has("memsys.core.4.demand_fetches"));
        const std::size_t engines =
            mode == core::UlmtMode::PerCore ? 4u : 1u;
        EXPECT_EQ(sys->numEngines(), engines);
        EXPECT_EQ(driver::numEngines(r.config), engines);
        EXPECT_TRUE(s.has(r.engineStat("misses_observed", engines - 1)));
        EXPECT_FALSE(s.has("ulmt." + std::to_string(engines) +
                           ".misses_observed"));
        EXPECT_EQ(sys->numCores(), 4u);

        sim::Cycle slowest = 0;
        for (unsigned c = 0; c < 4; ++c) {
            SCOPED_TRACE(c);
            const std::string q = "memsys.core." + std::to_string(c) + ".";
            // Every tenant ran its whole trace and touched memory.
            EXPECT_GT(s.counter(r.coreStat("proc.records", c)), 0u);
            EXPECT_GT(s.counter(r.coreStat("proc.total_cycles", c)), 0u);
            EXPECT_GT(s.counter(r.coreStat("l2.misses", c)), 0u);
            EXPECT_GT(s.counter(q + "demand_fetches"), 0u);
            EXPECT_GT(s.counter(q + "pf_issued"), 0u);
            slowest = std::max(
                slowest, s.counter(r.coreStat("proc.total_cycles", c)));
        }
        // The headline cycle count is the slowest tenant.
        EXPECT_EQ(r.cycles, slowest);
    }
}

TEST(Multicore, DeterministicAcrossRuns)
{
    for (core::UlmtMode mode : kModes) {
        SCOPED_TRACE(core::to_string(mode));
        const driver::SystemConfig cfg = mcConfig(4, mode);
        const driver::RunResult a = makeSystem(cfg)->run();
        const driver::RunResult b = makeSystem(cfg)->run();
        EXPECT_EQ(driver::resultFingerprint(a),
                  driver::resultFingerprint(b));
        EXPECT_EQ(a.cycles, b.cycles);
        EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
    }
}

/**
 * The vector-of-workloads constructor with one core and shared
 * serving IS the machine the repo always simulated: same fingerprint
 * as the classic single-workload constructor.
 */
TEST(Multicore, SingleCoreMachineMatchesLegacyConstruction)
{
    const driver::ExperimentOptions opt;
    driver::SystemConfig cfg =
        mcConfig(1, core::UlmtMode::Shared);

    workloads::WorkloadParams wp;
    wp.seed = opt.seed;
    wp.scale = 0.01;
    auto wl = workloads::makeWorkload("MST", wp);
    driver::System legacy(cfg, *wl);
    const driver::RunResult a = legacy.run();

    const driver::RunResult b = makeSystem(cfg)->run();
    EXPECT_EQ(driver::resultFingerprint(a),
              driver::resultFingerprint(b));
    // Single-core machines publish no per-core slices so their
    // fingerprint stays pre-multicore; the queue-1 wait is still
    // measured.
    EXPECT_FALSE(a.stats.has("cpu.0.proc.records"));
    EXPECT_FALSE(a.stats.has("memsys.core.0.demand_fetches"));
    EXPECT_GT(a.q1WaitMean, 0.0);
}

TEST(Multicore, OffsetWorkloadShiftsEveryReference)
{
    workloads::WorkloadParams wp;
    wp.scale = 0.01;
    auto plain = workloads::makeWorkload("MST", wp);
    workloads::OffsetWorkload shifted(workloads::makeWorkload("MST", wp),
                                      /*core=*/2);

    cpu::TraceRecord a, b;
    for (int i = 0; i < 5000; ++i) {
        ASSERT_EQ(plain->next(a), shifted.next(b));
        EXPECT_EQ(a.computeOps, b.computeOps);
        EXPECT_EQ(a.isWrite, b.isWrite);
        if (a.addr == sim::invalidAddr)
            EXPECT_EQ(b.addr, sim::invalidAddr);
        else
            EXPECT_EQ(b.addr, a.addr + 2 * sim::coreAddrStride);
    }
}

TEST(Multicore, StatRegistryFilterSelectsOneCoreSlice)
{
    const driver::RunResult r =
        makeSystem(mcConfig(2, core::UlmtMode::PerCore))->run();
    const auto keep = [](const std::string &path) {
        return path.rfind("cpu.1.", 0) == 0;
    };
    const std::string json = r.stats.dumpJson(keep);
    EXPECT_NE(json.find("cpu.1.l2.misses"), std::string::npos);
    EXPECT_EQ(json.find("cpu.0."), std::string::npos);
    EXPECT_EQ(json.find("memsys."), std::string::npos);
}

/** Deep invariant checking stays clean on a 4-core machine. */
TEST(Multicore, DeepCheckCleanInEveryMode)
{
    for (core::UlmtMode mode : kModes) {
        SCOPED_TRACE(core::to_string(mode));
        driver::SystemConfig cfg = mcConfig(4, mode);
        cfg.check.mode = check::CheckMode::Deep;
        cfg.check.everyEvents = 4096;
        // Deep mode diffs reference models at every cadence tick; keep
        // the run short.
        EXPECT_NO_THROW((void)makeSystem(cfg, "MST", 0.003)->run());
    }
}

/** Every core's ProcessorStats, flattened for comparison. */
std::vector<double>
processorStats(driver::System &sys)
{
    std::vector<double> out;
    for (unsigned c = 0; c < sys.numCores(); ++c) {
        const cpu::ProcessorStats &p = sys.processor(c).stats();
        for (const double v :
             {double(p.totalCycles), double(p.busyCycles),
              double(p.uptoL2Stall), double(p.beyondL2Stall),
              double(p.records), double(p.ops), double(p.stallDependence),
              double(p.stallLoadWindow), double(p.stallStoreWindow),
              double(p.stallDrain), double(p.beyondWaits.count()),
              p.beyondWaits.sum(), p.beyondWaits.min(),
              p.beyondWaits.max(), double(p.uptoWaits.count()),
              p.uptoWaits.sum(), p.uptoWaits.min(), p.uptoWaits.max()})
            out.push_back(v);
    }
    return out;
}

std::string
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

struct InlineCase
{
    const char *app;
    unsigned cores;
};

// Keeps the listed test name free of the app pointer's bytes.
void
PrintTo(const InlineCase &c, std::ostream *os)
{
    *os << c.app << "/" << c.cores;
}

class InlineSteps : public ::testing::TestWithParam<InlineCase>
{
};

/**
 * A core's step() runs its own next step inline when that is the
 * queue's next event (EventQueue::continueAt).  An every-event
 * inspector refuses every continuation, so the same run goes through
 * the heap step by step; both must agree on everything.  Checkpoints
 * at a fixed cycle must be byte-identical as well, and a run that
 * paused for one ends as the straight run does.
 */
TEST_P(InlineSteps, MatchTheHeapOnlyRun)
{
    const auto [app, cores] = GetParam();
    const driver::SystemConfig cfg =
        mcConfig(cores, core::UlmtMode::Shared, app);
    struct Outcome
    {
        std::string fp;
        std::uint64_t events;
        std::uint64_t nextSeq;
        std::vector<double> proc;
        std::string ckpt;
    };
    const auto run = [&](bool heapOnly, const std::string &trigger) {
        auto sys = makeSystem(cfg, app);
        if (heapOnly)
            sys->eventQueue().setInspector(1, [] {});
        const std::string path =
            tmpPath(std::string("inline_") + app + std::to_string(cores) +
                    (heapOnly ? "_heap" : "_inline") + ".ulmtckp");
        if (!trigger.empty())
            sys->setCheckpointTrigger(trigger, path);
        const driver::RunResult r = sys->run();
        return Outcome{driver::resultFingerprint(r), r.eventsExecuted,
                       sys->eventQueue().nextSeq(), processorStats(*sys),
                       trigger.empty() ? "" : readBytes(path)};
    };

    const Outcome plain = run(false, "");
    const Outcome heap = run(true, "");
    EXPECT_EQ(plain.fp, heap.fp);
    EXPECT_EQ(plain.events, heap.events);
    EXPECT_EQ(plain.nextSeq, heap.nextSeq);
    EXPECT_EQ(plain.proc, heap.proc);

    const std::string trigger =
        std::to_string(static_cast<std::uint64_t>(plain.proc[0]) / 2) + "c";
    const Outcome plainCkpt = run(false, trigger);
    const Outcome heapCkpt = run(true, trigger);
    ASSERT_FALSE(plainCkpt.ckpt.empty()) << "trigger never fired";
    EXPECT_EQ(plainCkpt.ckpt, heapCkpt.ckpt);
    EXPECT_EQ(plainCkpt.fp, plain.fp);
    EXPECT_EQ(heapCkpt.fp, plain.fp);
    EXPECT_EQ(plainCkpt.events, plain.events);
}

// Tree is compute-heavy: most of its steps continue inline.
INSTANTIATE_TEST_SUITE_P(Machines, InlineSteps,
                         ::testing::Values(InlineCase{"MST", 1},
                                           InlineCase{"MST", 4},
                                           InlineCase{"Tree", 1}),
                         [](const auto &info) {
                             return std::string(info.param.app) + "_" +
                                    std::to_string(info.param.cores) +
                                    "core";
                         });

class MulticoreCkpt : public ::testing::TestWithParam<core::UlmtMode>
{
};

/**
 * Snapshot an N=4 machine mid-flight and restore it: the resumed run
 * must finish with a result fingerprint (which includes every
 * per-core and per-engine slice) bit-identical to both the
 * uninterrupted run and the run that paused to snapshot.
 */
TEST_P(MulticoreCkpt, RestoreMatchesStraightRun)
{
    const core::UlmtMode mode = GetParam();
    const driver::SystemConfig cfg = mcConfig(4, mode);

    const driver::RunResult straight = makeSystem(cfg)->run();
    const std::string fp = driver::resultFingerprint(straight);

    const std::string path = tmpPath("mc_" + core::to_string(mode) +
                                     ".ulmtckp");
    auto through_sys = makeSystem(cfg);
    through_sys->setCheckpointTrigger("400", path);
    const driver::RunResult through = through_sys->run();
    ASSERT_GT(through.stats.value("ckpt.snapshot_bytes"), 0.0)
        << "trigger never fired";
    EXPECT_EQ(driver::resultFingerprint(through), fp);

    const ckpt::CkptHeader h = ckpt::CheckpointImage::readHeader(path);
    EXPECT_EQ(h.cores, 4u);
    EXPECT_EQ(h.ulmtMode, static_cast<std::uint32_t>(mode));

    auto resumed_sys = makeSystem(cfg);
    resumed_sys->restoreCheckpoint(path);
    const driver::RunResult resumed = resumed_sys->run();
    EXPECT_EQ(driver::resultFingerprint(resumed), fp);
    for (unsigned c = 0; c < 4; ++c) {
        const std::string total = "cpu." + std::to_string(c) +
                                  ".proc.total_cycles";
        EXPECT_EQ(resumed.stats.counter(total),
                  straight.stats.counter(total))
            << "core " << c;
    }
}

INSTANTIATE_TEST_SUITE_P(Modes, MulticoreCkpt,
                         ::testing::ValuesIn(kModes),
                         [](const auto &info) {
                             return core::to_string(info.param);
                         });

TEST(MulticoreCkpt, RejectsCoreCountMismatch)
{
    const std::string path = tmpPath("mc_shape.ulmtckp");
    auto sys = makeSystem(mcConfig(4, core::UlmtMode::Shared));
    sys->setCheckpointTrigger("400", path);
    ASSERT_GT(sys->run().stats.value("ckpt.snapshot_bytes"), 0.0);

    auto two = makeSystem(mcConfig(2, core::UlmtMode::Shared));
    try {
        two->restoreCheckpoint(path);
        FAIL() << "restore accepted a 4-core snapshot on 2 cores";
    } catch (const ckpt::CkptError &e) {
        EXPECT_NE(std::string(e.what()).find("4-core machine"),
                  std::string::npos)
            << e.what();
    }
}

TEST(MulticoreCkpt, RejectsServingModeMismatch)
{
    const std::string path = tmpPath("mc_mode.ulmtckp");
    auto sys = makeSystem(mcConfig(4, core::UlmtMode::Shared));
    sys->setCheckpointTrigger("400", path);
    ASSERT_GT(sys->run().stats.value("ckpt.snapshot_bytes"), 0.0);

    auto sharded = makeSystem(mcConfig(4, core::UlmtMode::Sharded));
    try {
        sharded->restoreCheckpoint(path);
        FAIL() << "restore accepted a shared-mode snapshot when "
                  "sharded";
    } catch (const ckpt::CkptError &e) {
        EXPECT_NE(std::string(e.what()).find("serving mode"),
                  std::string::npos)
            << e.what();
    }
}

} // namespace
