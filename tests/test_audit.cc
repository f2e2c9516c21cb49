/**
 * @file
 * Tests of the prefetch lifecycle audit layer (DESIGN.md section 12):
 * passivity (bit-identical fingerprints with auditing on or off, single
 * and multicore), the taxonomy identities against the pre-existing
 * hierarchy counters, lifecycle conservation, the lead-time histogram,
 * the blocked_by interference matrix, and the composed observability
 * run (time series + trace events + audit at --cores=4).
 */

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "driver/experiment.hh"
#include "driver/report.hh"
#include "driver/system.hh"
#include "mem/prefetch_audit.hh"
#include "sim/trace_event.hh"
#include "workloads/workload.hh"

namespace {

driver::RunResult
runMcf(bool audit, unsigned cores = 1,
       core::UlmtMode mode = core::UlmtMode::Shared,
       sim::Cycle metrics_interval = 0,
       sim::TraceEventBuffer *trace = nullptr)
{
    driver::ExperimentOptions opt;
    opt.scale = 0.05;
    driver::SystemConfig cfg =
        driver::conven4PlusUlmtConfig(opt, core::UlmtAlgo::Repl, "Mcf");
    cfg.audit = audit;
    cfg.cores = cores;
    cfg.ulmtMode = mode;
    cfg.metricsInterval = metrics_interval;
    auto ws = driver::makeCoreWorkloads("Mcf", opt.seed, opt.scale,
                                        cores);
    driver::System sys(cfg, std::move(ws), "Mcf");
    if (trace)
        sys.setTraceEvents(trace);
    return sys.run();
}

// ---------------------------------------------------------------------
// Passivity: the audit layer must never perturb the simulation
// ---------------------------------------------------------------------

TEST(AuditPassivityTest, SingleCoreFingerprintIdentical)
{
    const driver::RunResult off = runMcf(false);
    const driver::RunResult on = runMcf(true);
    EXPECT_FALSE(off.audit.enabled);
    EXPECT_TRUE(on.audit.enabled);
    EXPECT_EQ(off.cycles, on.cycles);
    EXPECT_EQ(driver::resultFingerprint(off),
              driver::resultFingerprint(on));
}

TEST(AuditPassivityTest, MulticoreShardedFingerprintIdentical)
{
    const driver::RunResult off =
        runMcf(false, 4, core::UlmtMode::Sharded);
    const driver::RunResult on =
        runMcf(true, 4, core::UlmtMode::Sharded);
    EXPECT_EQ(off.cycles, on.cycles);
    EXPECT_EQ(driver::resultFingerprint(off),
              driver::resultFingerprint(on));
    ASSERT_EQ(on.audit.cores.size(), 4u);
}

/** Satellite 4: metrics sampling + trace events + audit composed in
 *  one multicore run must still match the everything-off run. */
TEST(AuditPassivityTest, ComposedObservabilityMulticore)
{
    const driver::RunResult plain =
        runMcf(false, 4, core::UlmtMode::PerCore);
    sim::TraceEventBuffer buf;
    const driver::RunResult composed =
        runMcf(true, 4, core::UlmtMode::PerCore, 16384, &buf);
    EXPECT_EQ(plain.cycles, composed.cycles);
    EXPECT_EQ(driver::resultFingerprint(plain),
              driver::resultFingerprint(composed));
    EXPECT_TRUE(composed.audit.enabled);
    EXPECT_FALSE(composed.metrics.empty());
    EXPECT_GT(buf.size(), 0u);
    // The audit channels rode along in the time series.
    bool has_cov = false;
    for (const std::string &ch : composed.metrics.channels)
        has_cov = has_cov || ch == "audit.coverage";
    EXPECT_TRUE(has_cov);
}

// ---------------------------------------------------------------------
// Taxonomy: the lifecycle outcomes are identities over the legacy
// counters (satellite 3's reconciliation with fig9_effectiveness)
// ---------------------------------------------------------------------

TEST(AuditTaxonomyTest, OutcomesMatchHierarchyCounters)
{
    const driver::RunResult r = runMcf(true);
    ASSERT_TRUE(r.audit.enabled);
    ASSERT_EQ(r.audit.cores.size(), 1u);
    const mem::AuditOutcomeCounts &c = r.audit.cores[0].push;

    EXPECT_GT(c.issued, 0u);
    EXPECT_EQ(c.issued, r.memsys.ulmtPrefetchesIssued);
    EXPECT_EQ(c.usefulTimely, r.hier.ulmtHits);
    EXPECT_EQ(c.usefulLate, r.hier.ulmtDelayedHits);
    EXPECT_EQ(c.evictedUnused, r.hier.ulmtReplaced);
    EXPECT_EQ(c.redundant, r.hier.pushRedundant());

    // Legacy Figure 9 coverage (Hits + DelayedHits) is exactly the
    // taxonomy's useful_timely + useful_late.
    EXPECT_EQ(r.hier.ulmtHits + r.hier.ulmtDelayedHits,
              c.usefulTimely + c.usefulLate);

    // The CPU stream prefetcher's lifecycle folds in from the
    // hierarchy counters.
    const mem::AuditCoreReport &cr = r.audit.cores[0];
    EXPECT_EQ(cr.cpuPfIssued, r.hier.cpuPfIssued);
    EXPECT_EQ(cr.cpuPfToMemory, r.hier.cpuPfToMemory);
    EXPECT_EQ(cr.cpuPfUsefulTimely, r.hier.cpuPfTimely);
    EXPECT_EQ(cr.cpuPfUsefulLate,
              r.hier.cpuPfUseful - r.hier.cpuPfTimely);
    EXPECT_EQ(cr.cpuPfReplaced, r.hier.cpuPfReplaced);
}

TEST(AuditTaxonomyTest, LifecycleConservation)
{
    const driver::RunResult r = runMcf(true);
    std::uint64_t issued = 0, closed = 0;
    for (const auto &cr : r.audit.cores) {
        issued += cr.push.issued;
        closed += cr.push.usefulTimely + cr.push.usefulLate +
                  cr.push.evictedUnused + cr.push.redundant;
    }
    // Every issued push either reached a terminal outcome or is still
    // open (in flight to the L2, or installed and never referenced).
    EXPECT_EQ(issued, closed + r.audit.openInflight +
                          r.audit.openInstalled);
}

TEST(AuditTaxonomyTest, EngineCountsSumToCoreCounts)
{
    const driver::RunResult r =
        runMcf(true, 4, core::UlmtMode::Sharded);
    std::uint64_t core_issued = 0, engine_issued = 0;
    for (const auto &cr : r.audit.cores)
        core_issued += cr.push.issued;
    for (const auto &er : r.audit.engines)
        engine_issued += er.push.issued;
    EXPECT_GT(core_issued, 0u);
    EXPECT_EQ(core_issued, engine_issued);
}

TEST(AuditTaxonomyTest, LeadTimeHistogramCountsUsefulTimely)
{
    const driver::RunResult r = runMcf(true);
    const mem::AuditCoreReport &cr = r.audit.cores[0];
    const std::uint64_t in_hist =
        std::accumulate(cr.leadCounts.begin(), cr.leadCounts.end(),
                        std::uint64_t(0)) +
        cr.leadBelow;
    EXPECT_EQ(in_hist, cr.push.usefulTimely);
    EXPECT_EQ(cr.lateCount, cr.push.usefulLate);
    ASSERT_FALSE(cr.leadEdges.empty());
    EXPECT_EQ(cr.leadEdges.size(), cr.leadCounts.size());
}

TEST(AuditTaxonomyTest, RatiosAreConsistent)
{
    const driver::RunResult r = runMcf(true);
    const mem::AuditCoreReport &cr = r.audit.cores[0];
    const mem::AuditOutcomeCounts &c = cr.push;
    EXPECT_NEAR(cr.accuracy,
                double(c.useful()) / double(c.issued), 1e-12);
    EXPECT_NEAR(cr.timeliness,
                double(c.usefulTimely) / double(c.useful()), 1e-12);
    EXPECT_NEAR(cr.coverage,
                c.coverage(r.hier.nonPrefMisses), 1e-12);
    EXPECT_GT(cr.coverage, 0.0);
    EXPECT_LE(cr.coverage, 1.0);
}

// ---------------------------------------------------------------------
// Interference attribution
// ---------------------------------------------------------------------

TEST(AuditInterferenceTest, BlockedByMatrixShape)
{
    const driver::RunResult r =
        runMcf(true, 4, core::UlmtMode::Sharded);
    ASSERT_EQ(r.audit.cores.size(), 4u);
    std::uint64_t blocked = 0;
    for (const auto &cr : r.audit.cores) {
        // One column per core plus the memory-thread pseudo-tenant.
        ASSERT_EQ(cr.blockedBy.size(), 5u);
        for (std::uint64_t v : cr.blockedBy)
            blocked += v;
    }
    // A 4-core machine sharing one bus must exhibit some contention.
    EXPECT_GT(blocked, 0u);
}

TEST(AuditInterferenceTest, OccupancySplitsArePopulated)
{
    const driver::RunResult r = runMcf(true);
    const mem::AuditCoreReport &cr = r.audit.cores[0];
    EXPECT_GT(cr.busDemandCycles, 0u);
    EXPECT_GT(cr.busPrefetchCycles, 0u);  // pushes + cpu-pf traffic
    EXPECT_GT(cr.dramDemandCycles, 0u);
    EXPECT_GT(cr.dramPrefetchCycles, 0u);
    // The memory thread's table walk traffic has its own footprint.
    EXPECT_GT(r.audit.tableDramCycles, 0u);
}

// ---------------------------------------------------------------------
// Stat registry surface
// ---------------------------------------------------------------------

TEST(AuditStatsTest, RegistryExposesAuditNames)
{
    driver::ExperimentOptions opt;
    opt.scale = 0.02;
    driver::SystemConfig cfg =
        driver::conven4PlusUlmtConfig(opt, core::UlmtAlgo::Repl,
                                      "Mcf");
    cfg.audit = true;
    cfg.cores = 2;
    auto ws = driver::makeCoreWorkloads("Mcf", opt.seed, opt.scale, 2);
    driver::System sys(cfg, std::move(ws), "Mcf");
    sys.run();
    const sim::StatRegistry &reg = sys.statRegistry();
    for (const char *name :
         {"audit.core.0.issued", "audit.core.1.issued",
          "audit.core.0.useful_timely", "audit.core.0.coverage",
          "audit.core.0.lead_time_cycles",
          "audit.core.0.bus.demand_cycles",
          "audit.engine.0.issued", "audit.ulmt.table_dram_cycles",
          "audit.blocked_cycles_total",
          "memsys.core.0.blocked_by.1",
          "memsys.core.1.blocked_by.ulmt"})
        EXPECT_TRUE(reg.has(name)) << name;
}

TEST(AuditStatsTest, DisabledLeavesNoAuditNames)
{
    driver::ExperimentOptions opt;
    opt.scale = 0.02;
    driver::SystemConfig cfg =
        driver::conven4PlusUlmtConfig(opt, core::UlmtAlgo::Repl,
                                      "Mcf");
    cfg.audit = false;
    workloads::WorkloadParams wp;
    wp.scale = opt.scale;
    auto wl = workloads::makeWorkload("Mcf", wp);
    driver::System sys(cfg, *wl);
    sys.run();
    EXPECT_FALSE(sys.statRegistry().has("audit.core.0.issued"));
    EXPECT_FALSE(
        sys.statRegistry().has("memsys.core.0.blocked_by.0"));
}

// ---------------------------------------------------------------------
// Trace annotation
// ---------------------------------------------------------------------

TEST(AuditTraceTest, OutcomeInstantsAppearInTrace)
{
    sim::TraceEventBuffer buf;
    runMcf(true, 1, core::UlmtMode::Shared, 0, &buf);
    bool saw_outcome = false;
    for (const sim::TraceEvent &ev : buf.events()) {
        if (ev.name.rfind("pf_outcome_", 0) == 0) {
            saw_outcome = true;
            break;
        }
    }
    EXPECT_TRUE(saw_outcome);
}

} // namespace
