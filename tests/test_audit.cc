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
    const sim::StatSnapshot &s = r.stats;
    const auto a = [&s](const char *outcome) {
        return s.counter(std::string("audit.core.0.") + outcome);
    };

    EXPECT_GT(a("issued"), 0u);
    EXPECT_EQ(a("issued"), s.counter("memsys.queue3.issued"));
    EXPECT_EQ(a("useful_timely"), s.counter("l2.push.hits"));
    EXPECT_EQ(a("useful_late"), s.counter("l2.push.delayed_hits"));
    EXPECT_EQ(a("evicted_unused"), s.counter("l2.push.replaced"));
    EXPECT_EQ(a("redundant"), driver::pushRedundant(r));
    // The report's push counts are the registry's.
    EXPECT_EQ(r.audit.cores[0].push.issued, a("issued"));

    // Legacy Figure 9 coverage (Hits + DelayedHits) is exactly the
    // taxonomy's useful_timely + useful_late.
    EXPECT_EQ(s.counter("l2.push.hits") + s.counter("l2.push.delayed_hits"),
              a("useful_timely") + a("useful_late"));

    // The CPU stream prefetcher's lifecycle (cpu_pf.*, read as is by
    // the BENCH effectiveness block) nests: timely within useful
    // within issued.
    EXPECT_LE(s.counter("cpu_pf.dropped_page_cross"),
              s.counter("cpu_pf.issued"));
    EXPECT_LE(s.counter("cpu_pf.to_memory"), s.counter("cpu_pf.issued"));
    EXPECT_LE(s.counter("cpu_pf.useful"), s.counter("cpu_pf.issued"));
    EXPECT_LE(s.counter("cpu_pf.timely"), s.counter("cpu_pf.useful"));
    EXPECT_LE(s.counter("cpu_pf.replaced"), s.counter("cpu_pf.issued"));
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
    for (unsigned c = 0; c < 4; ++c)
        core_issued += r.stats.counter("audit.core." + std::to_string(c) +
                                       ".issued");
    // Sharded serving runs one engine.
    EXPECT_FALSE(r.stats.has("audit.engine.1.issued"));
    engine_issued += r.stats.counter("audit.engine.0.issued");
    EXPECT_GT(core_issued, 0u);
    EXPECT_EQ(core_issued, engine_issued);
}

TEST(AuditTaxonomyTest, LeadTimeHistogramCountsUsefulTimely)
{
    const driver::RunResult r = runMcf(true);
    const sim::BinnedHistogram &lead =
        r.stats.histogram("audit.core.0.lead_time_cycles");
    std::uint64_t in_bins = 0;
    for (std::size_t i = 0; i < lead.numBins(); ++i)
        in_bins += lead.binCount(i);
    EXPECT_EQ(in_bins + lead.below(),
              r.stats.counter("audit.core.0.useful_timely"));
    EXPECT_EQ(r.stats.sample("audit.core.0.late_fill_cycles").count(),
              r.stats.counter("audit.core.0.useful_late"));
    ASSERT_GT(lead.numBins(), 0u);
    EXPECT_EQ(in_bins, lead.total());
}

TEST(AuditTaxonomyTest, RatiosAreConsistent)
{
    const driver::RunResult r = runMcf(true);
    const mem::AuditOutcomeCounts &c = r.audit.cores[0].push;
    const double coverage = r.stats.value("audit.core.0.coverage");
    EXPECT_NEAR(r.stats.value("audit.core.0.accuracy"),
                double(c.useful()) / double(c.issued), 1e-12);
    EXPECT_NEAR(r.stats.value("audit.core.0.timeliness"),
                double(c.usefulTimely) / double(c.useful()), 1e-12);
    EXPECT_NEAR(coverage,
                c.coverage(r.stats.counter("l2.push.non_pref_misses")),
                1e-12);
    EXPECT_GT(coverage, 0.0);
    EXPECT_LE(coverage, 1.0);
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
    for (unsigned c = 0; c < 4; ++c) {
        const std::string b =
            "memsys.core." + std::to_string(c) + ".blocked_by.";
        // One column per core plus the memory-thread pseudo-tenant.
        ASSERT_FALSE(r.stats.has(b + "4"));
        for (const char *col : {"0", "1", "2", "3", "ulmt"})
            blocked += r.stats.counter(b + col);
    }
    // A 4-core machine sharing one bus must exhibit some contention.
    EXPECT_GT(blocked, 0u);
}

TEST(AuditInterferenceTest, OccupancySplitsArePopulated)
{
    const driver::RunResult r = runMcf(true);
    const auto n = [&r](const char *leaf) {
        return r.stats.counter(std::string("audit.core.0.") + leaf);
    };
    EXPECT_GT(n("bus.demand_cycles"), 0u);
    EXPECT_GT(n("bus.prefetch_cycles"), 0u);  // pushes + cpu-pf traffic
    EXPECT_GT(n("dram.demand_cycles"), 0u);
    EXPECT_GT(n("dram.prefetch_cycles"), 0u);
    // The memory thread's table walk traffic has its own footprint.
    EXPECT_GT(r.stats.counter("audit.ulmt.table_dram_cycles"), 0u);
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
