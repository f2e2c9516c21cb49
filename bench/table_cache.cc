/**
 * @file
 * Table-cache sweep: ULMT service latency vs MSCache geometry.
 *
 * Every machine runs the Replicated prefetcher single-core while the
 * memory-side table cache sweeps {off, 256, 1024, 4096} entries x
 * {4, 8} ways.  The correlation table lives in DRAM, so each miss the
 * memory thread serves pays a row of table reads before the first
 * prefetch goes out (that latency is the response time) and more for
 * the Learning update (occupancy time).  An SRAM cache in front of
 * that traffic converts repeat-row touches into tableCacheHitCycles
 * hits and retires the displaced dirty lines in row-batched bursts,
 * so the figure to look for is the ULMT mean response and occupancy
 * times bending down as the cache grows -- the off column reproduces
 * the pre-MSCache machine bit-identically.
 *
 * Usage: table_cache [scale] [--jobs=N] [--apps=A,B,...]
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.hh"
#include "driver/experiment.hh"
#include "driver/report.hh"
#include "driver/runner.hh"

namespace {

/** One swept cache geometry; entries 0 = cache off. */
struct Geometry
{
    std::uint32_t entries;
    std::uint32_t assoc;

    std::string
    key() const
    {
        if (entries == 0)
            return "e0";
        std::string k = "e";
        k += std::to_string(entries);
        k += "_a";
        k += std::to_string(assoc);
        return k;
    }
};

double
hitRate(const driver::RunResult &r)
{
    const std::uint64_t hits = r.stats.counter("memsys.tcache.hits");
    const std::uint64_t total =
        hits + r.stats.counter("memsys.tcache.misses");
    return total ? double(hits) / double(total) : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::Options bopt =
        bench::parseArgs(argc, argv, 0.25, {"table-cache"});
    const driver::ExperimentOptions &opt = bopt.experiment;
    bench::Harness harness("table_cache", bopt);

    // Pointer-chasing workloads with large correlation tables: their
    // table rows are re-touched often enough for locality to matter.
    const std::vector<std::string> apps =
        bopt.appList({"MST", "Tree", "Sparse"});
    const std::vector<Geometry> geometries = {
        {0, 4},    {256, 4},  {256, 8},  {1024, 4},
        {1024, 8}, {4096, 4}, {4096, 8},
    };

    std::vector<driver::Job> jobs;
    for (const std::string &app : apps) {
        for (const Geometry &g : geometries) {
            driver::SystemConfig cfg =
                driver::ulmtConfig(opt, core::UlmtAlgo::Repl, app);
            cfg.tableCache.entries = g.entries;
            cfg.tableCache.assoc = g.assoc;
            cfg.label = "Repl/tc-" + g.key();
            jobs.push_back({app, std::move(cfg), opt});
        }
    }

    const std::vector<driver::RunResult> results =
        driver::runAll(jobs);
    harness.recordAll(results);

    driver::TextTable table({"Appl", "Entries", "Ways", "Resp mean",
                             "Occ mean", "Hit rate", "Table DRAM",
                             "Batched WB"});
    std::size_t idx = 0;
    for (const std::string &app : apps) {
        for (const Geometry &g : geometries) {
            const driver::RunResult &r = results[idx++];
            // The off machine's table traffic all goes to DRAM; count
            // it from the memory system's request counters so the
            // DRAM column stays comparable across the sweep.
            const sim::StatSnapshot &s = r.stats;
            const std::uint64_t dram_accesses =
                g.entries ? s.counter("memsys.tcache.dram_accesses")
                          : s.counter("memsys.table.reads") +
                                s.counter("memsys.table.writes");
            const std::uint64_t batched =
                g.entries ? s.counter("memsys.tcache.row_batched_writebacks")
                          : 0;
            const double resp =
                s.sample(r.engineStat("response_cycles")).mean();
            const double occ =
                s.sample(r.engineStat("occupancy_cycles")).mean();
            table.addRow(
                {app, std::to_string(g.entries),
                 g.entries ? std::to_string(g.assoc) : std::string("-"),
                 driver::fmt(resp), driver::fmt(occ),
                 g.entries ? driver::fmt(hitRate(r)) : std::string("-"),
                 std::to_string(dram_accesses), std::to_string(batched)});
            const std::string key = app + "_" + g.key();
            harness.metric("response_mean_" + key, resp);
            harness.metric("occupancy_mean_" + key, occ);
            harness.metric("table_dram_accesses_" + key,
                           double(dram_accesses));
            if (g.entries) {
                harness.metric("hit_rate_" + key, hitRate(r));
                harness.metric("row_batched_wb_" + key, double(batched));
            }
        }
    }
    table.print("Table cache: ULMT service latency vs geometry");
    harness.writeJson();
    return 0;
}
