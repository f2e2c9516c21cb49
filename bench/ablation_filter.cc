/**
 * @file
 * Ablation: the Filter module (Section 3.2).
 *
 * Correlation prefetching regenerates the same addresses in short
 * windows; the FIFO filter in front of queue 3 drops them.  This
 * sweep varies the filter size (0 disables it) and reports the
 * speedup, prefetch traffic and redundant-push rate under Repl for a
 * few representative applications.
 *
 * Usage: ablation_filter [scale] [--jobs=N]
 */

#include <cstdio>

#include "bench/harness.hh"
#include "driver/experiment.hh"
#include "driver/report.hh"
#include "driver/runner.hh"

int
main(int argc, char **argv)
{
    // The figure fixes its application list.
    const bench::Options bopt =
        bench::parseArgs(argc, argv, 0.5, {"--apps"});
    const driver::ExperimentOptions &opt = bopt.experiment;
    bench::Harness harness("ablation_filter", bopt);

    const std::vector<std::uint32_t> sizes = {0, 8, 32, 128};
    const std::vector<std::string> apps = {"Mcf", "Gap", "Equake"};

    std::vector<driver::Job> jobs;
    for (const std::string &app : apps) {
        jobs.push_back({app, driver::noPrefConfig(opt), opt});
        for (std::uint32_t size : sizes) {
            driver::SystemConfig cfg =
                driver::ulmtConfig(opt, core::UlmtAlgo::Repl, app);
            cfg.timing.filterEntries = size;
            jobs.push_back({app, std::move(cfg), opt});
        }
    }
    const std::size_t per_app = 1 + sizes.size();

    const std::vector<driver::RunResult> results =
        driver::runAll(jobs);
    harness.recordAll(results);

    driver::TextTable table({"Appl", "Filter", "Speedup", "PF issued",
                             "PF dropped (filter)", "Push redundant"});
    for (std::size_t ai = 0; ai < apps.size(); ++ai) {
        const driver::RunResult &base = results[ai * per_app];
        for (std::size_t si = 0; si < sizes.size(); ++si) {
            const driver::RunResult &r =
                results[ai * per_app + 1 + si];
            table.addRow(
                {apps[ai], std::to_string(sizes[si]),
                 driver::fmt(r.speedup(base)),
                 std::to_string(r.stats.counter("memsys.queue3.issued")),
                 std::to_string(
                     r.stats.counter("memsys.queue3.drops.filter")),
                 std::to_string(driver::pushRedundant(r))});
            harness.metric(sim::strformat("speedup_%s_filter%u",
                                          apps[ai].c_str(),
                                          sizes[si]),
                           r.speedup(base));
        }
    }
    table.print("Ablation: Filter module size (Repl)");
    harness.writeJson();
    return 0;
}
