/**
 * @file
 * Ablation: the conflict-elimination customization (Section 7).
 *
 * The paper closes by noting that "customization for cache conflict
 * elimination should improve Sparse and Tree, the applications with
 * the smallest speedups".  This bench runs the conflict-aware wrapper
 * (Repl+CA: Replicated with pushes into saturated L2 sets suppressed)
 * against plain Replicated on the conflict-limited applications and
 * on a well-behaved one (Mcf) to check it does no harm there.
 *
 * Usage: ablation_conflict [scale] [--jobs=N]
 */

#include <cstdio>
#include <cstdint>

#include "bench/harness.hh"
#include "driver/experiment.hh"
#include "driver/report.hh"
#include "driver/runner.hh"

int
main(int argc, char **argv)
{
    // The figure fixes its application list.
    const bench::Options bopt =
        bench::parseArgs(argc, argv, 1.0, {"--apps"});
    const driver::ExperimentOptions &opt = bopt.experiment;
    bench::Harness harness("ablation_conflict", bopt);

    const std::vector<std::string> apps = {"Sparse", "Tree", "Mcf"};
    const std::vector<core::UlmtAlgo> algos = {core::UlmtAlgo::Repl,
                                               core::UlmtAlgo::ReplCA};

    std::vector<driver::Job> jobs;
    for (const std::string &app : apps) {
        jobs.push_back({app, driver::noPrefConfig(opt), opt});
        for (core::UlmtAlgo algo : algos) {
            jobs.push_back(
                {app,
                 driver::conven4PlusUlmtConfig(opt, algo, app), opt});
        }
    }
    const std::size_t per_app = 1 + algos.size();

    const std::vector<driver::RunResult> results =
        driver::runAll(jobs);
    harness.recordAll(results);

    driver::TextTable table({"Appl", "Config", "Speedup", "Hits",
                             "Replaced", "New conflict misses"});
    for (std::size_t ai = 0; ai < apps.size(); ++ai) {
        const driver::RunResult &base = results[ai * per_app];
        for (std::size_t ci = 0; ci < algos.size(); ++ci) {
            const driver::RunResult &r =
                results[ai * per_app + 1 + ci];
            const auto n = [](const driver::RunResult &x,
                              const char *leaf) {
                return x.stats.counter(x.coreStat(leaf));
            };
            const std::int64_t extra =
                static_cast<std::int64_t>(n(r, "l2.push.non_pref_misses") +
                                          n(r, "l2.push.hits") +
                                          n(r, "l2.push.delayed_hits")) -
                static_cast<std::int64_t>(n(base, "l2.misses"));
            table.addRow({apps[ai], r.label,
                          driver::fmt(r.speedup(base)),
                          std::to_string(n(r, "l2.push.hits")),
                          std::to_string(n(r, "l2.push.replaced")),
                          std::to_string(extra)});
            harness.metric("speedup_" + apps[ai] + "_" + r.label,
                           r.speedup(base));
        }
    }
    table.print("Ablation: conflict-aware push suppression "
                "(Conven4 on)");
    harness.writeJson();
    return 0;
}
