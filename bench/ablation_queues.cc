/**
 * @file
 * Ablation: depth of the observation/prefetch queues (Fig. 3's
 * queues, all 16 deep in the paper).
 *
 * A shallow queue 2 drops observed misses when the ULMT falls behind
 * (lost learning + lost prefetch opportunities); a shallow queue 3
 * throttles prefetches in flight.  The sweep shows how deep the
 * queues must be before the ULMT stops losing work.
 *
 * Usage: ablation_queues [scale] [--jobs=N]
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
    bench::Harness harness("ablation_queues", bopt);

    const std::vector<std::string> apps = {"Mcf", "Sparse", "Gap"};
    const std::vector<std::uint32_t> depths = {2, 4, 8, 16, 64};

    std::vector<driver::Job> jobs;
    for (const std::string &app : apps) {
        jobs.push_back({app, driver::noPrefConfig(opt), opt});
        for (std::uint32_t depth : depths) {
            driver::SystemConfig cfg =
                driver::ulmtConfig(opt, core::UlmtAlgo::Repl, app);
            cfg.timing.queueDepth = depth;
            jobs.push_back({app, std::move(cfg), opt});
        }
    }
    const std::size_t per_app = 1 + depths.size();

    const std::vector<driver::RunResult> results =
        driver::runAll(jobs);
    harness.recordAll(results);

    driver::TextTable table({"Appl", "Depth", "Speedup",
                             "Obs dropped", "PF dropped (q3)"});
    for (std::size_t ai = 0; ai < apps.size(); ++ai) {
        const driver::RunResult &base = results[ai * per_app];
        for (std::size_t di = 0; di < depths.size(); ++di) {
            const driver::RunResult &r =
                results[ai * per_app + 1 + di];
            table.addRow(
                {apps[ai], std::to_string(depths[di]),
                 driver::fmt(r.speedup(base)),
                 std::to_string(
                     r.stats.counter(r.engineStat("queue2.drops"))),
                 std::to_string(r.stats.counter(
                     "memsys.queue3.drops.queue_full"))});
            harness.metric(sim::strformat("speedup_%s_depth%u",
                                          apps[ai].c_str(),
                                          depths[di]),
                           r.speedup(base));
        }
    }
    table.print("Ablation: queue depth sweep (Repl)");
    harness.writeJson();
    return 0;
}
