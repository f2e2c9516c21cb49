/**
 * @file
 * Figure 6: distribution of the time between two consecutive L2
 * misses arriving at memory (NoPref runs), binned as in the paper:
 * [0,80), [80,200), [200,280), [280,inf) 1.6 GHz cycles.
 *
 * The [200,280) bin matters most: it holds the dependent misses whose
 * latency out-of-order execution cannot hide, and its weight bounds
 * the occupancy budget of the ULMT (must stay under ~200 cycles).
 *
 * Usage: fig6_miss_gaps [scale] [--jobs=N]
 */

#include <cstdio>

#include "bench/harness.hh"
#include "driver/experiment.hh"
#include "driver/report.hh"
#include "driver/runner.hh"

int
main(int argc, char **argv)
{
    const bench::Options bopt = bench::parseArgs(argc, argv, 1.0);
    const driver::ExperimentOptions &opt = bopt.experiment;
    bench::Harness harness("fig6_miss_gaps", bopt);

    const std::vector<std::string> apps = bopt.appList();
    std::vector<driver::Job> jobs;
    for (const std::string &app : apps)
        jobs.push_back({app, driver::noPrefConfig(opt), opt});
    const std::vector<driver::RunResult> results =
        driver::runAll(jobs);
    harness.recordAll(results);

    driver::TextTable table({"Appl", "[0,80)", "[80,200)", "[200,280)",
                             "[280,inf)"});
    std::vector<double> sums(4, 0.0);

    for (std::size_t ai = 0; ai < apps.size(); ++ai) {
        const driver::RunResult &r = results[ai];
        const sim::BinnedHistogram &gaps =
            r.stats.histogram(r.coreStat("l2.miss_gap_cycles"));
        std::vector<std::string> row = {apps[ai]};
        for (std::size_t b = 0; b < 4; ++b) {
            row.push_back(driver::fmtPercent(gaps.binFraction(b)));
            sums[b] += gaps.binFraction(b);
        }
        table.addRow(row);
    }
    std::vector<std::string> avg = {"Average"};
    for (int b = 0; b < 4; ++b) {
        const double v = sums[static_cast<std::size_t>(b)] /
                         static_cast<double>(apps.size());
        avg.push_back(driver::fmtPercent(v));
        harness.metric(sim::strformat("avg_gap_bin%d", b), v);
    }
    table.addRow(avg);
    table.print("Figure 6: time between consecutive L2 misses "
                "(NoPref)");
    harness.writeJson();
    return 0;
}
