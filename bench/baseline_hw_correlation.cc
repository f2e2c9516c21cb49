/**
 * @file
 * Baseline: hardware correlation prefetching vs the ULMT.
 *
 * Section 2.2's critique of prior pair-based prefetchers is that they
 * need large dedicated SRAM tables (1-2 MB on chip, up to 7.6 MB off
 * chip).  This bench races such an engine -- ideally placed at the L2,
 * reacting in a few cycles, but capped by its SRAM budget -- against
 * the ULMT running Replicated out of cheap main memory.
 *
 * The expected shape: the hardware engine with a big-enough table wins
 * slightly (no response-time gap), but at 1 MB or less it loses table
 * capacity on the big-footprint applications, while the ULMT sizes its
 * software table per application for free.
 *
 * Usage: baseline_hw_correlation [scale] [--jobs=N]
 */

#include <cstdio>

#include "bench/harness.hh"
#include "driver/experiment.hh"
#include "driver/report.hh"
#include "driver/runner.hh"

namespace {

driver::SystemConfig
hwConfig(const driver::ExperimentOptions &opt, std::size_t sram_bytes,
         bool replicated)
{
    driver::SystemConfig cfg = driver::noPrefConfig(opt);
    cfg.hwCorrSramBytes = sram_bytes;
    cfg.hwCorrReplicated = replicated;
    cfg.label = "HW";
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::Options bopt = bench::parseArgs(argc, argv, 1.0);
    const driver::ExperimentOptions &opt = bopt.experiment;
    bench::Harness harness("baseline_hw_correlation", bopt);

    const std::vector<std::string> apps = bopt.appList();
    std::vector<driver::Job> jobs;
    for (const std::string &app : apps) {
        jobs.push_back({app, driver::noPrefConfig(opt), opt});
        jobs.push_back({app, hwConfig(opt, 1 << 20, false), opt});
        jobs.push_back({app, hwConfig(opt, 1 << 20, true), opt});
        jobs.push_back({app, hwConfig(opt, 4 << 20, true), opt});
        jobs.push_back(
            {app, driver::ulmtConfig(opt, core::UlmtAlgo::Repl, app),
             opt});
    }
    const std::size_t per_app = 5;

    const std::vector<driver::RunResult> results =
        driver::runAll(jobs);
    harness.recordAll(results);

    driver::TextTable table({"Appl", "HW-Base 1MB", "HW-Repl 1MB",
                             "HW-Repl 4MB", "ULMT Repl (no SRAM)"});
    std::vector<double> hw1, hwr1, hwr4, ulmt;
    for (std::size_t ai = 0; ai < apps.size(); ++ai) {
        const driver::RunResult &base = results[ai * per_app];
        const double s_hw1 = results[ai * per_app + 1].speedup(base);
        const double s_hwr1 = results[ai * per_app + 2].speedup(base);
        const double s_hwr4 = results[ai * per_app + 3].speedup(base);
        const double s_ulmt = results[ai * per_app + 4].speedup(base);
        hw1.push_back(s_hw1);
        hwr1.push_back(s_hwr1);
        hwr4.push_back(s_hwr4);
        ulmt.push_back(s_ulmt);
        table.addRow({apps[ai], driver::fmt(s_hw1),
                      driver::fmt(s_hwr1), driver::fmt(s_hwr4),
                      driver::fmt(s_ulmt)});
    }
    table.addRow({"Average", driver::fmt(driver::mean(hw1)),
                  driver::fmt(driver::mean(hwr1)),
                  driver::fmt(driver::mean(hwr4)),
                  driver::fmt(driver::mean(ulmt))});
    table.print("Baseline: dedicated-SRAM hardware correlation "
                "engines vs the ULMT (speedup over NoPref)");
    std::puts("\nThe ULMT's table is ordinary main memory sized per "
              "application (Table 2);\nthe hardware engines pay for "
              "every byte of SRAM.");

    harness.metric("avg_speedup_hw_base_1mb", driver::mean(hw1));
    harness.metric("avg_speedup_hw_repl_1mb", driver::mean(hwr1));
    harness.metric("avg_speedup_hw_repl_4mb", driver::mean(hwr4));
    harness.metric("avg_speedup_ulmt_repl", driver::mean(ulmt));
    harness.writeJson();
    return 0;
}
