/**
 * @file
 * Figure 8: impact of the memory-processor location.
 *
 * Compares NoPref, Conven4+Repl with the memory processor in the DRAM
 * chip, and Conven4+Repl with the memory processor in the North
 * Bridge (Conven4+ReplMC): twice the table-access latency, an extra
 * 25-cycle prefetch-injection delay, and channel-crossing table
 * traffic.  The paper's point: Repl prefetches far enough ahead that
 * the cheaper North Bridge placement loses very little (1.46 -> 1.41
 * average speedup).
 *
 * Usage: fig8_location [scale] [--jobs=N]
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
    bench::Harness harness("fig8_location", bopt);

    const std::vector<std::string> apps = bopt.appList();
    std::vector<driver::Job> jobs;
    for (const std::string &app : apps) {
        driver::ExperimentOptions nb = opt;
        nb.placement = mem::MemProcPlacement::NorthBridge;
        driver::SystemConfig nb_cfg = driver::conven4PlusUlmtConfig(
            nb, core::UlmtAlgo::Repl, app);
        nb_cfg.label = "Conven4+ReplMC";

        jobs.push_back({app, driver::noPrefConfig(opt), opt});
        jobs.push_back({app,
                        driver::conven4PlusUlmtConfig(
                            opt, core::UlmtAlgo::Repl, app),
                        opt});
        jobs.push_back({app, std::move(nb_cfg), nb});
    }
    const std::vector<driver::RunResult> results =
        driver::runAll(jobs);
    harness.recordAll(results);

    driver::TextTable table({"Appl", "Config", "Norm.time", "Busy",
                             "UptoL2", "BeyondL2", "Speedup"});

    std::vector<double> dram_sp, nb_sp;
    for (std::size_t ai = 0; ai < apps.size(); ++ai) {
        const driver::RunResult &base = results[ai * 3];
        const driver::RunResult &in_dram = results[ai * 3 + 1];
        const driver::RunResult &in_nb = results[ai * 3 + 2];

        for (const driver::RunResult *r : {&base, &in_dram, &in_nb}) {
            const std::vector<std::string> parts =
                bench::cycleBreakdown(*r, base);
            table.addRow({apps[ai], r->label,
                          driver::fmt(r->normalizedTime(base)), parts[0],
                          parts[1], parts[2],
                          driver::fmt(r->speedup(base))});
        }
        dram_sp.push_back(in_dram.speedup(base));
        nb_sp.push_back(in_nb.speedup(base));
    }
    table.print("Figure 8: memory-processor location");

    driver::TextTable avg({"Config", "Avg speedup", "Paper"});
    avg.addRow({"Conven4+Repl (in DRAM)",
                driver::fmt(driver::mean(dram_sp)), "1.46"});
    avg.addRow({"Conven4+ReplMC (North Bridge)",
                driver::fmt(driver::mean(nb_sp)), "1.41"});
    avg.print("Figure 8: average speedups");

    harness.metric("avg_speedup_in_dram", driver::mean(dram_sp));
    harness.metric("avg_speedup_north_bridge", driver::mean(nb_sp));
    harness.writeJson();
    return 0;
}
