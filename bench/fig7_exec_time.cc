/**
 * @file
 * Figure 7: execution time of the applications under the different
 * prefetching algorithms, with the memory processor in the DRAM chip.
 *
 * For every application prints the normalized execution time (relative
 * to NoPref) decomposed into Busy / UptoL2 / BeyondL2, for NoPref,
 * Conven4, Base, Chain, Repl, Conven4+Repl and Custom (the Table 5
 * customizations for CG, MST and Mcf), then the average speedups the
 * paper headlines: Repl alone, Conven4+Repl, and with customization.
 *
 * Usage: fig7_exec_time [scale] [--jobs=N]
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
    bench::Harness harness("fig7_exec_time", bopt);

    const std::vector<std::string> apps = bopt.appList();
    std::vector<driver::Job> jobs;
    for (const std::string &app : apps) {
        jobs.push_back({app, driver::noPrefConfig(opt), opt});
        jobs.push_back({app, driver::conven4Config(opt), opt});
        jobs.push_back(
            {app, driver::ulmtConfig(opt, core::UlmtAlgo::Base, app),
             opt});
        jobs.push_back(
            {app, driver::ulmtConfig(opt, core::UlmtAlgo::Chain, app),
             opt});
        jobs.push_back(
            {app, driver::ulmtConfig(opt, core::UlmtAlgo::Repl, app),
             opt});
        jobs.push_back({app,
                        driver::conven4PlusUlmtConfig(
                            opt, core::UlmtAlgo::Repl, app),
                        opt});
        bool customized = false;
        jobs.push_back(
            {app, driver::customConfig(opt, app, customized), opt});
    }
    const std::size_t per_app = jobs.size() / apps.size();

    const std::vector<driver::RunResult> results =
        driver::runAll(jobs);
    harness.recordAll(results);

    driver::TextTable table({"Appl", "Config", "Norm.time", "Busy",
                             "UptoL2", "BeyondL2", "Speedup"});

    std::vector<double> repl_sp, c4_sp, c4repl_sp, custom_sp, base_sp,
        chain_sp;

    for (std::size_t ai = 0; ai < apps.size(); ++ai) {
        const std::string &app = apps[ai];
        const driver::RunResult &base = results[ai * per_app];

        for (std::size_t i = 0; i < per_app; ++i) {
            const driver::RunResult &r = results[ai * per_app + i];
            const std::vector<std::string> parts =
                bench::cycleBreakdown(r, base);
            const double sp = r.speedup(base);
            table.addRow({app, r.label,
                          driver::fmt(r.normalizedTime(base)), parts[0],
                          parts[1], parts[2], driver::fmt(sp)});
            if (r.label == "Conven4")
                c4_sp.push_back(sp);
            else if (r.label == "Base")
                base_sp.push_back(sp);
            else if (r.label == "Chain")
                chain_sp.push_back(sp);
            else if (r.label == "Repl")
                repl_sp.push_back(sp);
            else if (r.label == "Conven4+Repl")
                c4repl_sp.push_back(sp);
            else if (r.label == "Custom")
                custom_sp.push_back(sp);
        }
    }
    table.print("Figure 7: normalized execution time "
                "(memory processor in DRAM)");

    driver::TextTable avg({"Config", "Avg speedup", "Paper"});
    avg.addRow({"Conven4", driver::fmt(driver::mean(c4_sp)), "1.21"});
    avg.addRow({"Base", driver::fmt(driver::mean(base_sp)), "1.06"});
    avg.addRow({"Chain", driver::fmt(driver::mean(chain_sp)), "1.14"});
    avg.addRow({"Repl", driver::fmt(driver::mean(repl_sp)), "1.32"});
    avg.addRow({"Conven4+Repl", driver::fmt(driver::mean(c4repl_sp)),
                "1.46"});
    avg.addRow({"with Custom", driver::fmt(driver::mean(custom_sp)),
                "1.53"});
    avg.print("Figure 7: average speedups over NoPref");

    harness.metric("avg_speedup_conven4", driver::mean(c4_sp));
    harness.metric("avg_speedup_base", driver::mean(base_sp));
    harness.metric("avg_speedup_chain", driver::mean(chain_sp));
    harness.metric("avg_speedup_repl", driver::mean(repl_sp));
    harness.metric("avg_speedup_conven4_repl",
                   driver::mean(c4repl_sp));
    harness.metric("avg_speedup_custom", driver::mean(custom_sp));
    harness.writeJson();
    return 0;
}
