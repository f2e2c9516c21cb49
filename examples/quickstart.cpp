/**
 * @file
 * Quickstart: simulate one application under four prefetching
 * configurations and report the speedups.
 *
 * Usage:  quickstart [app] [scale]
 *         quickstart Mcf 0.25
 */

#include <cstdio>
#include <string>

#include "driver/experiment.hh"
#include "driver/report.hh"

int
main(int argc, char **argv)
{
    const std::string app = argc > 1 ? argv[1] : "Mcf";
    driver::ExperimentOptions opt;
    opt.scale = driver::scaleArg(argc, argv, 2, 0.25);

    std::printf("Simulating %s (scale %.2f) ...\n", app.c_str(),
                opt.scale);

    const driver::RunResult base =
        driver::runOne(app, driver::noPrefConfig(opt), opt);

    driver::TextTable table({"Config", "Cycles", "L2 misses",
                             "Speedup"});
    // Results are read by the dotted names `ulmt-stats dump` prints.
    const auto misses = [](const driver::RunResult &r) {
        return std::to_string(r.stats.counter(r.coreStat("l2.misses")));
    };
    table.addRow(
        {base.label, std::to_string(base.cycles), misses(base), "1.00"});

    for (const driver::SystemConfig &cfg :
         {driver::conven4Config(opt),
          driver::ulmtConfig(opt, core::UlmtAlgo::Repl, app),
          driver::conven4PlusUlmtConfig(opt, core::UlmtAlgo::Repl,
                                        app)}) {
        const driver::RunResult r = driver::runOne(app, cfg, opt);
        table.addRow({r.label, std::to_string(r.cycles), misses(r),
                      driver::fmt(r.speedup(base))});
    }
    table.print(app + " under ULMT correlation prefetching");
    return 0;
}
