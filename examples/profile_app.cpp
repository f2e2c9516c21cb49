/**
 * @file
 * Using the ULMT for application profiling (Section 3.3.3 / 7).
 *
 * The paper suggests the memory thread "can monitor the misses of an
 * application and infer higher-level information such as cache
 * performance, application access patterns, or page conflicts".  This
 * example attaches the observe-only profiling ULMT to an application
 * and prints what it inferred: hottest pages, hottest L2 sets
 * (conflict candidates), footprint and sequentiality -- with zero
 * cost to the main processor.
 *
 * Usage: profile_app [app] [scale]
 */

#include <cstdio>

#include "core/profiler.hh"
#include "core/ulmt_engine.hh"
#include "driver/experiment.hh"
#include "driver/report.hh"

int
main(int argc, char **argv)
{
    const std::string app = argc > 1 ? argv[1] : "Sparse";
    driver::ExperimentOptions opt;
    opt.scale = driver::scaleArg(argc, argv, 2, 0.25);

    workloads::WorkloadParams wp;
    wp.seed = opt.seed;
    wp.scale = opt.scale;
    auto workload = workloads::makeWorkload(app, wp);

    driver::SystemConfig cfg = driver::noPrefConfig(opt);
    cfg.label = "Profile";
    driver::System sys(cfg, *workload);

    auto profiler = std::make_unique<core::ProfilingUlmt>(
        4096, cfg.timing.l2.numSets(), cfg.timing.l2.lineBytes);
    core::ProfilingUlmt *prof = profiler.get();
    core::UlmtEngine engine(sys.eventQueue(), sys.config().timing,
                            sys.memorySystem(), std::move(profiler));
    sys.memorySystem().setObserver(&engine, /*verbose=*/false);

    const driver::RunResult r = sys.run();
    const core::MissProfile p = prof->report(8);

    std::printf("== ULMT profile of %s (scale %.2f) ==\n", app.c_str(),
                opt.scale);
    std::printf("observed misses:      %llu\n",
                static_cast<unsigned long long>(p.misses));
    std::printf("distinct miss lines:  %llu  (~%.1f KB footprint)\n",
                static_cast<unsigned long long>(p.distinctLines),
                static_cast<double>(p.distinctLines) * 64 / 1024.0);
    std::printf("sequential fraction:  %s\n",
                driver::fmtPercent(p.sequentialFraction).c_str());
    std::printf("ULMT occupancy:       %.0f cycles/miss (IPC %.2f)\n",
                engine.stats().occupancyTime.mean(),
                engine.stats().ipc());

    driver::TextTable pages({"Page", "Misses"});
    for (const auto &[page, count] : p.hottestPages) {
        pages.addRow({sim::strformat("0x%llx",
                                     (unsigned long long)(page * 4096)),
                      std::to_string(count)});
    }
    pages.print("Hottest pages");

    driver::TextTable sets({"L2 set", "Misses", "Pressure"});
    const double even =
        static_cast<double>(p.misses) / cfg.timing.l2.numSets();
    for (const auto &[set, count] : p.hottestSets) {
        sets.addRow({std::to_string(set), std::to_string(count),
                     driver::fmt(static_cast<double>(count) /
                                 (even > 0 ? even : 1.0), 1) + "x"});
    }
    sets.print("Hottest L2 sets (conflict candidates)");

    std::printf("\nRun cost to the application: none beyond NoPref "
                "(%llu cycles).\n",
                static_cast<unsigned long long>(r.cycles));
    return 0;
}
