/**
 * @file
 * Inspect: run one application under one configuration and dump every
 * statistic the simulator collects -- the fastest way to understand
 * what the ULMT is doing on a workload.
 *
 * Usage:  inspect [app] [config] [scale]
 *         inspect Mcf Conven4+Repl 0.25
 *
 * Configs: NoPref, Conven4, Base, Chain, Repl, Seq1, Seq4,
 *          Conven4+<algo>, Custom, plus "MC" suffix for the
 *          North Bridge placement (e.g. Conven4+ReplMC).
 */

#include <algorithm>
#include <cstdio>
#include <string>

#include "driver/experiment.hh"
#include "driver/report.hh"

namespace {

driver::SystemConfig
parseConfig(std::string name, const std::string &app,
            driver::ExperimentOptions &opt)
{
    if (name.size() > 2 && name.substr(name.size() - 2) == "MC") {
        opt.placement = mem::MemProcPlacement::NorthBridge;
        name = name.substr(0, name.size() - 2);
    }
    if (name == "NoPref")
        return driver::noPrefConfig(opt);
    if (name == "Conven4")
        return driver::conven4Config(opt);
    if (name == "Custom") {
        bool customized = false;
        return driver::customConfig(opt, app, customized);
    }
    const std::string c4 = "Conven4+";
    if (name.rfind(c4, 0) == 0) {
        return driver::conven4PlusUlmtConfig(
            opt, core::parseUlmtAlgo(name.substr(c4.size())), app);
    }
    return driver::ulmtConfig(opt, core::parseUlmtAlgo(name), app);
}

void
line(const char *key, double value, const char *unit = "")
{
    std::printf("  %-28s %14.2f %s\n", key, value, unit);
}

void
line(const char *key, std::uint64_t value, const char *unit = "")
{
    std::printf("  %-28s %14llu %s\n", key,
                static_cast<unsigned long long>(value), unit);
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string app = argc > 1 ? argv[1] : "Mcf";
    const std::string config = argc > 2 ? argv[2] : "Repl";
    driver::ExperimentOptions opt;
    opt.scale = driver::scaleArg(argc, argv, 3, 0.25);

    driver::SystemConfig cfg = parseConfig(config, app, opt);
    const driver::RunResult r = driver::runOne(app, cfg, opt);
    // Every statistic is read by the dotted name `ulmt-stats dump`
    // prints; a machine without a ULMT has no ulmt.* entries.
    const sim::StatSnapshot &s = r.stats;
    const auto n = [&s](const char *name) { return s.counter(name); };
    const auto mean = [&s](const char *name) {
        return s.sample(name).mean();
    };

    std::printf("== %s / %s (scale %.2f) ==\n", app.c_str(),
                r.label.c_str(), opt.scale);
    std::printf("[processor]\n");
    line("cycles", r.cycles);
    line("records", r.records);
    line("busy", n("proc.busy_cycles"));
    line("stall up-to-L2", n("proc.stall.upto_l2"));
    line("stall beyond-L2", n("proc.stall.beyond_l2"));
    line("busy fraction",
         100.0 * s.value("proc.busy_cycles") /
             static_cast<double>(r.cycles), "%");

    std::printf("[hierarchy]\n");
    line("loads", n("proc.loads"));
    line("L1 misses", n("l1.misses"));
    line("L2 demand misses", n("l2.misses"));
    line("L2 MSHR merges", n("l2.mshr.merges"));
    line("ULMT full hits", n("l2.push.hits"));
    line("ULMT delayed hits", n("l2.push.delayed_hits"));
    line("non-pf misses", n("l2.push.non_pref_misses"));
    line("pushed installed", n("l2.push.installed"));
    line("pushed redundant", driver::pushRedundant(r));
    line("pushed replaced unused", n("l2.push.replaced"));
    line("cpu-pf issued", n("cpu_pf.issued"));
    line("cpu-pf to memory", n("cpu_pf.to_memory"));
    line("cpu-pf useful", n("cpu_pf.useful"));
    line("cpu-pf timely", n("cpu_pf.timely"));

    std::printf("[memory system]\n");
    line("demand fetches", n("memsys.demand_fetches"));
    line("ulmt pf issued", n("memsys.queue3.issued"));
    line("ulmt pf drop filter", n("memsys.queue3.drops.filter"));
    line("ulmt pf drop q3 full", n("memsys.queue3.drops.queue_full"));
    line("ulmt pf drop demand match",
         n("memsys.queue3.drops.demand_match"));
    line("table reads (DRAM)", n("memsys.table.reads"));
    line("table writes (DRAM)", n("memsys.table.writes"));
    line("DRAM row-hit rate",
         100.0 * s.value("dram.row_hits") /
             std::max(s.value("dram.accesses"), 1.0),
         "%");
    line("bus utilization", 100.0 * r.busUtilization(), "%");
    line("bus util (prefetch)", 100.0 * r.busUtilizationPrefetch(),
         "%");

    if (s.has("ulmt.misses_processed")) {
        std::printf("[ULMT]\n");
        line("misses observed", n("ulmt.misses_observed"));
        line("misses processed", n("ulmt.misses_processed"));
        line("dropped q2 full", n("ulmt.queue2.drops"));
        line("prefetches generated", n("ulmt.prefetches_generated"));
        line("response time (mean)", mean("ulmt.response_cycles"),
             "cycles");
        line("response busy (mean)", mean("ulmt.response_busy"),
             "cycles");
        line("response mem (mean)", mean("ulmt.response_mem"), "cycles");
        line("response max", s.sample("ulmt.response_cycles").max(),
             "cycles");
        line("occupancy time (mean)", mean("ulmt.occupancy_cycles"),
             "cycles");
        line("IPC", s.value("ulmt.ipc"));
        if (const double processed = s.value("ulmt.misses_processed")) {
            line("table DRAM reads/miss",
                 s.value("memsys.table.reads") / processed);
            line("table DRAM writes/miss",
                 s.value("memsys.table.writes") / processed);
        }
    }

    const sim::BinnedHistogram &gaps = s.histogram("l2.miss_gap_cycles");
    std::printf("[miss gaps]  [0,80) %.1f%%  [80,200) %.1f%%  "
                "[200,280) %.1f%%  [280,inf) %.1f%%\n",
                100 * gaps.binFraction(0), 100 * gaps.binFraction(1),
                100 * gaps.binFraction(2), 100 * gaps.binFraction(3));
    return 0;
}
