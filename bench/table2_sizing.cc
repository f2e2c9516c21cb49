/**
 * @file
 * Table 2: per-application correlation-table sizing.
 *
 * For each application, reports the NumRows used (the paper sizes
 * NumRows as the lowest power of two keeping insertion replacements
 * under 5% with the trivial low-bits hash) and the resulting table
 * sizes for Base (20 B/row), Chain (12 B/row) and Repl (28 B/row) --
 * plus this repo's measured replacement rate at that NumRows, obtained
 * by replaying the application's NoPref miss stream into each table.
 *
 * Miss-stream capture and the per-application replays both run through
 * the parallel runner.
 *
 * Usage: table2_sizing [scale] [--jobs=N]
 */

#include <cstdio>
#include <functional>

#include "bench/harness.hh"
#include "core/base_chain.hh"
#include "core/replicated.hh"
#include "driver/experiment.hh"
#include "driver/report.hh"
#include "driver/runner.hh"

namespace {

double
replacementRate(core::CorrelationPrefetcher &algo,
                const std::vector<sim::Addr> &stream)
{
    core::NullCostTracker cost;
    std::vector<sim::Addr> discard;
    for (sim::Addr miss : stream) {
        discard.clear();
        algo.prefetchStep(miss, discard, cost);
        algo.learnStep(miss, cost);
    }
    return algo.insertions()
               ? static_cast<double>(algo.replacements()) /
                     static_cast<double>(algo.insertions())
               : 0.0;
}

struct Sizing
{
    double base_mb = 0, chain_mb = 0, repl_mb = 0, rate = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    const bench::Options bopt = bench::parseArgs(argc, argv, 1.0);
    const driver::ExperimentOptions &opt = bopt.experiment;
    bench::Harness harness("table2_sizing", bopt);

    const std::vector<std::string> apps = bopt.appList();
    const std::vector<driver::RunResult> captures =
        driver::captureMissStreamRuns(apps, opt);
    harness.recordAll(captures);

    // One replay chunk per application, each writing its own slot.
    std::vector<Sizing> sizing(apps.size());
    std::vector<std::function<void()>> chunks;
    for (std::size_t ai = 0; ai < apps.size(); ++ai) {
        chunks.push_back([&, ai] {
            const std::uint32_t rows =
                workloads::tableNumRows(apps[ai]);
            const std::vector<sim::Addr> &stream =
                captures[ai].missStream;

            core::BasePrefetcher base(core::baseDefaults(rows));
            core::ChainPrefetcher chain(
                core::chainReplDefaults(rows));
            core::ReplicatedPrefetcher repl(
                core::chainReplDefaults(rows));
            Sizing &s = sizing[ai];
            s.rate = replacementRate(base, stream);
            replacementRate(chain, stream);
            replacementRate(repl, stream);

            const double mb = 1024.0 * 1024.0;
            s.base_mb = static_cast<double>(base.tableBytes()) / mb;
            s.chain_mb = static_cast<double>(chain.tableBytes()) / mb;
            s.repl_mb = static_cast<double>(repl.tableBytes()) / mb;
        });
    }
    driver::parallelInvoke(chunks);

    driver::TextTable table({"Appl", "NumRows(K)", "Base(MB)",
                             "Chain(MB)", "Repl(MB)", "repl-rate"});
    double sum_rows = 0, sum_base = 0, sum_chain = 0, sum_repl = 0;
    for (std::size_t ai = 0; ai < apps.size(); ++ai) {
        const std::uint32_t rows = workloads::tableNumRows(apps[ai]);
        const Sizing &s = sizing[ai];
        sum_rows += rows / 1024.0;
        sum_base += s.base_mb;
        sum_chain += s.chain_mb;
        sum_repl += s.repl_mb;
        table.addRow({apps[ai], driver::fmt(rows / 1024.0, 0),
                      driver::fmt(s.base_mb, 1),
                      driver::fmt(s.chain_mb, 1),
                      driver::fmt(s.repl_mb, 1),
                      driver::fmtPercent(s.rate)});
        harness.metric("repl_rate_" + apps[ai], s.rate);
    }
    const double n = static_cast<double>(apps.size());
    table.addRow({"Average", driver::fmt(sum_rows / n, 0),
                  driver::fmt(sum_base / n, 1),
                  driver::fmt(sum_chain / n, 1),
                  driver::fmt(sum_repl / n, 1), "-"});

    table.print("Table 2: correlation table sizes");
    harness.metric("avg_base_mb", sum_base / n);
    harness.metric("avg_chain_mb", sum_chain / n);
    harness.metric("avg_repl_mb", sum_repl / n);
    harness.writeJson();
    return 0;
}
