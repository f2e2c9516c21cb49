/**
 * @file
 * Table 1: measured comparison of the pair-based correlation
 * algorithms running on a ULMT.
 *
 * The paper's table is analytic; this bench measures the same
 * characteristics from the implementations on a repeating synthetic
 * miss stream: levels of successors prefetched, whether each level
 * keeps true MRU order, row accesses per Prefetching/Learning step,
 * response time, and the table space per row.
 *
 * Host-side only (no simulation), so there is nothing to parallelize;
 * the bench still emits BENCH_table1_characteristics.json.
 *
 * Usage: table1_characteristics [scale] [--jobs=N]
 */

#include <cstdio>
#include <memory>

#include "bench/harness.hh"
#include "core/base_chain.hh"
#include "core/cost.hh"
#include "core/replicated.hh"
#include "driver/report.hh"

namespace {

/** Counts row-sized table reads/writes (the "row accesses"). */
class CountingCost : public core::CostTracker
{
  public:
    void instr(std::uint32_t n) override { instrs += n; }
    void
    memRead(sim::Addr, std::uint32_t bytes) override
    {
        if (bytes > 8)
            ++rowReads;
    }
    void
    memWrite(sim::Addr, std::uint32_t bytes) override
    {
        ++rowWrites;
        (void)bytes;
    }

    std::uint64_t instrs = 0;
    std::uint64_t rowReads = 0;
    std::uint64_t rowWrites = 0;
};

/** A repeating miss stream with an irregular but fixed pattern. */
std::vector<sim::Addr>
syntheticStream()
{
    std::vector<sim::Addr> pattern;
    for (int i = 0; i < 512; ++i) {
        // A fixed pseudo-random permutation of lines.
        pattern.push_back(static_cast<sim::Addr>(
                              (i * 2654435761u) % 4096) *
                          64);
    }
    std::vector<sim::Addr> stream;
    for (int rep = 0; rep < 20; ++rep)
        stream.insert(stream.end(), pattern.begin(), pattern.end());
    return stream;
}

struct Measured
{
    double prefetchRowAccesses;
    double learnRowAccesses;
    double instrsPerMiss;
    std::size_t bytesPerRow;
};

Measured
measure(core::CorrelationPrefetcher &algo, std::uint32_t num_rows)
{
    const std::vector<sim::Addr> stream = syntheticStream();
    CountingCost pf_cost, learn_cost;
    std::vector<sim::Addr> out;
    for (sim::Addr miss : stream) {
        out.clear();
        algo.prefetchStep(miss, out, pf_cost);
        algo.learnStep(miss, learn_cost);
    }
    const double n = static_cast<double>(stream.size());
    return Measured{
        static_cast<double>(pf_cost.rowReads) / n,
        static_cast<double>(learn_cost.rowReads +
                            learn_cost.rowWrites) /
            n,
        static_cast<double>(pf_cost.instrs + learn_cost.instrs) / n,
        algo.tableBytes() / num_rows,
    };
}

} // namespace

int
main(int argc, char **argv)
{
    // Host-side only: no simulated machine or run to configure.
    const bench::Options bopt = bench::parseArgs(
        argc, argv, 1.0,
        {"--apps", "--trace-events", "--checkpoint-at", "--checkpoint-to",
         "--restore-from", "machine"});
    bench::Harness harness("table1_characteristics", bopt);

    constexpr std::uint32_t rows = 8192;
    core::BasePrefetcher base(core::baseDefaults(rows));
    core::ChainPrefetcher chain(core::chainReplDefaults(rows));
    core::ReplicatedPrefetcher repl(core::chainReplDefaults(rows));

    driver::TextTable table({"Characteristic", "Base", "Chain",
                             "Repl"});
    const Measured mb = measure(base, rows);
    const Measured mc = measure(chain, rows);
    const Measured mr = measure(repl, rows);

    table.addRow({"Levels of successors prefetched", "1", "3", "3"});
    table.addRow({"True MRU ordering per level?", "Yes", "No", "Yes"});
    table.addRow({"Prefetch-step row accesses (SEARCH)",
                  driver::fmt(mb.prefetchRowAccesses),
                  driver::fmt(mc.prefetchRowAccesses),
                  driver::fmt(mr.prefetchRowAccesses)});
    table.addRow({"Learning-step row accesses (no search)",
                  driver::fmt(mb.learnRowAccesses),
                  driver::fmt(mc.learnRowAccesses),
                  driver::fmt(mr.learnRowAccesses)});
    table.addRow({"Instructions per observed miss",
                  driver::fmt(mb.instrsPerMiss, 1),
                  driver::fmt(mc.instrsPerMiss, 1),
                  driver::fmt(mr.instrsPerMiss, 1)});
    table.addRow({"Bytes per table row",
                  std::to_string(mb.bytesPerRow),
                  std::to_string(mc.bytesPerRow),
                  std::to_string(mr.bytesPerRow)});
    table.print("Table 1: algorithm characteristics (measured)");

    harness.metric("base_instrs_per_miss", mb.instrsPerMiss);
    harness.metric("chain_instrs_per_miss", mc.instrsPerMiss);
    harness.metric("repl_instrs_per_miss", mr.instrsPerMiss);
    harness.metric("base_bytes_per_row",
                   static_cast<double>(mb.bytesPerRow));
    harness.metric("chain_bytes_per_row",
                   static_cast<double>(mc.bytesPerRow));
    harness.metric("repl_bytes_per_row",
                   static_cast<double>(mr.bytesPerRow));
    harness.writeJson();
    return 0;
}
