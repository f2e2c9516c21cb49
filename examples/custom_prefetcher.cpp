/**
 * @file
 * Writing your own ULMT algorithm.
 *
 * The paper's headline flexibility claim is that the prefetching
 * algorithm is just user software: "the prefetching algorithm executed
 * by the ULMT can be customized by the programmer on an application
 * basis" (Section 3.3.3).  This example implements a new algorithm --
 * a delta (stride-pair) predictor that correlates each miss with the
 * address deltas that followed it -- plugs it into the engine
 * unchanged, and races it against the paper's Replicated algorithm on
 * two applications.
 */

#include <cstdio>
#include <unordered_map>

#include "core/correlation_prefetcher.hh"
#include "core/ulmt_engine.hh"
#include "driver/experiment.hh"
#include "driver/report.hh"

namespace {

/**
 * A user-written ULMT algorithm: per miss line, remember the last two
 * address deltas to the following misses and prefetch by replaying
 * them.  Deltas generalize across structures that shift in memory, at
 * the cost of confusing unrelated contexts -- a different trade-off
 * than the paper's absolute-successor tables.
 */
class DeltaPrefetcher : public core::CorrelationPrefetcher
{
  public:
    std::string name() const override { return "UserDelta"; }
    std::uint32_t levels() const override { return 2; }

    void
    prefetchStep(sim::Addr miss_line, std::vector<sim::Addr> &out,
                 core::CostTracker &cost) override
    {
        cost.instr(core::cost::hashRow);
        auto it = deltas_.find(miss_line);
        // The delta table is software state in memory, like any table.
        cost.memRead(tableBase_ + (miss_line / 64 % 65536) * 16, 16);
        if (it == deltas_.end())
            return;
        sim::Addr at = miss_line;
        for (std::int64_t d : it->second) {
            if (d == 0)
                break;
            at = static_cast<sim::Addr>(
                static_cast<std::int64_t>(at) + d);
            cost.instr(core::cost::emitPrefetch);
            out.push_back(at);
        }
    }

    void
    learnStep(sim::Addr miss_line, core::CostTracker &cost) override
    {
        cost.instr(core::cost::succInsert);
        if (haveLast_) {
            const std::int64_t d =
                static_cast<std::int64_t>(miss_line) -
                static_cast<std::int64_t>(last_);
            auto &ds = deltas_[last_];
            ds[1] = ds[0];
            ds[0] = d;
            cost.memWrite(tableBase_ + (last_ / 64 % 65536) * 16, 16);
        }
        last_ = miss_line;
        haveLast_ = true;
    }

    void
    predict(sim::Addr miss_line,
            core::LevelPredictions &out) const override
    {
        out.assign(2, {});
        auto it = deltas_.find(miss_line);
        if (it == deltas_.end())
            return;
        sim::Addr at = miss_line;
        for (std::size_t lvl = 0; lvl < 2; ++lvl) {
            if (it->second[lvl] == 0)
                break;
            at = static_cast<sim::Addr>(
                static_cast<std::int64_t>(at) + it->second[lvl]);
            out[lvl].push_back(at);
        }
    }

    std::size_t tableBytes() const override
    {
        return deltas_.size() * 16;
    }

  private:
    static constexpr sim::Addr tableBase_ = 0x50'0000'0000ULL;
    std::unordered_map<sim::Addr, std::array<std::int64_t, 2>> deltas_;
    sim::Addr last_ = 0;
    bool haveLast_ = false;
};

/** Run one app with a caller-supplied algorithm instance. */
driver::RunResult
runWithAlgorithm(const std::string &app,
                 std::unique_ptr<core::CorrelationPrefetcher> algo,
                 const driver::ExperimentOptions &opt,
                 const std::string &label)
{
    workloads::WorkloadParams wp;
    wp.seed = opt.seed;
    wp.scale = opt.scale;
    auto workload = workloads::makeWorkload(app, wp);

    driver::SystemConfig cfg = driver::noPrefConfig(opt);
    cfg.label = label;
    driver::System sys(cfg, *workload);

    // Attach the custom ULMT by hand: this is all the "OS" does.
    core::UlmtEngine engine(sys.eventQueue(), sys.config().timing,
                            sys.memorySystem(), std::move(algo));
    sys.memorySystem().setObserver(&engine, /*verbose=*/false);
    return sys.run();
}

} // namespace

int
main(int argc, char **argv)
{
    driver::ExperimentOptions opt;
    opt.scale = driver::scaleArg(argc, argv, 1, 0.25);

    driver::TextTable table({"Appl", "Algorithm", "Speedup",
                             "ULMT hits", "Delayed hits"});
    const auto n = [](const driver::RunResult &r, const char *leaf) {
        return std::to_string(r.stats.counter(leaf));
    };
    for (const char *app_name : {"Mcf", "Gap"}) {
        const std::string app(app_name);
        const driver::RunResult base =
            driver::runOne(app, driver::noPrefConfig(opt), opt);

        const driver::RunResult repl = driver::runOne(
            app, driver::ulmtConfig(opt, core::UlmtAlgo::Repl, app),
            opt);
        table.addRow({app, "Repl (paper)",
                      driver::fmt(repl.speedup(base)),
                      n(repl, "l2.push.hits"),
                      n(repl, "l2.push.delayed_hits")});

        const driver::RunResult mine = runWithAlgorithm(
            app, std::make_unique<DeltaPrefetcher>(), opt,
            "UserDelta");
        table.addRow({app, "UserDelta (yours)",
                      driver::fmt(mine.speedup(base)),
                      n(mine, "l2.push.hits"),
                      n(mine, "l2.push.delayed_hits")});
    }
    table.print("Custom ULMT algorithm vs the paper's Replicated");
    std::puts("\nThe ULMT is just user software: subclass "
              "core::CorrelationPrefetcher,\nhand it to "
              "core::UlmtEngine, and the memory processor runs it.");
    return 0;
}
