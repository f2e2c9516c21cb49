/**
 * @file
 * Shared benchmark harness: common CLI parsing, wall-clock timing and
 * machine-readable output.
 *
 * Every bench binary records its simulation runs and headline metrics
 * in a Harness and finishes with writeJson(), which emits
 * `BENCH_<name>.json` (in $ULMT_BENCH_DIR or the working directory).
 * The JSON tracks the repo's performance trajectory across PRs: wall
 * clock per run, simulated events per second, sim cycles, worker
 * count, plus whatever figure-level metrics the bench reports.
 * Schema (see EXPERIMENTS.md for the full description):
 *
 * {
 *   "bench": "fig7_exec_time",
 *   "jobs": 8,
 *   "scale": 1.0,
 *   "wall_seconds_total": 12.34,
 *   "provenance": {"git_sha": "...", "timestamp_utc": "...",
 *                  "host": {...}},
 *   "runs": [
 *     {"workload": "Mcf", "config": "NoPref", "source": "synthetic",
 *      "wall_seconds": 0.51, "events": 1234567,
 *      "events_per_sec": 2.4e6, "sim_cycles": 98765432,
 *      "effectiveness": {"cores": [{"push": {...}, "coverage": ...,
 *        "lead_time": {...}, "blocked_by": [...]}, ...],
 *        "engines": [...], ...}}, ...
 *   ],
 *   "metrics": {"avg_speedup_repl": 1.32, ...,
 *     "series": [{"workload": "Mcf", "config": "NoPref",
 *                 "interval_cycles": 16384, "cycle": [...],
 *                 "channels": {"l2.mshr_occupancy": [...], ...}}]}
 * }
 *
 * "provenance" and the host-performance fields are volatile across
 * machines and commits; determinism comparisons must ignore them.
 */

#ifndef BENCH_HARNESS_HH
#define BENCH_HARNESS_HH

#include <chrono>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "driver/experiment.hh"

namespace bench {

/**
 * Common bench CLI: `bench [scale] [--jobs=N] [--apps=A,B,...]
 * [--trace-events=PATH] [--checkpoint-at=SPEC] [--checkpoint-to=DIR]
 * [--restore-from=PATH] [machine flags] [--list-workloads]`, where the
 * machine flags are the rows of driver::machineLayers.
 */
struct Options
{
    unsigned jobs = 0;  //!< 0 = resolve via driver::runnerJobs()
    /** Workload list override (names or trace:<path>); empty = the
     *  bench's default set (usually the nine paper applications). */
    std::vector<std::string> apps;
    /** Scale, base machine, checkpoint/restore and trace-event sink:
     *  every run of the bench starts from a copy of these. */
    driver::ExperimentOptions experiment;

    /** The bench's workload list: the override, or @p defaults. */
    std::vector<std::string>
    appList(std::vector<std::string> defaults =
                workloads::applicationNames()) const
    {
        return apps.empty() ? defaults : apps;
    }
};

/**
 * Parse the common CLI.  A bare positional argument is the workload
 * scale (a finite number > 0); `--jobs=N` overrides the worker count
 * for this process (it takes precedence over ULMT_JOBS);
 * `--apps=A,B,...` replaces the default workload set with any mix of
 * application names and `trace:<path>` corpora; `--trace-events=PATH`
 * streams Chrome trace events from every run into PATH;
 * `--checkpoint-at=SPEC` snapshots every run after SPEC ("<N>" demand
 * L2 misses, "<N>c" at cycle N) into `--checkpoint-to=DIR`;
 * `--restore-from=PATH` resumes every run from a snapshot; every
 * machine flag (driver::machineLayers) sets the base machine all of
 * the bench's configurations start from; `--list-workloads` prints the
 * registered workload names and exits.
 *
 * @param refused flags this bench fixes or sweeps itself (e.g.
 *        "--apps"), or machine layers (driver::machineLayers, e.g.
 *        "vm"; "machine" for every layer) whose flags it refuses all
 *        of; passing a refused flag is a fatal error, as is any
 *        malformed or unknown argument.
 */
Options parseArgs(int argc, char **argv, double default_scale,
                  std::initializer_list<const char *> refused = {});

/**
 * Core 0's Busy, UptoL2 and BeyondL2 cycles in @p r, each as a
 * fraction of @p base's execution time (the bars of Figures 7 and 8).
 */
std::vector<std::string> cycleBreakdown(const driver::RunResult &r,
                                        const driver::RunResult &base);

/** Collects per-run perf data and metrics; writes BENCH_<name>.json. */
class Harness
{
  public:
    /** @param name the bench name, e.g. "fig7_exec_time". */
    Harness(std::string name, const Options &opt);

    /** Record one completed simulation run. */
    void record(const driver::RunResult &r);

    /** Record a batch (e.g. the output of driver::runAll). */
    void recordAll(const std::vector<driver::RunResult> &rs);

    /** Report a figure-level metric (average speedup, coverage, ...). */
    void metric(const std::string &key, double value);

    /**
     * Write BENCH_<name>.json; returns the path written.  Also emits
     * BENCH_throughput.json, the host-side throughput summary of this
     * invocation: one {workload, config, scale, cores, ulmt_mode,
     * events, wall_seconds, events_per_sec} row per run plus the
     * aggregate events/sec.
     */
    std::string writeJson() const;

  private:
    void writeThroughputJson() const;

    std::string name_;
    Options opt_;
    std::chrono::steady_clock::time_point start_;
    /** The recorded runs, without their miss streams. */
    std::vector<driver::RunResult> runs_;
    std::vector<std::pair<std::string, double>> metrics_;
};

} // namespace bench

#endif // BENCH_HARNESS_HH
