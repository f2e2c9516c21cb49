/**
 * @file
 * Experiment helpers: the standard machine configurations of the
 * paper's evaluation (Section 5) and the Table 5 customizations.
 */

#ifndef DRIVER_EXPERIMENT_HH
#define DRIVER_EXPERIMENT_HH

#include <memory>
#include <string>
#include <vector>

#include "driver/system.hh"

namespace driver {

/** Options shared by all experiment runs. */
struct ExperimentOptions
{
    double scale = 1.0;            //!< workload size multiplier
    std::uint64_t seed = 0xA11CE;  //!< workload structure seed
    mem::MemProcPlacement placement = mem::MemProcPlacement::InDram;
    /**
     * The machine every config builder starts from.  The CLIs' machine
     * flags (parseMachineFlag) land here; a builder then sets only what
     * its configuration is about, and a bench that sets a field itself
     * afterwards wins.  Defaults are the paper's machine; its
     * timing.placement is replaced by placement above.
     */
    SystemConfig machine;
    /** One-shot checkpoint trigger for every run: "<N>" demand L2
     *  misses or "<N>c" at cycle N; empty = off.  Each run writes
     *  `<checkpointTo>/<app>-<label>.ulmtckp`. */
    std::string checkpointAt;
    /** Directory for triggered snapshots (empty = "."). */
    std::string checkpointTo;
    /** Restore every run from this snapshot before running (empty =
     *  off).  Its configuration fingerprint must match the run's. */
    std::string restoreFrom;
    /** Shared Chrome trace-event file; each run lands in it as its own
     *  trace process.  Null = tracing off. */
    std::shared_ptr<sim::TraceEventWriter> traceEvents;
};

/** One machine flag: "--name=value", or "--name" when bare is set. */
struct MachineFlag
{
    const char *name;
    const char *metavar;   //!< the value in usage lines: "N", "on|off"
    std::string expected;  //!< the valid values, in a bad-value error
    /** Set @p cfg from @p value; false when the value is bad. */
    bool (*parse)(const std::string &value, SystemConfig &cfg);
    /** The value that parse() reads back to @p cfg's setting. */
    std::string (*print)(const SystemConfig &cfg);
    const char *bare = nullptr;  //!< the value of a bare "--name"
};

/**
 * One layer of the machine: its flags and, unless passive, the bytes
 * it appends to System::configFingerprint() (none at its default).
 * Auditing, checking and sampling are passive: they never change
 * simulated behaviour, so they never block a restore.
 */
struct MachineLayer
{
    const char *name;
    std::vector<MachineFlag> flags;
    void (*fingerprint)(const SystemConfig &cfg, ckpt::StateWriter &w);
};

/** The machine-knob table.  A new knob is one SystemConfig field plus
 *  one row; parsing, printing, usage and fingerprint follow from it. */
const std::vector<MachineLayer> &machineLayers();

/**
 * Apply one machine flag (a row of machineLayers()) to @p cfg.
 * @return false when @p arg is not a machine flag (@p cfg untouched).
 * @throws std::invalid_argument naming the flag on a bad value.
 */
bool parseMachineFlag(const std::string &arg, SystemConfig &cfg);

/** @p cfg's non-default machine flags, which parseMachineFlag() reads
 *  back to the same machine; empty for the default machine. */
std::vector<std::string> machineFlags(const SystemConfig &cfg);

/** Every machine flag for a usage line: "[--cores=N] [--vm=on|off] ...". */
std::string machineFlagUsage();

/**
 * The workload scale of a CLI: all of @p text must be a finite number
 * > 0.  @throws std::invalid_argument otherwise.
 */
double parseScale(const std::string &text);

/**
 * A workload seed (decimal, or hex with 0x): all of @p text must be a
 * non-negative integer that fits 64 bits.
 * @throws std::invalid_argument otherwise.
 */
std::uint64_t parseSeed(const std::string &text);

/**
 * A count (decimal): all of @p text must be a non-negative integer
 * that fits 64 bits.  @throws std::invalid_argument otherwise.
 */
std::uint64_t parseCount(const std::string &text);

/** The value part of @p arg when it starts with @p key ("--scale="),
 *  else nullptr. */
const char *flagValue(const char *arg, const char *key);

/** argv[@p i] as a scale (parseScale), or @p fallback when there is
 *  no such argument; a bad value is fatal (exit 1). */
double scaleArg(int argc, char **argv, int i, double fallback);

/** No prefetching at all. */
SystemConfig noPrefConfig(const ExperimentOptions &opt);

/** Processor-side Conven4 only. */
SystemConfig conven4Config(const ExperimentOptions &opt);

/**
 * Memory-side ULMT only, sized for @p app per Table 2.
 * @param algo Base, Chain, Repl, Seq1, Seq4 or a combination.
 */
SystemConfig ulmtConfig(const ExperimentOptions &opt,
                        core::UlmtAlgo algo, const std::string &app);

/** Conven4 plus a Non-Verbose ULMT ("Conven4+Repl" etc.). */
SystemConfig conven4PlusUlmtConfig(const ExperimentOptions &opt,
                                   core::UlmtAlgo algo,
                                   const std::string &app);

/**
 * The customized configuration of Table 5 (Conven4 always on):
 * CG -> Seq1+Repl in Verbose mode; MST, Mcf -> Repl with NumLevels=4;
 * other applications -> plain Conven4+Repl.
 *
 * @param customized set to whether @p app has a bespoke customization
 */
SystemConfig customConfig(const ExperimentOptions &opt,
                          const std::string &app, bool &customized);

/**
 * Construct the workload and run one configuration to completion,
 * honouring @p opt's checkpoint, restore and trace-event settings.
 */
RunResult runOne(const std::string &app, const SystemConfig &cfg,
                 const ExperimentOptions &opt);

/**
 * The per-core workload set of a multicore run: core 0 replays the
 * exact single-core trace of (@p app, @p seed, @p scale); every other
 * core runs an independently seeded instance of the same kernel,
 * translated into its own private address slice (workloads/offset.hh).
 */
std::vector<std::unique_ptr<workloads::Workload>>
makeCoreWorkloads(const std::string &app, std::uint64_t seed,
                  double scale, unsigned cores);

/**
 * The sampled-run mode (warmup + measure): rebuild the workload from
 * the checkpoint's own header (app key, seed, scale), restore the
 * snapshot and run the remainder.  The result carries full-run
 * cumulative statistics, bit-identical to an uninterrupted run of the
 * same configuration -- the warmup simulation is simply skipped.
 */
RunResult runSampled(const SystemConfig &cfg,
                     const std::string &ckpt_path);

/** Registered workload names (the nine paper applications); the
 *  "trace:<path>" scheme is additionally accepted everywhere. */
const std::vector<std::string> &listWorkloads();

/** Capture the demand L2 miss stream of a NoPref run (Figs. 5/6). */
std::vector<sim::Addr> captureMissStream(const std::string &app,
                                         const ExperimentOptions &opt);

} // namespace driver

#endif // DRIVER_EXPERIMENT_HH
