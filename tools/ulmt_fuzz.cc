/**
 * @file
 * ulmt-fuzz: seed-deterministic configuration fuzzer for the runtime
 * invariant checker (DESIGN.md section 10).
 *
 *   ulmt-fuzz [--seeds N] [--seed0 N] [--check=deep|basic]
 *             [--interval=N] [--scale=S] [-v]
 *
 * Each seed deterministically derives one machine configuration
 * (algorithm, table geometry, queue depth, filter size, placement,
 * Conven4, Verbose, core count, ULMT serving mode, table cache,
 * virtual memory) and one short workload, then runs it to completion
 * with the invariant checker armed -- by default in Deep mode, so the
 * lockstep reference models are diffed too.  The same seed always
 * produces the same configuration, on every host.
 *
 * On a violation the fuzzer greedily shrinks the failing
 * configuration -- resetting each machine layer, then each other
 * dimension, to its default and keeping every reset that still fails
 * -- then prints the minimized repro (machine layers as machine flags,
 * for `ulmt-stats dump`) and exits 1.  A clean sweep exits 0.
 *
 * Both `--seeds 50` and `--seeds=50` spellings are accepted (for all
 * value flags).
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/check.hh"
#include "driver/experiment.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

namespace {

/** One fuzzed scenario: everything run() needs, all printable. */
struct Scenario
{
    std::string app = "MST";
    double scale = 0.005;
    driver::SystemConfig cfg;

    /** The dimensions no machine flag sets, then the machine flags. */
    std::string
    describe() const
    {
        std::string out = sim::strformat(
            "app=%s algo=%s rows=%u levels=%u verbose=%d conven4=%d "
            "placement=%s queueDepth=%u filterEntries=%u scale=%g",
            app.c_str(), core::to_string(cfg.ulmt.algo).c_str(),
            cfg.ulmt.numRows, cfg.ulmt.numLevels, cfg.ulmt.verbose,
            cfg.conven4,
            cfg.timing.placement == mem::MemProcPlacement::InDram
                ? "InDram"
                : "NorthBridge",
            cfg.timing.queueDepth, cfg.timing.filterEntries, scale);
        for (const std::string &flag : driver::machineFlags(cfg))
            out += " " + flag;
        return out;
    }
};

/** The seed -> scenario map; one Rng stream, fixed draw order. */
Scenario
deriveScenario(std::uint64_t seed, double scale)
{
    sim::Rng rng(seed);
    Scenario s;

    static const char *apps[] = {"MST", "Tree", "Mcf"};
    s.app = apps[rng.below(3)];

    static const core::UlmtAlgo algos[] = {
        core::UlmtAlgo::None,     core::UlmtAlgo::Base,
        core::UlmtAlgo::Chain,    core::UlmtAlgo::Repl,
        core::UlmtAlgo::Seq1,     core::UlmtAlgo::Seq4,
        core::UlmtAlgo::Seq4Base, core::UlmtAlgo::Seq4Repl,
        core::UlmtAlgo::Seq1Repl,
    };
    core::UlmtSpec ulmt;
    ulmt.algo = algos[rng.below(sizeof(algos) / sizeof(algos[0]))];

    // Power-of-two row counts keep every algorithm's set mapping legal.
    // The geometry is drawn even without a ULMT, to keep the stream.
    ulmt.numRows = 1024u << rng.below(4);                  // 1K .. 8K
    ulmt.numLevels = 2 + (std::uint32_t)rng.below(4);      // 2 .. 5
    ulmt.verbose = rng.chance(0.25);
    const bool conven4 = rng.chance(0.4);
    driver::ExperimentOptions opt;
    opt.placement = rng.chance(0.5) ? mem::MemProcPlacement::InDram
                                    : mem::MemProcPlacement::NorthBridge;
    driver::SystemConfig &cfg = s.cfg;
    if (ulmt.enabled()) {
        cfg = conven4
                  ? driver::conven4PlusUlmtConfig(opt, ulmt.algo, s.app)
                  : driver::ulmtConfig(opt, ulmt.algo, s.app);
        cfg.ulmt = ulmt;
    } else {
        cfg = conven4 ? driver::conven4Config(opt) : driver::noPrefConfig(opt);
    }
    cfg.timing.queueDepth = 1 + (std::uint32_t)rng.below(24);  // 1 .. 24
    static const std::uint32_t filters[] = {0, 1, 2, 8, 32};
    cfg.timing.filterEntries = filters[rng.below(5)];

    // Multicore draws come last so the single-core dimensions of a
    // seed stay what they were before the machine grew cores.
    static const unsigned coreCounts[] = {1, 1, 2, 4};
    cfg.cores = coreCounts[rng.below(4)];
    static const core::UlmtMode serving[] = {core::UlmtMode::Shared,
                                             core::UlmtMode::PerCore,
                                             core::UlmtMode::Sharded};
    cfg.ulmtMode = serving[rng.below(3)];

    // Table-cache draws are newest, so they come after everything
    // else: a seed's pre-MSCache dimensions are unchanged and the
    // no-cache half of the space reproduces the old machines exactly.
    if (rng.chance(0.5)) {
        static const std::uint32_t tcEntries[] = {256, 1024, 4096};
        cfg.tableCache.entries = tcEntries[rng.below(3)];
        cfg.tableCache.assoc = rng.chance(0.5) ? 4 : 8;
    }
    // The VM draws are newer still, so they come last.  A 2 MB remap
    // sweeps 32K table lines, so huge pages only churn slowly: at 100
    // remaps per million cycles a seed costs ~8x one without VM, at
    // 0-2 about the same.
    if (rng.chance(0.5)) {
        cfg.vm.enabled = true;
        if (rng.chance(0.5)) {
            static const double rates4k[] = {0, 20, 100};
            cfg.vm.remapRate = rates4k[rng.below(3)];
        } else {
            static const double rates2m[] = {0, 1, 2};
            cfg.vm.pageBytes = 2u << 20;
            cfg.vm.remapRate = rates2m[rng.below(3)];
        }
    }
    cfg.metricsInterval = 0;  // fuzzing needs no time series
    // N cores replay N workload copies; divide the trace down so every
    // seed costs about the same and the sweep's wall time stays flat.
    s.scale = cfg.cores > 1 ? scale / cfg.cores : scale;
    return s;
}

/** Run one scenario; returns the failure message, empty on success. */
std::string
runScenario(const Scenario &s, const check::CheckOptions &chk)
{
    driver::ExperimentOptions opt;
    opt.scale = s.scale;
    driver::SystemConfig cfg = s.cfg;
    cfg.check = chk;
    // The checker's walk visits every per-core structure, so a tick
    // costs cores x more; stretch the cadence to keep overhead flat.
    cfg.check.everyEvents = chk.everyEvents * cfg.cores;
    try {
        (void)driver::runOne(s.app, cfg, opt);
    } catch (const std::exception &e) {
        return e.what();
    }
    return "";
}

/**
 * Greedy shrink: walk a fixed list of simplifications (first every
 * behavioural machine layer back to its default, then one dimension
 * at a time); keep each one that still reproduces a failure.
 */
Scenario
shrink(Scenario s, const check::CheckOptions &chk, bool verbose_log)
{
    const driver::SystemConfig d;  // the default machine
    for (int round = 0; round < 2; ++round) {
        bool changed = false;
        auto trial = [&](auto mutate, const std::string &what) {
            Scenario t = s;
            mutate(t);
            if (t.describe() == s.describe())
                return;
            if (!runScenario(t, chk).empty()) {
                if (verbose_log)
                    std::fprintf(stderr, "  shrink: %s still fails\n",
                                 what.c_str());
                s = t;
                changed = true;
            }
        };
        for (const driver::MachineLayer &layer : driver::machineLayers()) {
            if (layer.fingerprint)  // a passive layer cannot fail a run
                trial([&](auto &t) {
                          for (const driver::MachineFlag &f : layer.flags)
                              f.parse(f.print(d), t.cfg);
                      },
                      std::string(layer.name) + "=default");
        }
        trial([](auto &t) {
                  mem::TableCacheSpec &tc = t.cfg.tableCache;
                  tc = {std::min(tc.entries, 256u), 4};
              },
              "tcache=256,4");
        trial([](auto &t) { t.cfg.conven4 = false; }, "conven4=0");
        trial([](auto &t) { t.cfg.ulmt.verbose = false; }, "verbose=0");
        trial([&](auto &t) { t.cfg.timing.placement = d.timing.placement; },
              "placement=InDram");
        trial([](auto &t) { t.cfg.ulmt.algo = core::UlmtAlgo::Base; },
              "algo=Base");
        trial([&](auto &t) { t.cfg.ulmt.numLevels = d.ulmt.numLevels; },
              "levels=3");
        trial([](auto &t) { t.cfg.ulmt.numRows = 4096; }, "rows=4096");
        trial([&](auto &t) {
                  t.cfg.timing.filterEntries = d.timing.filterEntries;
              },
              "filterEntries=32");
        trial([&](auto &t) { t.cfg.timing.queueDepth = d.timing.queueDepth; },
              "queueDepth=16");
        trial([](auto &t) { t.app = "MST"; }, "app=MST");
        if (!changed)
            break;
    }
    return s;
}

/**
 * Value of a flag accepting both "--key=V" and "--key V": returns
 * nullptr when argv[i] is not --key, else the value (consuming
 * argv[i+1] in the two-token spelling).
 */
const char *
flagValue(int argc, char **argv, int &i, const char *key)
{
    const std::size_t n = std::strlen(key);
    if (std::strncmp(argv[i], key, n) != 0)
        return nullptr;
    if (argv[i][n] == '=')
        return argv[i] + n + 1;
    if (argv[i][n] == '\0' && i + 1 < argc)
        return argv[++i];
    return nullptr;
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--seeds N] [--seed0 N] "
                 "[--check=deep|basic] [--interval N] [--scale S] "
                 "[-v]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
try {
    std::uint64_t seeds = 20;
    std::uint64_t seed0 = 1;
    double scale = 0.005;
    bool verbose_log = false;
    check::CheckOptions chk;
    chk.mode = check::CheckMode::Deep;
    chk.everyEvents = 512;  // short runs want a tight cadence

    for (int i = 1; i < argc; ++i) {
        if (const char *v = flagValue(argc, argv, i, "--seeds")) {
            seeds = driver::parseCount(v);
        } else if (const char *v0 =
                       flagValue(argc, argv, i, "--seed0")) {
            seed0 = driver::parseSeed(v0);
        } else if (const char *c =
                       flagValue(argc, argv, i, "--check")) {
            if (std::strcmp(c, "deep") == 0)
                chk.mode = check::CheckMode::Deep;
            else if (std::strcmp(c, "basic") == 0)
                chk.mode = check::CheckMode::Basic;
            else
                return usage(argv[0]);
        } else if (const char *iv =
                       flagValue(argc, argv, i, "--interval")) {
            chk.everyEvents = driver::parseCount(iv);
            if (chk.everyEvents == 0)
                return usage(argv[0]);
        } else if (const char *sc =
                       flagValue(argc, argv, i, "--scale")) {
            scale = driver::parseScale(sc);
        } else if (std::strcmp(argv[i], "-v") == 0) {
            verbose_log = true;
        } else {
            return usage(argv[0]);
        }
    }
    if (seeds == 0)
        return usage(argv[0]);

    std::printf("[fuzz] %llu seeds from %llu, %s checking every %llu "
                "events, scale %g\n",
                (unsigned long long)seeds, (unsigned long long)seed0,
                chk.deep() ? "deep" : "basic",
                (unsigned long long)chk.everyEvents, scale);

    for (std::uint64_t i = 0; i < seeds; ++i) {
        const std::uint64_t seed = seed0 + i;
        const Scenario s = deriveScenario(seed, scale);
        if (verbose_log)
            std::fprintf(stderr, "[fuzz] seed %llu: %s\n",
                         (unsigned long long)seed,
                         s.describe().c_str());
        const std::string err = runScenario(s, chk);
        if (err.empty())
            continue;

        std::fprintf(stderr,
                     "[fuzz] seed %llu FAILED:\n%s\n"
                     "[fuzz] config: %s\n[fuzz] shrinking...\n",
                     (unsigned long long)seed, err.c_str(),
                     s.describe().c_str());
        const Scenario small = shrink(s, chk, verbose_log);
        std::fprintf(
            stderr,
            "[fuzz] minimized repro (rerun with --seed0 %llu "
            "--seeds 1 --scale %g):\n[fuzz]   %s\n[fuzz]   %s\n",
            (unsigned long long)seed, scale, small.describe().c_str(),
            runScenario(small, chk).c_str());
        return 1;
    }

    std::printf("[fuzz] all %llu seeds clean\n",
                (unsigned long long)seeds);
    return 0;
} catch (const std::invalid_argument &e) {
    // A malformed --seeds/--seed0/--interval/--scale value.
    std::fprintf(stderr, "ulmt-fuzz: %s\n", e.what());
    return 1;
}
