#include "driver/experiment.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <utility>

#include "sim/logging.hh"
#include "workloads/offset.hh"

namespace driver {

namespace {

SystemConfig
baseConfig(const ExperimentOptions &opt)
{
    SystemConfig cfg = opt.machine;
    cfg.timing.placement = opt.placement;
    return cfg;
}

/** Per-run snapshot file name: path-hostile characters in app names
 *  ("trace:/x/y.ulmttrace") and labels become underscores. */
std::string
snapshotName(const std::string &app, const std::string &label)
{
    std::string n = app + "-" + label;
    for (char &c : n) {
        if (c == '/' || c == ':' || c == '\\')
            c = '_';
    }
    return n + ".ulmtckp";
}

/** Refuse @p value of machine flag @p flag. */
[[noreturn]] void
badValue(const std::string &flag, const std::string &value,
         const char *expected)
{
    throw std::invalid_argument("bad " + flag + " value '" + value +
                                "' (expected " + expected + ")");
}

/** The whole of @p v as a base-10 integer in [lo, hi]. */
long long
intValue(const std::string &flag, const std::string &v, long long lo,
         long long hi, const char *expected)
{
    char *end = nullptr;
    const long long n = std::strtoll(v.c_str(), &end, 10);
    if (v.empty() || *end != '\0' || n < lo || n > hi)
        badValue(flag, v, expected);
    return n;
}

/** All of @p text as an unsigned 64-bit integer in @p base. */
std::uint64_t
parseUnsigned(const std::string &text, int base, const char *what)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text.c_str(), &end, base);
    if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])) ||
        *end != '\0' || errno == ERANGE)
        throw std::invalid_argument("bad " + std::string(what) + " '" +
                                    text +
                                    "' (expected a non-negative integer)");
    return v;
}

} // namespace

bool
parseMachineFlag(const std::string &arg, SystemConfig &cfg)
{
    const std::size_t eq = arg.find('=');
    const std::string flag = arg.substr(0, eq);
    const bool has_value = eq != std::string::npos;
    const std::string v = has_value ? arg.substr(eq + 1) : "";
    if (flag == "--check" && !has_value) {
        cfg.check.mode = check::CheckMode::Basic;
        return true;
    }
    static const char *const owned[] = {
        "--cores", "--ulmt-mode", "--vm", "--page-size", "--remap-rate",
        "--table-cache", "--audit", "--check", "--check-interval",
        "--metrics-interval"};
    if (std::find(std::begin(owned), std::end(owned), flag) ==
        std::end(owned))
        return false;
    if (!has_value)
        throw std::invalid_argument(flag + " needs a value");

    if (flag == "--cores") {
        cfg.cores = static_cast<unsigned>(
            intValue(flag, v, 1, sim::maxCores,
                     ("1.." + std::to_string(sim::maxCores)).c_str()));
    } else if (flag == "--ulmt-mode") {
        try {
            cfg.ulmtMode = core::parseUlmtMode(v);
        } catch (const std::invalid_argument &) {
            badValue(flag, v, "shared, percore or sharded");
        }
    } else if (flag == "--vm") {
        if (v != "on" && v != "off")
            badValue(flag, v, "on or off");
        cfg.vm.enabled = v == "on";
    } else if (flag == "--page-size") {
        try {
            cfg.vm.pageBytes = vm::parsePageSize(v);
        } catch (const std::invalid_argument &) {
            badValue(flag, v, "4k or 2m");
        }
    } else if (flag == "--remap-rate") {
        char *end = nullptr;
        const double r = std::strtod(v.c_str(), &end);
        if (v.empty() || *end != '\0' || !(r >= 0.0) || r > 1e6)
            badValue(flag, v, "remaps per million cycles, 0..1e6");
        cfg.vm.remapRate = r;
    } else if (flag == "--table-cache") {
        const char *expected = "<entries>[,<assoc>], entries 0..1048576 "
                               "divisible by assoc 1..64, 0 disables";
        const std::size_t comma = v.find(',');
        const long long e = intValue(flag, v.substr(0, comma), 0, 1 << 20,
                                     expected);
        const long long a =
            comma == std::string::npos
                ? cfg.tableCache.assoc
                : intValue(flag, v.substr(comma + 1), 1, 64, expected);
        if (e > 0 && e % a != 0)
            badValue(flag, v, expected);
        cfg.tableCache.entries = static_cast<std::uint32_t>(e);
        cfg.tableCache.assoc = static_cast<std::uint32_t>(a);
    } else if (flag == "--audit") {
        if (v != "on" && v != "off")
            badValue(flag, v, "on or off");
        cfg.audit = v == "on";
    } else if (flag == "--check") {
        if (v == "basic")
            cfg.check.mode = check::CheckMode::Basic;
        else if (v == "deep")
            cfg.check.mode = check::CheckMode::Deep;
        else
            badValue(flag, v, "basic or deep");
    } else if (flag == "--check-interval") {
        cfg.check.everyEvents = static_cast<std::uint64_t>(
            intValue(flag, v, 1, LLONG_MAX, "an event count >= 1"));
    } else {
        cfg.metricsInterval = static_cast<sim::Cycle>(
            intValue(flag, v, 0, LLONG_MAX, "a cycle count >= 0"));
    }
    return true;
}

double
parseScale(const std::string &text)
{
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (text.empty() || *end != '\0' || !std::isfinite(v) || v <= 0.0)
        throw std::invalid_argument("bad scale '" + text +
                                    "' (expected a finite number > 0)");
    return v;
}

std::uint64_t
parseSeed(const std::string &text)
{
    return parseUnsigned(text, 0, "seed");
}

std::uint64_t
parseCount(const std::string &text)
{
    return parseUnsigned(text, 10, "count");
}

double
scaleArg(int argc, char **argv, int i, double fallback)
{
    if (argc <= i)
        return fallback;
    try {
        return parseScale(argv[i]);
    } catch (const std::invalid_argument &e) {
        sim::fatal("%s", e.what());
    }
}

std::vector<std::unique_ptr<workloads::Workload>>
makeCoreWorkloads(const std::string &app, std::uint64_t seed,
                  double scale, unsigned cores)
{
    std::vector<std::unique_ptr<workloads::Workload>> ws;
    for (unsigned c = 0; c < cores; ++c) {
        workloads::WorkloadParams wp;
        // Core 0 keeps the base seed (and offset 0), so its trace is
        // bit-identical to the single-core run; the other tenants are
        // independently seeded so the mix is multiprogrammed, not N
        // lockstep copies.
        wp.seed = c ? seed ^ (0x9E3779B97F4A7C15ULL * c) : seed;
        wp.scale = scale;
        auto w = workloads::makeWorkload(app, wp);
        if (c) {
            ws.push_back(std::make_unique<workloads::OffsetWorkload>(
                std::move(w), c));
        } else {
            ws.push_back(std::move(w));
        }
    }
    return ws;
}

SystemConfig
noPrefConfig(const ExperimentOptions &opt)
{
    SystemConfig cfg = baseConfig(opt);
    cfg.label = "NoPref";
    return cfg;
}

SystemConfig
conven4Config(const ExperimentOptions &opt)
{
    SystemConfig cfg = baseConfig(opt);
    cfg.conven4 = true;
    cfg.label = "Conven4";
    return cfg;
}

SystemConfig
ulmtConfig(const ExperimentOptions &opt, core::UlmtAlgo algo,
           const std::string &app)
{
    SystemConfig cfg = baseConfig(opt);
    cfg.ulmt.algo = algo;
    cfg.ulmt.numRows = workloads::tableNumRows(app);
    cfg.label = core::to_string(algo);
    return cfg;
}

SystemConfig
conven4PlusUlmtConfig(const ExperimentOptions &opt, core::UlmtAlgo algo,
                      const std::string &app)
{
    SystemConfig cfg = ulmtConfig(opt, algo, app);
    cfg.conven4 = true;
    cfg.label = "Conven4+" + core::to_string(algo);
    return cfg;
}

SystemConfig
customConfig(const ExperimentOptions &opt, const std::string &app,
             bool &customized)
{
    customized = true;
    if (app == "CG") {
        // Table 5: Seq1+Repl in Verbose mode (Conven4 on).
        SystemConfig cfg =
            conven4PlusUlmtConfig(opt, core::UlmtAlgo::Seq1Repl, app);
        cfg.ulmt.verbose = true;
        cfg.label = "Custom";
        return cfg;
    }
    if (app == "MST" || app == "Mcf") {
        // Table 5: Repl with NumLevels = 4 (Conven4 on).
        SystemConfig cfg =
            conven4PlusUlmtConfig(opt, core::UlmtAlgo::Repl, app);
        cfg.ulmt.numLevels = 4;
        cfg.label = "Custom";
        return cfg;
    }
    customized = false;
    SystemConfig cfg =
        conven4PlusUlmtConfig(opt, core::UlmtAlgo::Repl, app);
    cfg.label = "Custom";
    return cfg;
}

const std::vector<std::string> &
listWorkloads()
{
    return workloads::applicationNames();
}

namespace {

/** Single-core systems hold a caller-owned workload; multicore ones
 *  own their per-core set.  This keeps both alive together. */
struct BuiltSystem
{
    std::unique_ptr<workloads::Workload> workload;
    std::unique_ptr<System> sys;
};

BuiltSystem
buildSystem(const SystemConfig &cfg, const std::string &app,
            std::uint64_t seed, double scale)
{
    BuiltSystem b;
    if (cfg.cores > 1) {
        auto ws = makeCoreWorkloads(app, seed, scale, cfg.cores);
        const std::string name = ws[0]->name();
        b.sys = std::make_unique<System>(cfg, std::move(ws), name);
    } else {
        workloads::WorkloadParams wp;
        wp.seed = seed;
        wp.scale = scale;
        b.workload = workloads::makeWorkload(app, wp);
        b.sys = std::make_unique<System>(cfg, *b.workload);
    }
    b.sys->setCheckpointMeta(app, seed, scale);
    return b;
}

} // namespace

RunResult
runSampled(const SystemConfig &cfg, const std::string &ckpt_path)
{
    // The header carries the workload identity AND the machine shape:
    // rebuilding from it guarantees the restored cursors land in the
    // same traces on the same number of cores in the same serving
    // mode.
    const ckpt::CkptHeader h = ckpt::CheckpointImage::readHeader(ckpt_path);

    SystemConfig effective = cfg;
    effective.cores = h.cores;
    if (h.ulmtMode >
        static_cast<std::uint32_t>(core::UlmtMode::Sharded)) {
        throw ckpt::CkptError("checkpoint '" + ckpt_path +
                              "' names an unknown ULMT serving mode");
    }
    effective.ulmtMode = static_cast<core::UlmtMode>(h.ulmtMode);

    BuiltSystem b =
        buildSystem(effective, h.workload, h.seed, h.scale);
    b.sys->restoreCheckpoint(ckpt_path);
    return b.sys->run();
}

RunResult
runOne(const std::string &app, const SystemConfig &cfg,
       const ExperimentOptions &opt)
{
    BuiltSystem b = buildSystem(cfg, app, opt.seed, opt.scale);
    System &sys = *b.sys;
    if (!opt.restoreFrom.empty()) {
        // A snapshot of another machine shape is a refused input, not
        // a crash: fail the whole sweep with the reason.
        try {
            sys.restoreCheckpoint(opt.restoreFrom);
        } catch (const ckpt::CkptError &e) {
            sim::fatal("--restore-from: %s", e.what());
        }
    }
    if (!opt.checkpointAt.empty()) {
        const std::string dir =
            opt.checkpointTo.empty() ? "." : opt.checkpointTo;
        sys.setCheckpointTrigger(
            opt.checkpointAt, dir + "/" + snapshotName(app, cfg.label));
    }
    if (!opt.traceEvents)
        return sys.run();

    // Per-run buffer, flushed as its own trace process so a parallel
    // sweep lands in one file with one row group per experiment.
    sim::TraceEventBuffer buf;
    sys.setTraceEvents(&buf);
    RunResult r = sys.run();
    opt.traceEvents->writeProcess(app + "/" + cfg.label, buf);
    return r;
}

std::vector<sim::Addr>
captureMissStream(const std::string &app, const ExperimentOptions &opt)
{
    SystemConfig cfg = noPrefConfig(opt);
    cfg.recordMissStream = true;
    RunResult r = runOne(app, cfg, opt);
    return std::move(r.missStream);
}

} // namespace driver
