#include "driver/experiment.hh"

#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <cstring>
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

/** All of @p v as a base-10 integer in [lo, hi], into @p field. */
template <class T>
bool
setInt(const std::string &v, long long lo, long long hi, T &field)
{
    char *end = nullptr;
    const long long n = std::strtoll(v.c_str(), &end, 10);
    if (v.empty() || *end != '\0' || n < lo || n > hi)
        return false;
    field = static_cast<T>(n);
    return true;
}

/** @p parse(@p v) into @p field; false when it throws. */
template <class T, class P>
bool
setBy(P parse, const std::string &v, T &field)
{
    try {
        field = parse(v);
    } catch (const std::invalid_argument &) {
        return false;
    }
    return true;
}

/** "on" or "off" into @p field. */
bool
setOnOff(const std::string &v, bool &field)
{
    if (v != "on" && v != "off")
        return false;
    field = v == "on";
    return true;
}

constexpr long long maxInt = LLONG_MAX;

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

const std::vector<MachineLayer> &
machineLayers()
{
    using C = SystemConfig;
    using V = const std::string &;
    static const std::vector<MachineLayer> layers = {
        {"multicore",
         {{"--cores", "N", "1.." + std::to_string(sim::maxCores),
           [](V v, C &c) { return setInt(v, 1, sim::maxCores, c.cores); },
           [](const C &c) { return std::to_string(c.cores); }},
          {"--ulmt-mode", "shared|percore|sharded",
           "shared, percore or sharded",
           [](V v, C &c) { return setBy(core::parseUlmtMode, v, c.ulmtMode); },
           [](const C &c) { return core::to_string(c.ulmtMode); }}},
         [](const C &c, ckpt::StateWriter &w) {
             if (c.cores > 1 || c.ulmtMode != core::UlmtMode::Shared) {
                 w.u32(c.cores);
                 w.u32(static_cast<std::uint32_t>(c.ulmtMode));
             }
         }},
        {"vm",
         {{"--vm", "on|off", "on or off",
           [](V v, C &c) { return setOnOff(v, c.vm.enabled); },
           [](const C &c) {
               return std::string(c.vm.enabled ? "on" : "off");
           }},
          {"--page-size", "4k|2m", "4k or 2m",
           [](V v, C &c) {
               return setBy(vm::parsePageSize, v, c.vm.pageBytes);
           },
           [](const C &c) { return vm::pageSizeName(c.vm.pageBytes); }},
          {"--remap-rate", "R", "remaps per million cycles, 0..1e6",
           [](V v, C &c) {
               char *end = nullptr;
               const double r = std::strtod(v.c_str(), &end);
               if (v.empty() || *end != '\0' || !(r >= 0.0) || r > 1e6)
                   return false;
               c.vm.remapRate = r;
               return true;
           },
           [](const C &c) {
               return sim::strformat("%.17g", c.vm.remapRate);  // exact
           }}},
         [](const C &c, ckpt::StateWriter &w) {
             if (c.vm.on()) {
                 w.u32(c.vm.pageBytes);
                 w.f64(c.vm.remapRate);
                 w.u64(c.vm.seed);
             }
         }},
        {"table-cache",
         {{"--table-cache", "<entries>[,<assoc>]",
           "<entries>[,<assoc>], entries 0..1048576 divisible by assoc "
           "1..64, 0 disables",
           [](V v, C &c) {
               const std::size_t comma = v.find(',');
               long long e, a = c.tableCache.assoc;
               if (!setInt(v.substr(0, comma), 0, 1 << 20, e) ||
                   (comma != std::string::npos &&
                    !setInt(v.substr(comma + 1), 1, 64, a)) ||
                   (e > 0 && e % a != 0))
                   return false;
               c.tableCache = {std::uint32_t(e), std::uint32_t(a)};
               return true;
           },
           [](const C &c) {
               return std::to_string(c.tableCache.entries) + "," +
                      std::to_string(c.tableCache.assoc);
           }}},
         [](const C &c, ckpt::StateWriter &w) {
             if (c.tableCache.on()) {
                 w.u32(c.tableCache.entries);
                 w.u32(c.tableCache.assoc);
             }
         }},
        {"passive",
         {{"--audit", "on|off", "on or off",
           [](V v, C &c) { return setOnOff(v, c.audit); },
           [](const C &c) { return std::string(c.audit ? "on" : "off"); }},
          {"--check", "basic|deep", "basic or deep",
           [](V v, C &c) {
               if (v != "basic" && v != "deep")
                   return false;
               c.check.mode = v == "basic" ? check::CheckMode::Basic
                                           : check::CheckMode::Deep;
               return true;
           },
           [](const C &c) {
               return std::string(c.check.deep()      ? "deep"
                                  : c.check.enabled() ? "basic"
                                                      : "off");
           },
           "basic"},
          {"--check-interval", "N", "an event count >= 1",
           [](V v, C &c) { return setInt(v, 1, maxInt, c.check.everyEvents); },
           [](const C &c) { return std::to_string(c.check.everyEvents); }},
          {"--metrics-interval", "N", "a cycle count >= 0",
           [](V v, C &c) { return setInt(v, 0, maxInt, c.metricsInterval); },
           [](const C &c) { return std::to_string(c.metricsInterval); }}},
         nullptr},  // passive: never part of the fingerprint
    };
    return layers;
}

bool
parseMachineFlag(const std::string &arg, SystemConfig &cfg)
{
    const std::size_t eq = arg.find('=');
    const std::string flag = arg.substr(0, eq);
    for (const MachineLayer &layer : machineLayers()) {
        for (const MachineFlag &f : layer.flags) {
            if (flag != f.name)
                continue;
            if (eq == std::string::npos && !f.bare)
                throw std::invalid_argument(flag + " needs a value");
            const std::string v =
                eq == std::string::npos ? f.bare : arg.substr(eq + 1);
            if (!f.parse(v, cfg))
                throw std::invalid_argument("bad " + flag + " value '" +
                                            v + "' (expected " +
                                            f.expected + ")");
            return true;
        }
    }
    return false;
}

std::vector<std::string>
machineFlags(const SystemConfig &cfg)
{
    const SystemConfig defaults;
    std::vector<std::string> out;
    for (const MachineLayer &layer : machineLayers()) {
        for (const MachineFlag &f : layer.flags) {
            const std::string v = f.print(cfg);
            if (v != f.print(defaults))
                out.push_back(std::string(f.name) + "=" + v);
        }
    }
    return out;
}

std::string
machineFlagUsage()
{
    std::string out;
    for (const MachineLayer &layer : machineLayers()) {
        for (const MachineFlag &f : layer.flags)
            out += std::string(" [") + f.name + (f.bare ? "[=" : "=") +
                   f.metavar + (f.bare ? "]]" : "]");
    }
    return out.substr(1);
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

const char *
flagValue(const char *arg, const char *key)
{
    const std::size_t n = std::strlen(key);
    return std::strncmp(arg, key, n) == 0 ? arg + n : nullptr;
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
    // sweep lands in one file with one row group per experiment.  It
    // stores no more events than the file can hold.
    sim::TraceEventBuffer buf(opt.traceEvents->budget());
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
