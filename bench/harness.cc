#include "bench/harness.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <stdexcept>

#include <sys/utsname.h>
#include <unistd.h>

#include "ckpt/checkpoint.hh"
#include "driver/experiment.hh"
#include "driver/report.hh"
#include "driver/runner.hh"
#include "sim/json.hh"
#include "sim/logging.hh"

namespace bench {

Options
parseArgs(int argc, char **argv, double default_scale,
          std::initializer_list<const char *> refused)
{
    // A refused name without the leading "--" is a machine layer:
    // every flag of that layer is refused.
    std::vector<std::string> refused_flags;
    for (const char *r : refused) {
        if (std::strncmp(r, "--", 2) == 0) {
            refused_flags.push_back(r);
            continue;
        }
        bool found = false;
        for (const driver::MachineLayer &layer : driver::machineLayers()) {
            if (std::strcmp(r, "machine") != 0 &&
                std::strcmp(r, layer.name) != 0)
                continue;
            found = true;
            for (const driver::MachineFlag &f : layer.flags)
                refused_flags.push_back(f.name);
        }
        SIM_ASSERT(found, "unknown machine layer '%s'", r);
    }

    Options opt;
    driver::ExperimentOptions &exp = opt.experiment;
    exp.scale = default_scale;
    bool scale_seen = false;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        for (const std::string &r : refused_flags) {
            if (std::strncmp(arg, r.c_str(), r.size()) == 0 &&
                (arg[r.size()] == '\0' || arg[r.size()] == '='))
                sim::fatal("this bench sets %s itself; refusing '%s'",
                           r.c_str(), arg);
        }
        // Machine-flag and scale parsers throw; refuse the value.
        try {
            if (driver::parseMachineFlag(arg, exp.machine))
                continue;
            if (std::strncmp(arg, "--jobs=", 7) == 0) {
                char *end = nullptr;
                const long v = std::strtol(arg + 7, &end, 10);
                if (*end != '\0' || v < 1 || v > 1024)
                    sim::fatal("bad --jobs value '%s'", arg + 7);
                opt.jobs = static_cast<unsigned>(v);
            } else if (std::strncmp(arg, "--apps=", 7) == 0) {
                std::string cur;
                for (const char *p = arg + 7;; ++p) {
                    if (*p == ',' || *p == '\0') {
                        if (!cur.empty())
                            opt.apps.push_back(cur);
                        cur.clear();
                        if (*p == '\0')
                            break;
                    } else {
                        cur += *p;
                    }
                }
                if (opt.apps.empty())
                    sim::fatal("empty --apps list");
            } else if (std::strncmp(arg, "--trace-events=", 15) == 0) {
                if (arg[15] == '\0')
                    sim::fatal("empty --trace-events path");
                try {
                    exp.traceEvents =
                        std::make_shared<sim::TraceEventWriter>(arg + 15);
                } catch (const std::runtime_error &e) {
                    sim::fatal("--trace-events: %s", e.what());
                }
            } else if (std::strncmp(arg, "--checkpoint-at=", 16) == 0) {
                if (arg[16] == '\0')
                    sim::fatal("empty --checkpoint-at spec");
                exp.checkpointAt = arg + 16;
            } else if (std::strncmp(arg, "--checkpoint-to=", 16) == 0) {
                if (arg[16] == '\0')
                    sim::fatal("empty --checkpoint-to directory");
                exp.checkpointTo = arg + 16;
            } else if (std::strncmp(arg, "--restore-from=", 15) == 0) {
                if (arg[15] == '\0')
                    sim::fatal("empty --restore-from path");
                exp.restoreFrom = arg + 15;
                // Validate up front so a bad path or corrupt snapshot
                // fails before the sweep starts, with a clean message.
                try {
                    (void)ckpt::CheckpointImage::readHeader(
                        exp.restoreFrom);
                } catch (const ckpt::CkptError &e) {
                    sim::fatal("--restore-from: %s", e.what());
                }
            } else if (std::strcmp(arg, "--list-workloads") == 0) {
                for (const std::string &w : driver::listWorkloads())
                    std::printf("%s\n", w.c_str());
                std::printf("trace:<path>\n");
                std::exit(0);
            } else if (!scale_seen && std::strncmp(arg, "--", 2) != 0) {
                exp.scale = driver::parseScale(arg);
                scale_seen = true;
            } else {
                sim::fatal(
                    "unexpected argument '%s' (usage: bench [scale] "
                    "[--jobs=N] [--apps=A,B,...] [--trace-events=PATH] "
                    "[--checkpoint-at=SPEC] [--checkpoint-to=DIR] "
                    "[--restore-from=PATH] %s [--list-workloads])",
                    arg, driver::machineFlagUsage().c_str());
            }
        } catch (const std::invalid_argument &e) {
            sim::fatal("%s", e.what());
        }
    }
    if (opt.jobs)
        driver::setRunnerJobs(opt.jobs);
    return opt;
}

std::vector<std::string>
cycleBreakdown(const driver::RunResult &r, const driver::RunResult &base)
{
    std::vector<std::string> cells;
    for (const char *leaf :
         {"proc.busy_cycles", "proc.stall.upto_l2", "proc.stall.beyond_l2"})
        cells.push_back(driver::fmt(r.stats.value(r.coreStat(leaf)) /
                                    static_cast<double>(base.cycles)));
    return cells;
}

Harness::Harness(std::string name, const Options &opt)
    : name_(std::move(name)), opt_(opt),
      start_(std::chrono::steady_clock::now())
{
}

void
Harness::record(const driver::RunResult &r)
{
    // No BENCH key reads the miss stream, which can be large.
    runs_.push_back(r);
    std::vector<sim::Addr>().swap(runs_.back().missStream);
}

void
Harness::recordAll(const std::vector<driver::RunResult> &rs)
{
    for (const driver::RunResult &r : rs)
        record(r);
}

void
Harness::metric(const std::string &key, double value)
{
    metrics_.emplace_back(key, value);
}

namespace {

/** Series samples need far less precision than headline metrics. */
std::string
seriesNumber(double v)
{
    if (v != v || v == 1.0 / 0.0 || v == -1.0 / 0.0)
        return "null";
    return sim::strformat("%.6g", v);
}

/** The commit being benchmarked: CI env var, else git, else unknown. */
std::string
gitSha()
{
    if (const char *sha = std::getenv("GITHUB_SHA")) {
        if (*sha)
            return sha;
    }
    std::string out;
    if (std::FILE *p = ::popen("git rev-parse HEAD 2>/dev/null", "r")) {
        char buf[128];
        while (std::fgets(buf, sizeof(buf), p))
            out += buf;
        ::pclose(p);
    }
    while (!out.empty() && (out.back() == '\n' || out.back() == '\r'))
        out.pop_back();
    if (out.size() != 40)
        return "unknown";
    return out;
}

std::string
utcTimestamp()
{
    std::time_t now = std::time(nullptr);
    std::tm tm{};
    gmtime_r(&now, &tm);
    char buf[32];
    std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
    return buf;
}

/** The {"git_sha", "timestamp_utc", "host"} provenance stamp. */
std::string
provenanceJson()
{
    std::string out = "  \"provenance\": {\n";
    out += "    \"git_sha\": " + sim::jsonQuote(gitSha());
    out += ",\n    \"timestamp_utc\": " + sim::jsonQuote(utcTimestamp());
    out += ",\n    \"host\": {";
    struct utsname un{};
    if (::uname(&un) == 0) {
        out += "\"hostname\": " + sim::jsonQuote(un.nodename);
        out += ", \"sysname\": " + sim::jsonQuote(un.sysname);
        out += ", \"release\": " + sim::jsonQuote(un.release);
        out += ", \"machine\": " + sim::jsonQuote(un.machine);
        out += sim::strformat(", \"nproc\": %ld",
                              ::sysconf(_SC_NPROCESSORS_ONLN));
    }
    out += "}\n  },\n";
    return out;
}

/** Counter @p name of @p s in decimal. */
std::string
u64(const sim::StatSnapshot &s, const std::string &name)
{
    return std::to_string(s.counter(name));
}

/** The push outcome counters under @p prefix as a JSON object.  The
 *  page-cross drop class exists only when the VM layer is on; emitting
 *  it conditionally keeps pre-VM BENCH files byte-identical. */
std::string
outcomeJson(const sim::StatSnapshot &s, const std::string &prefix,
            bool with_page_cross)
{
    std::string out = "{\"issued\": " + u64(s, prefix + "issued");
    for (int i = 0; i <= int(mem::PushOutcome::DroppedPageCross); ++i) {
        const auto o = static_cast<mem::PushOutcome>(i);
        if (o == mem::PushOutcome::DroppedPageCross && !with_page_cross)
            continue;
        const std::string name = mem::pushOutcomeName(o);
        out += ", \"" + name + "\": " + u64(s, prefix + name);
    }
    return out + "}";
}

/** The per-tenant {demand, prefetch, other} split under @p prefix. */
std::string
splitJson(const sim::StatSnapshot &s, const std::string &prefix)
{
    return "{\"demand\": " + u64(s, prefix + "demand_cycles") +
           ", \"prefetch\": " + u64(s, prefix + "prefetch_cycles") +
           ", \"other\": " + u64(s, prefix + "other_cycles") + "}";
}

/**
 * The per-run "effectiveness" block: the audit layer's lifecycle
 * outcome taxonomy, lead-time histogram, per-tenant bus/DRAM split and
 * the blocked_by interference matrix, read from the run's stats.
 * Fully deterministic (no host times), so regression gates may
 * compare it exactly.
 */
std::string
effectivenessJson(const driver::RunResult &r)
{
    const sim::StatSnapshot &s = r.stats;
    const bool vm_on = r.config.vm.on();
    const unsigned cores = r.config.cores;
    std::string out = "{\"cores\": [";
    for (unsigned c = 0; c < cores; ++c) {
        const std::string a = "audit.core." + std::to_string(c) + ".";
        const std::string pf = r.coreStat("cpu_pf.", c);
        out += c ? ",\n        " : "\n        ";
        out += "{\"push\": " + outcomeJson(s, a, vm_on);
        for (const char *ratio : {"coverage", "accuracy", "timeliness"})
            out += std::string(", \"") + ratio +
                   "\": " + sim::jsonNumber(s.value(a + ratio));
        out += ",\n         \"cpu_pf\": {\"issued\": " +
               u64(s, pf + "issued") +
               ", \"to_memory\": " + u64(s, pf + "to_memory") +
               ", \"useful_timely\": " + u64(s, pf + "timely") +
               ", \"useful_late\": " +
               std::to_string(s.counter(pf + "useful") -
                              s.counter(pf + "timely")) +
               ", \"replaced\": " + u64(s, pf + "replaced");
        if (vm_on)
            out += ", \"dropped_page_cross\": " +
                   u64(s, pf + "dropped_page_cross");
        out += "}";
        const sim::BinnedHistogram &lead =
            s.histogram(a + "lead_time_cycles");
        out += ",\n         \"lead_time\": {\"edges\": [";
        for (std::size_t i = 0; i < lead.numBins(); ++i)
            out += (i ? ", " : "") + sim::jsonNumber(lead.binEdge(i));
        out += "], \"counts\": [";
        for (std::size_t i = 0; i < lead.numBins(); ++i)
            out += (i ? ", " : "") + std::to_string(lead.binCount(i));
        out += "], \"below\": " + std::to_string(lead.below());
        out += ", \"p50\": " + sim::jsonNumber(lead.p50());
        out += ", \"p95\": " + sim::jsonNumber(lead.p95()) + "}";
        const sim::SampleStat &late = s.sample(a + "late_fill_cycles");
        out += ",\n         \"late\": {\"count\": " +
               std::to_string(late.count());
        out += ", \"mean\": " + sim::jsonNumber(late.mean()) + "}";
        out += ",\n         \"bus_cycles\": " + splitJson(s, a + "bus.");
        out += ", \"dram_cycles\": " + splitJson(s, a + "dram.");
        const std::string b =
            "memsys.core." + std::to_string(c) + ".blocked_by.";
        out += ",\n         \"blocked_by\": [";
        for (unsigned j = 0; j < cores; ++j)
            out += u64(s, b + std::to_string(j)) + ", ";
        out += u64(s, b + "ulmt") + "]}";
    }
    out += "],\n       \"engines\": [";
    for (unsigned e = 0;; ++e) {
        const std::string p = "audit.engine." + std::to_string(e) + ".";
        if (!s.has(p + "issued"))
            break;
        out += e ? ", " : "";
        out += "{\"engine\": " + std::to_string(e) +
               ", \"push\": " + outcomeJson(s, p, vm_on) + "}";
    }
    out += "],\n       \"table_dram_cycles\": " +
           u64(s, "audit.ulmt.table_dram_cycles") +
           sim::strformat(", \"open_inflight\": %llu, "
                          "\"open_installed\": %llu}",
                          (unsigned long long)r.audit.openInflight,
                          (unsigned long long)r.audit.openInstalled);
    return out;
}

/** The "vm" block: page size, remap rate and machine-wide TLB totals. */
std::string
vmJson(const driver::RunResult &r)
{
    const sim::StatSnapshot &s = r.stats;
    std::uint64_t hits = 0, misses = 0, walk = 0, pages = 0;
    for (unsigned c = 0; c < r.config.cores; ++c) {
        const std::string p = "vm.core." + std::to_string(c) + ".";
        hits += s.counter(p + "tlb.hits");
        misses += s.counter(p + "tlb.misses");
        walk += s.counter(p + "walk_cycles");
        pages += static_cast<std::uint64_t>(s.value(p + "pages"));
    }
    return sim::strformat("{\"page_bytes\": %u", r.config.vm.pageBytes) +
           ", \"remap_rate\": " + sim::jsonNumber(r.config.vm.remapRate) +
           ", \"remaps\": " + u64(s, "vm.remaps") +
           sim::strformat(", \"tlb_hits\": %llu, \"tlb_misses\": %llu, "
                          "\"walk_cycles\": %llu, \"pages_mapped\": %llu}",
                          (unsigned long long)hits,
                          (unsigned long long)misses,
                          (unsigned long long)walk,
                          (unsigned long long)pages);
}

/** The "tcache" block: geometry and the memsys.tcache.* counters. */
std::string
tcacheJson(const driver::RunResult &r)
{
    std::string out =
        sim::strformat("{\"entries\": %u, \"assoc\": %u",
                       r.config.tableCache.entries,
                       r.config.tableCache.assoc);
    for (const char *leaf :
         {"hits", "misses", "writebacks", "row_batched_writebacks",
          "dirty_buf_high_water", "dram_accesses"})
        out += std::string(", \"") + leaf + "\": " +
               u64(r.stats, std::string("memsys.tcache.") + leaf);
    return out + "}";
}

} // namespace

std::string
Harness::writeJson() const
{
    const double total = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start_)
                             .count();

    std::string out = "{\n";
    out += "  \"bench\": " + sim::jsonQuote(name_);
    out += ",\n";
    out += sim::strformat("  \"jobs\": %u,\n", driver::runnerJobs());
    out += "  \"scale\": " + sim::jsonNumber(opt_.experiment.scale) + ",\n";
    out += "  \"wall_seconds_total\": " + sim::jsonNumber(total) + ",\n";
    out += provenanceJson();

    out += "  \"runs\": [";
    for (std::size_t i = 0; i < runs_.size(); ++i) {
        const driver::RunResult &r = runs_[i];
        out += i ? ",\n    " : "\n    ";
        out += "{\"workload\": " + sim::jsonQuote(r.workload);
        out += ", \"config\": " + sim::jsonQuote(r.label);
        out += ", \"source\": " + sim::jsonQuote(r.source);
        out += ", \"wall_seconds\": " + sim::jsonNumber(r.wallSeconds);
        out += sim::strformat(", \"events\": %llu",
                              (unsigned long long)r.eventsExecuted);
        out += ", \"events_per_sec\": " + sim::jsonNumber(r.eventsPerSec());
        out += sim::strformat(", \"sim_cycles\": %llu",
                              (unsigned long long)r.cycles);
        // Core count only on multicore runs, so single-core benches
        // keep the established schema byte-for-byte.
        if (r.config.cores > 1)
            out += sim::strformat(", \"cores\": %u", r.config.cores);
        // Checkpoint costs only when the run actually checkpointed,
        // so runs without one keep the established schema.
        const double save_s = r.stats.value("ckpt.save_seconds");
        const double restore_s = r.stats.value("ckpt.restore_seconds");
        const double bytes = r.stats.value("ckpt.snapshot_bytes");
        if (save_s > 0.0 || restore_s > 0.0 || bytes > 0.0) {
            out += ", \"ckpt_save_seconds\": " + sim::jsonNumber(save_s);
            out += ", \"ckpt_restore_seconds\": " +
                   sim::jsonNumber(restore_s);
            out += sim::strformat(", \"ckpt_bytes\": %llu",
                                  (unsigned long long)bytes);
        }
        // The VM, table-cache and audit blocks appear only when that
        // layer ran, so runs without it keep the established schema.
        if (r.config.vm.on())
            out += ",\n     \"vm\": " + vmJson(r);
        if (r.config.tableCache.on())
            out += ",\n     \"tcache\": " + tcacheJson(r);
        if (r.audit.enabled)
            out += ",\n     \"effectiveness\": " + effectivenessJson(r);
        out += "}";
    }
    out += runs_.empty() ? "],\n" : "\n  ],\n";

    out += "  \"metrics\": {";
    bool first_metric = true;
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        out += first_metric ? "\n    " : ",\n    ";
        first_metric = false;
        out += sim::jsonQuote(metrics_[i].first);
        out += ": " + sim::jsonNumber(metrics_[i].second);
    }
    // Per-run sampled time series (runs with sampling off are
    // skipped).
    bool any_series = false;
    for (const driver::RunResult &r : runs_)
        any_series = any_series || !r.metrics.empty();
    if (any_series) {
        out += first_metric ? "\n    " : ",\n    ";
        first_metric = false;
        out += "\"series\": [";
        bool first_run = true;
        for (const driver::RunResult &r : runs_) {
            if (r.metrics.empty())
                continue;
            out += first_run ? "\n      " : ",\n      ";
            first_run = false;
            out += "{\"workload\": " + sim::jsonQuote(r.workload);
            out += ", \"config\": " + sim::jsonQuote(r.label);
            out += sim::strformat(
                ", \"interval_cycles\": %llu",
                (unsigned long long)r.metrics.interval);
            out += ",\n       \"cycle\": [";
            for (std::size_t s = 0; s < r.metrics.cycles.size(); ++s)
                out += sim::strformat(
                    "%s%llu", s ? ", " : "",
                    (unsigned long long)r.metrics.cycles[s]);
            out += "],\n       \"channels\": {";
            for (std::size_t c = 0; c < r.metrics.channels.size();
                 ++c) {
                out += c ? ",\n         " : "\n         ";
                out += sim::jsonQuote(r.metrics.channels[c]);
                out += ": [";
                const auto &vals = r.metrics.values[c];
                for (std::size_t s = 0; s < vals.size(); ++s) {
                    if (s)
                        out += ", ";
                    out += seriesNumber(vals[s]);
                }
                out += "]";
            }
            out += "}}";
        }
        out += "\n    ]";
    }
    out += first_metric ? "}\n" : "\n  }\n";
    out += "}\n";

    // Close the bench's trace file here so its JSON epilogue lands
    // even when main never returns normally.
    if (opt_.experiment.traceEvents)
        opt_.experiment.traceEvents->finish();

    std::string path = "BENCH_" + name_ + ".json";
    if (const char *dir = std::getenv("ULMT_BENCH_DIR")) {
        if (*dir)
            path = std::string(dir) + "/" + path;
    }
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        sim::warn("cannot write %s", path.c_str());
        return path;
    }
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
    writeThroughputJson();
    std::printf("\n[bench] wrote %s (%.2fs total, %u jobs)\n",
                path.c_str(), total, driver::runnerJobs());
    return path;
}

void
Harness::writeThroughputJson() const
{
    // The host-side throughput summary of this bench invocation: how
    // fast the simulator itself ran each configuration.  Every bench
    // rewrites the file, so it always describes the latest invocation
    // (CI archives it next to the bench's own JSON).
    std::uint64_t total_events = 0;
    double total_wall = 0.0;
    std::string out = "{\n  \"bench\": ";
    out += sim::jsonQuote(name_);
    out += ",\n";
    out += provenanceJson();
    out += "  \"throughput\": [";
    for (std::size_t i = 0; i < runs_.size(); ++i) {
        const driver::RunResult &r = runs_[i];
        total_events += r.eventsExecuted;
        total_wall += r.wallSeconds;
        out += i ? ",\n    " : "\n    ";
        out += "{\"workload\": " + sim::jsonQuote(r.workload);
        out += ", \"config\": " + sim::jsonQuote(r.label);
        // Self-identifying rows: a throughput archive mixes many bench
        // invocations, so each row carries its machine shape.
        out += ", \"scale\": " + sim::jsonNumber(opt_.experiment.scale);
        out += sim::strformat(", \"cores\": %u", r.config.cores);
        out += ", \"ulmt_mode\": ";
        out += sim::jsonQuote(core::to_string(r.config.ulmtMode));
        out += sim::strformat(", \"events\": %llu",
                              (unsigned long long)r.eventsExecuted);
        out += ", \"wall_seconds\": " + sim::jsonNumber(r.wallSeconds);
        out += ", \"events_per_sec\": " + sim::jsonNumber(r.eventsPerSec());
        out += "}";
    }
    out += runs_.empty() ? "],\n" : "\n  ],\n";
    out += sim::strformat("  \"events_total\": %llu,\n",
                          (unsigned long long)total_events);
    out += "  \"wall_seconds_sim\": " + sim::jsonNumber(total_wall) + ",\n";
    out += "  \"events_per_sec_overall\": " +
           sim::jsonNumber(total_wall > 0.0
                          ? static_cast<double>(total_events) /
                                total_wall
                          : 0.0) +
           "\n}\n";

    std::string path = "BENCH_throughput.json";
    if (const char *dir = std::getenv("ULMT_BENCH_DIR")) {
        if (*dir)
            path = std::string(dir) + "/" + path;
    }
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        sim::warn("cannot write %s", path.c_str());
        return;
    }
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
}

} // namespace bench
