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
#include "driver/runner.hh"
#include "sim/logging.hh"

namespace bench {

Options
parseArgs(int argc, char **argv, double default_scale,
          std::initializer_list<const char *> refused)
{
    Options opt;
    driver::ExperimentOptions &exp = opt.experiment;
    exp.scale = default_scale;
    bool scale_seen = false;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        for (const char *r : refused) {
            const std::size_t n = std::strlen(r);
            if (std::strncmp(arg, r, n) == 0 &&
                (arg[n] == '\0' || arg[n] == '='))
                sim::fatal("this bench sets %s itself; refusing '%s'", r,
                           arg);
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
                    "[--metrics-interval=N] [--check[=basic|deep]] "
                    "[--check-interval=N] [--audit=on|off] "
                    "[--checkpoint-at=SPEC] [--checkpoint-to=DIR] "
                    "[--restore-from=PATH] [--cores=N] "
                    "[--ulmt-mode=shared|percore|sharded] "
                    "[--vm=on|off] [--page-size=4k|2m] [--remap-rate=R] "
                    "[--table-cache=<entries>[,<assoc>]] "
                    "[--list-workloads])",
                    arg);
            }
        } catch (const std::invalid_argument &e) {
            sim::fatal("%s", e.what());
        }
    }
    if (opt.jobs)
        driver::setRunnerJobs(opt.jobs);
    return opt;
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

void
appendEscaped(std::string &out, const std::string &s)
{
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += sim::strformat("\\u%04x", c);
            else
                out += c;
        }
    }
    out += '"';
}

std::string
jsonNumber(double v)
{
    // Shortest round-trippable decimal; JSON has no inf/nan.
    if (v != v || v == 1.0 / 0.0 || v == -1.0 / 0.0)
        return "null";
    return sim::strformat("%.17g", v);
}

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
    out += "    \"git_sha\": ";
    appendEscaped(out, gitSha());
    out += ",\n    \"timestamp_utc\": ";
    appendEscaped(out, utcTimestamp());
    out += ",\n    \"host\": {";
    struct utsname un{};
    if (::uname(&un) == 0) {
        out += "\"hostname\": ";
        appendEscaped(out, un.nodename);
        out += ", \"sysname\": ";
        appendEscaped(out, un.sysname);
        out += ", \"release\": ";
        appendEscaped(out, un.release);
        out += ", \"machine\": ";
        appendEscaped(out, un.machine);
        out += sim::strformat(", \"nproc\": %ld",
                              ::sysconf(_SC_NPROCESSORS_ONLN));
    }
    out += "}\n  },\n";
    return out;
}

/** One push-outcome counter set as a JSON object.  The page-cross
 *  drop class exists only when the VM layer is on; emitting it
 *  conditionally keeps pre-VM BENCH files byte-identical. */
std::string
outcomeJson(const mem::AuditOutcomeCounts &c, bool with_page_cross)
{
    std::string out = sim::strformat(
        "{\"issued\": %llu, \"useful_timely\": %llu, "
        "\"useful_late\": %llu, \"evicted_unused\": %llu, "
        "\"redundant\": %llu, \"dropped_filter\": %llu, "
        "\"dropped_queue_full\": %llu, \"dropped_demand_match\": %llu, "
        "\"dropped_cpu_pf_match\": %llu",
        (unsigned long long)c.issued, (unsigned long long)c.usefulTimely,
        (unsigned long long)c.usefulLate,
        (unsigned long long)c.evictedUnused,
        (unsigned long long)c.redundant,
        (unsigned long long)c.droppedFilter,
        (unsigned long long)c.droppedQueueFull,
        (unsigned long long)c.droppedDemandMatch,
        (unsigned long long)c.droppedCpuPfMatch);
    if (with_page_cross)
        out += sim::strformat(", \"dropped_page_cross\": %llu",
                              (unsigned long long)c.droppedPageCross);
    return out + "}";
}

/**
 * The per-run "effectiveness" block: the audit layer's lifecycle
 * outcome taxonomy, lead-time histogram, per-tenant bus/DRAM split and
 * the blocked_by interference matrix.  Fully deterministic (no host
 * times), so regression gates may compare it exactly.
 */
std::string
effectivenessJson(const mem::AuditReport &a, bool vm_on)
{
    std::string out = "{\"cores\": [";
    for (std::size_t c = 0; c < a.cores.size(); ++c) {
        const mem::AuditCoreReport &cr = a.cores[c];
        out += c ? ",\n        " : "\n        ";
        out += "{\"push\": " + outcomeJson(cr.push, vm_on);
        out += ", \"coverage\": " + jsonNumber(cr.coverage);
        out += ", \"accuracy\": " + jsonNumber(cr.accuracy);
        out += ", \"timeliness\": " + jsonNumber(cr.timeliness);
        out += sim::strformat(
            ",\n         \"cpu_pf\": {\"issued\": %llu, "
            "\"to_memory\": %llu, \"useful_timely\": %llu, "
            "\"useful_late\": %llu, \"replaced\": %llu",
            (unsigned long long)cr.cpuPfIssued,
            (unsigned long long)cr.cpuPfToMemory,
            (unsigned long long)cr.cpuPfUsefulTimely,
            (unsigned long long)cr.cpuPfUsefulLate,
            (unsigned long long)cr.cpuPfReplaced);
        if (vm_on)
            out += sim::strformat(
                ", \"dropped_page_cross\": %llu",
                (unsigned long long)cr.cpuPfDroppedPageCross);
        out += "}";
        out += ",\n         \"lead_time\": {\"edges\": [";
        for (std::size_t i = 0; i < cr.leadEdges.size(); ++i)
            out += (i ? ", " : "") + jsonNumber(cr.leadEdges[i]);
        out += "], \"counts\": [";
        for (std::size_t i = 0; i < cr.leadCounts.size(); ++i)
            out += sim::strformat("%s%llu", i ? ", " : "",
                                  (unsigned long long)cr.leadCounts[i]);
        out += sim::strformat("], \"below\": %llu",
                              (unsigned long long)cr.leadBelow);
        out += ", \"p50\": " + jsonNumber(cr.leadP50);
        out += ", \"p95\": " + jsonNumber(cr.leadP95) + "}";
        out += sim::strformat(",\n         \"late\": {\"count\": %llu",
                              (unsigned long long)cr.lateCount);
        out += ", \"mean\": " + jsonNumber(cr.lateMean) + "}";
        out += sim::strformat(
            ",\n         \"bus_cycles\": {\"demand\": %llu, "
            "\"prefetch\": %llu, \"other\": %llu}",
            (unsigned long long)cr.busDemandCycles,
            (unsigned long long)cr.busPrefetchCycles,
            (unsigned long long)cr.busOtherCycles);
        out += sim::strformat(
            ", \"dram_cycles\": {\"demand\": %llu, "
            "\"prefetch\": %llu, \"other\": %llu}",
            (unsigned long long)cr.dramDemandCycles,
            (unsigned long long)cr.dramPrefetchCycles,
            (unsigned long long)cr.dramOtherCycles);
        out += ",\n         \"blocked_by\": [";
        for (std::size_t i = 0; i < cr.blockedBy.size(); ++i)
            out += sim::strformat("%s%llu", i ? ", " : "",
                                  (unsigned long long)cr.blockedBy[i]);
        out += "]}";
    }
    out += "],\n       \"engines\": [";
    for (std::size_t e = 0; e < a.engines.size(); ++e) {
        out += e ? ", " : "";
        out += sim::strformat("{\"engine\": %u, \"push\": ",
                              a.engines[e].engine);
        out += outcomeJson(a.engines[e].push, vm_on) + "}";
    }
    out += sim::strformat(
        "],\n       \"table_dram_cycles\": %llu, "
        "\"open_inflight\": %llu, \"open_installed\": %llu}",
        (unsigned long long)a.tableDramCycles,
        (unsigned long long)a.openInflight,
        (unsigned long long)a.openInstalled);
    return out;
}

} // namespace

std::string
Harness::writeJson() const
{
    const double total = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start_)
                             .count();

    std::string out = "{\n";
    out += "  \"bench\": ";
    appendEscaped(out, name_);
    out += ",\n";
    out += sim::strformat("  \"jobs\": %u,\n", driver::runnerJobs());
    out += "  \"scale\": " + jsonNumber(opt_.experiment.scale) + ",\n";
    out += "  \"wall_seconds_total\": " + jsonNumber(total) + ",\n";
    out += provenanceJson();

    out += "  \"runs\": [";
    for (std::size_t i = 0; i < runs_.size(); ++i) {
        const driver::RunResult &r = runs_[i];
        out += i ? ",\n    " : "\n    ";
        out += "{\"workload\": ";
        appendEscaped(out, r.workload);
        out += ", \"config\": ";
        appendEscaped(out, r.label);
        out += ", \"source\": ";
        appendEscaped(out, r.source);
        out += ", \"wall_seconds\": " + jsonNumber(r.wallSeconds);
        out += sim::strformat(", \"events\": %llu",
                              (unsigned long long)r.eventsExecuted);
        out += ", \"events_per_sec\": " + jsonNumber(r.eventsPerSec());
        out += sim::strformat(", \"sim_cycles\": %llu",
                              (unsigned long long)r.cycles);
        // Core count only on multicore runs, so single-core benches
        // keep the established schema byte-for-byte.
        if (r.cores > 1)
            out += sim::strformat(", \"cores\": %u", r.cores);
        // Checkpoint costs only when the run actually checkpointed,
        // so runs without one keep the established schema.
        if (r.ckptSaveSeconds > 0.0 || r.ckptRestoreSeconds > 0.0 ||
            r.ckptBytes > 0) {
            out += ", \"ckpt_save_seconds\": " +
                   jsonNumber(r.ckptSaveSeconds);
            out += ", \"ckpt_restore_seconds\": " +
                   jsonNumber(r.ckptRestoreSeconds);
            out += sim::strformat(", \"ckpt_bytes\": %llu",
                                  (unsigned long long)r.ckptBytes);
        }
        // VM layer (ISSUE 9): present only when translation ran, so
        // every pre-VM bench keeps the established schema.
        if (r.vmOn) {
            out += sim::strformat(",\n     \"vm\": {\"page_bytes\": %u",
                                  r.vmPageBytes);
            out += ", \"remap_rate\": " + jsonNumber(r.vmRemapRate);
            out += sim::strformat(
                ", \"remaps\": %llu, \"tlb_hits\": %llu, "
                "\"tlb_misses\": %llu, \"walk_cycles\": %llu, "
                "\"pages_mapped\": %llu}",
                (unsigned long long)r.vmRemaps,
                (unsigned long long)r.vmTlbHits,
                (unsigned long long)r.vmTlbMisses,
                (unsigned long long)r.vmWalkCycles,
                (unsigned long long)r.vmPagesMapped);
        }
        // Table cache (ISSUE 10): present only when --table-cache was
        // on, so cache-off runs keep the established schema.
        if (r.tcacheOn) {
            out += sim::strformat(
                ",\n     \"tcache\": {\"entries\": %u, \"assoc\": %u, "
                "\"hits\": %llu, \"misses\": %llu, "
                "\"writebacks\": %llu, "
                "\"row_batched_writebacks\": %llu, "
                "\"dirty_buf_high_water\": %llu, "
                "\"dram_accesses\": %llu}",
                r.tcacheEntries, r.tcacheAssoc,
                (unsigned long long)r.tcache.hits,
                (unsigned long long)r.tcache.misses,
                (unsigned long long)r.tcache.writebacks,
                (unsigned long long)r.tcache.rowBatchedWritebacks,
                (unsigned long long)r.tcache.dirtyBufHighWater,
                (unsigned long long)r.tcache.dramAccesses);
        }
        // Lifecycle audit (ISSUE 8): present only when the auditor ran,
        // so audit-off invocations keep the established schema.
        if (r.audit.enabled) {
            out += ",\n     \"effectiveness\": ";
            out += effectivenessJson(r.audit, r.vmOn);
        }
        out += "}";
    }
    out += runs_.empty() ? "],\n" : "\n  ],\n";

    out += "  \"metrics\": {";
    bool first_metric = true;
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        out += first_metric ? "\n    " : ",\n    ";
        first_metric = false;
        appendEscaped(out, metrics_[i].first);
        out += ": " + jsonNumber(metrics_[i].second);
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
            out += "{\"workload\": ";
            appendEscaped(out, r.workload);
            out += ", \"config\": ";
            appendEscaped(out, r.label);
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
                appendEscaped(out, r.metrics.channels[c]);
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
    appendEscaped(out, name_);
    out += ",\n";
    out += provenanceJson();
    out += "  \"throughput\": [";
    for (std::size_t i = 0; i < runs_.size(); ++i) {
        const driver::RunResult &r = runs_[i];
        total_events += r.eventsExecuted;
        total_wall += r.wallSeconds;
        out += i ? ",\n    " : "\n    ";
        out += "{\"workload\": ";
        appendEscaped(out, r.workload);
        out += ", \"config\": ";
        appendEscaped(out, r.label);
        // Self-identifying rows: a throughput archive mixes many bench
        // invocations, so each row carries its machine shape.
        out += ", \"scale\": " + jsonNumber(opt_.experiment.scale);
        out += sim::strformat(", \"cores\": %u", r.cores);
        out += ", \"ulmt_mode\": ";
        appendEscaped(out, r.ulmtMode);
        out += sim::strformat(", \"events\": %llu",
                              (unsigned long long)r.eventsExecuted);
        out += ", \"wall_seconds\": " + jsonNumber(r.wallSeconds);
        out += ", \"events_per_sec\": " + jsonNumber(r.eventsPerSec());
        out += "}";
    }
    out += runs_.empty() ? "],\n" : "\n  ],\n";
    out += sim::strformat("  \"events_total\": %llu,\n",
                          (unsigned long long)total_events);
    out += "  \"wall_seconds_sim\": " + jsonNumber(total_wall) + ",\n";
    out += "  \"events_per_sec_overall\": " +
           jsonNumber(total_wall > 0.0
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
