/**
 * @file
 * ulmt-trace: capture, inspect and import on-disk trace corpora.
 *
 *   ulmt-trace record <app> <out.trace> [--scale=S] [--seed=N]
 *       Generate <app>'s dynamic trace and capture it (via the tee
 *       source, exactly the records a simulation would consume).
 *
 *   ulmt-trace info <file>
 *       Print header provenance and trailer totals.
 *
 *   ulmt-trace dump <file> [--limit=N]
 *       Print records as text (default first 32; --limit=0 = all).
 *
 *   ulmt-trace convert <in.txt> <out.trace> [--app=NAME] [--ops=N]
 *       Import a ChampSim-style text/CSV access trace (pc, addr, r/w
 *       per line) into the native format.
 *
 * Every produced file replays as a first-class workload under the
 * `trace:<path>` scheme accepted by the benches and examples.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "driver/experiment.hh"
#include "trace/import.hh"
#include "trace/reader.hh"
#include "trace/writer.hh"
#include "workloads/workload.hh"

namespace {

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s <subcommand> ...\n"
        "  record <app> <out.trace> [--scale=S] [--seed=N]\n"
        "  info <file>\n"
        "  dump <file> [--limit=N]\n"
        "  convert <in.txt> <out.trace> [--app=NAME] [--ops=N]\n",
        argv0);
    return 2;
}

using driver::flagValue;

[[noreturn]] void
badFlag(const char *arg)
{
    std::fprintf(stderr, "ulmt-trace: unknown argument '%s'\n", arg);
    std::exit(2);
}

int
cmdRecord(const std::vector<std::string> &args)
{
    if (args.size() < 2)
        throw trace::TraceError(
            "record needs <app> <out.trace> arguments");
    const std::string &app = args[0];
    const std::string &out = args[1];
    workloads::WorkloadParams wp;
    for (std::size_t i = 2; i < args.size(); ++i) {
        if (const char *v = flagValue(args[i].c_str(), "--scale="))
            wp.scale = driver::parseScale(v);
        else if (const char *s = flagValue(args[i].c_str(), "--seed="))
            wp.seed = driver::parseSeed(s);
        else
            badFlag(args[i].c_str());
    }

    auto wl = workloads::makeWorkload(app, wp);
    trace::TraceWriter::Options wo;
    wo.app = wl->name();
    wo.seed = wp.seed;
    wo.scale = wp.scale;
    trace::TraceWriter writer(out, wo);
    trace::TeeTraceSource tee(*wl, writer);
    cpu::TraceRecord rec;
    while (tee.next(rec)) {
    }
    writer.finish();
    std::printf("recorded %llu records of %s (scale %g, seed %#llx) "
                "to %s\n",
                (unsigned long long)writer.recordsWritten(),
                wo.app.c_str(), wo.scale,
                (unsigned long long)wo.seed, out.c_str());
    return 0;
}

int
cmdInfo(const std::vector<std::string> &args)
{
    if (args.size() != 1)
        throw trace::TraceError("info needs exactly one <file>");
    trace::TraceReader reader(args[0]);
    const trace::TraceHeader &h = reader.header();
    const trace::TraceSummary &s = reader.summary();
    std::printf("file:       %s\n", args[0].c_str());
    std::printf("version:    %u\n", h.version);
    std::printf("app:        %s\n", h.app.c_str());
    std::printf("scale:      %g\n", h.scale);
    std::printf("seed:       %#llx\n", (unsigned long long)h.seed);
    std::printf("records:    %llu\n", (unsigned long long)s.records);
    std::printf("blocks:     %u\n", s.blocks);
    std::printf("footprint:  %llu bytes\n",
                (unsigned long long)s.footprintBytes);
    return 0;
}

int
cmdDump(const std::vector<std::string> &args)
{
    if (args.empty())
        throw trace::TraceError("dump needs a <file>");
    std::uint64_t limit = 32;
    for (std::size_t i = 1; i < args.size(); ++i) {
        if (const char *v = flagValue(args[i].c_str(), "--limit="))
            limit = driver::parseCount(v);
        else
            badFlag(args[i].c_str());
    }
    trace::TraceReader reader(args[0]);
    cpu::TraceRecord rec;
    std::uint64_t i = 0;
    while (reader.next(rec)) {
        if (limit && i >= limit) {
            std::printf("... (%llu of %llu records shown)\n",
                        (unsigned long long)limit,
                        (unsigned long long)
                            reader.summary().records);
            return 0;
        }
        if (rec.hasRef()) {
            std::printf("%8llu  ops=%-6u %s 0x%llx%s\n",
                        (unsigned long long)i, rec.computeOps,
                        rec.isWrite ? "store" : "load ",
                        (unsigned long long)rec.addr,
                        rec.dependsOnPrev ? "  [dep]" : "");
        } else {
            std::printf("%8llu  ops=%-6u (compute only)\n",
                        (unsigned long long)i, rec.computeOps);
        }
        ++i;
    }
    return 0;
}

/** A --ops value: a count that fits the record's 32-bit field. */
std::uint32_t
parseOps(const char *text)
{
    const std::uint64_t ops = driver::parseCount(text);
    if (ops > UINT32_MAX)
        throw trace::TraceError("--ops=" + std::string(text) +
                                " exceeds the 32-bit compute-op count");
    return static_cast<std::uint32_t>(ops);
}

int
cmdConvert(const std::vector<std::string> &args)
{
    if (args.size() < 2)
        throw trace::TraceError(
            "convert needs <in.txt> <out.trace> arguments");
    trace::ImportOptions io;
    for (std::size_t i = 2; i < args.size(); ++i) {
        if (const char *v = flagValue(args[i].c_str(), "--app="))
            io.app = v;
        else if (const char *o = flagValue(args[i].c_str(), "--ops="))
            io.computeOps = parseOps(o);
        else
            badFlag(args[i].c_str());
    }
    trace::TraceWriter::Options wo;
    wo.app = io.app;
    trace::TraceWriter writer(args[1], wo);
    const std::uint64_t n = trace::importText(args[0], writer, io);
    writer.finish();
    std::printf("converted %llu accesses from %s to %s (app '%s')\n",
                (unsigned long long)n, args[0].c_str(),
                args[1].c_str(), io.app.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(argv[0]);
    const std::string cmd = argv[1];
    const std::vector<std::string> args(argv + 2, argv + argc);
    try {
        if (cmd == "record")
            return cmdRecord(args);
        if (cmd == "info")
            return cmdInfo(args);
        if (cmd == "dump")
            return cmdDump(args);
        if (cmd == "convert")
            return cmdConvert(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ulmt-trace: %s\n", e.what());
        return 1;
    }
    std::fprintf(stderr, "ulmt-trace: unknown subcommand '%s'\n",
                 cmd.c_str());
    return usage(argv[0]);
}
