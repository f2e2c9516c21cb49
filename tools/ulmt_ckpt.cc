/**
 * @file
 * ulmt-ckpt: create, inspect and compare checkpoint snapshots.
 *
 *   ulmt-ckpt create <app> <out.ulmtckp> [--algo=NAME] [--at=SPEC]
 *                    [--scale=S] [--seed=N] [--conven4]
 *                    [machine flags]
 *       Run <app> under the named ULMT algorithm (default Repl;
 *       "None" = no ULMT), snapshotting after SPEC ("<N>" demand L2
 *       misses, default 1000, or "<N>c" at cycle N), and report the
 *       run's result fingerprint.  The machine flags are the benches'
 *       (the rows of driver::machineLayers, listed by the usage line);
 *       restoring needs the same machine shape.  A bad value exits 1,
 *       an unknown --algo or argument exits 2, and neither writes a
 *       snapshot.
 *
 *   ulmt-ckpt info <file>
 *       Print header provenance (including the machine shape and the
 *       VM layer's page size / page-table shape) and the section
 *       table.
 *
 *   ulmt-ckpt verify <file>
 *       Fully validate the file (magic, version, every section
 *       checksum, trailer totals and checksum chain).
 *
 *   ulmt-ckpt diff <a> <b>
 *       Compare two snapshots: header fields plus per-section sizes
 *       and checksums.  Exit 0 when identical, 1 when they differ.
 *
 *   ulmt-ckpt list-workloads
 *       Print the registered workload names.
 *
 * A snapshot restores via `driver::runSampled` or the benches'
 * `--restore-from=` flag; the restored run finishes with statistics
 * bit-identical to the uninterrupted run it was taken from.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hh"
#include "driver/experiment.hh"
#include "driver/report.hh"
#include "vm/vm.hh"

namespace {

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s <subcommand> ...\n"
        "  create <app> <out.ulmtckp> [--algo=NAME] [--at=SPEC]\n"
        "         [--scale=S] [--seed=N] [--conven4] [machine flags]\n"
        "  info <file>\n"
        "  verify <file>\n"
        "  diff <a> <b>\n"
        "  list-workloads\n"
        "  machine flags: %s\n",
        argv0, driver::machineFlagUsage().c_str());
    return 2;
}

using driver::flagValue;

[[noreturn]] void
badFlag(const char *arg)
{
    std::fprintf(stderr, "ulmt-ckpt: unknown argument '%s'\n", arg);
    std::exit(2);
}

int
cmdCreate(const std::vector<std::string> &args)
{
    if (args.size() < 2)
        throw ckpt::CkptError(
            "create needs <app> <out.ulmtckp> arguments");
    const std::string &app = args[0];
    const std::string &out = args[1];
    driver::ExperimentOptions opt;
    std::string algo_name = "Repl";
    std::string at = "1000";
    bool conven4 = false;
    for (std::size_t i = 2; i < args.size(); ++i) {
        if (driver::parseMachineFlag(args[i], opt.machine))
            continue;
        if (const char *v = flagValue(args[i].c_str(), "--algo="))
            algo_name = v;
        else if (const char *a = flagValue(args[i].c_str(), "--at="))
            at = a;
        else if (const char *s = flagValue(args[i].c_str(), "--scale="))
            opt.scale = driver::parseScale(s);
        else if (const char *n = flagValue(args[i].c_str(), "--seed="))
            opt.seed = driver::parseSeed(n);
        else if (args[i] == "--conven4")
            conven4 = true;
        else
            badFlag(args[i].c_str());
    }

    const std::optional<core::UlmtAlgo> found =
        core::findUlmtAlgo(algo_name);
    if (!found) {
        std::fprintf(stderr,
                     "ulmt-ckpt: unknown --algo '%s' (valid: %s)\n",
                     algo_name.c_str(), core::ulmtAlgoNames().c_str());
        return 2;
    }
    const core::UlmtAlgo algo = *found;
    driver::SystemConfig cfg =
        algo == core::UlmtAlgo::None
            ? driver::noPrefConfig(opt)
            : (conven4 ? driver::conven4PlusUlmtConfig(opt, algo, app)
                       : driver::ulmtConfig(opt, algo, app));
    if (algo == core::UlmtAlgo::None && conven4)
        cfg = driver::conven4Config(opt);

    auto ws =
        driver::makeCoreWorkloads(app, opt.seed, opt.scale, cfg.cores);
    const std::string name = ws[0]->name();
    driver::System sys(cfg, std::move(ws), name);
    sys.setCheckpointMeta(app, opt.seed, opt.scale);
    sys.setCheckpointTrigger(at, out);
    const driver::RunResult r = sys.run();
    const auto bytes =
        static_cast<unsigned long long>(r.stats.value("ckpt.snapshot_bytes"));
    if (bytes == 0) {
        std::fprintf(stderr,
                     "ulmt-ckpt: the run finished before the trigger "
                     "'%s' fired; no snapshot written\n",
                     at.c_str());
        return 1;
    }
    std::printf("snapshot:     %s (%llu bytes)\n", out.c_str(), bytes);
    const ckpt::CkptHeader h = ckpt::CheckpointImage::readHeader(out);
    std::printf("taken at:     cycle %llu, %llu misses\n",
                (unsigned long long)h.cycle,
                (unsigned long long)h.misses);
    std::printf("run ended:    cycle %llu\n",
                (unsigned long long)r.cycles);
    const std::string fp = driver::resultFingerprint(r);
    std::printf("fingerprint:  %016llx\n",
                (unsigned long long)ckpt::fnv1a64(fp.data(), fp.size()));
    return 0;
}

int
cmdInfo(const std::vector<std::string> &args)
{
    if (args.size() != 1)
        throw ckpt::CkptError("info needs exactly one <file>");
    const ckpt::CheckpointImage img =
        ckpt::CheckpointImage::readFile(args[0]);
    const ckpt::CkptHeader &h = img.header;
    std::printf("file:        %s\n", args[0].c_str());
    std::printf("version:     %u\n", h.version);
    std::printf("workload:    %s\n", h.workload.c_str());
    std::printf("config:      %s\n", h.label.c_str());
    std::printf("config fp:   %#llx\n",
                (unsigned long long)h.configFingerprint);
    std::printf("seed:        %#llx\n", (unsigned long long)h.seed);
    std::printf("scale:       %g\n", h.scale);
    std::printf("machine:     %u core%s, %s serving\n", h.cores,
                h.cores == 1 ? "" : "s",
                h.ulmtMode <= std::uint32_t(core::UlmtMode::Sharded)
                    ? core::to_string(core::UlmtMode(h.ulmtMode))
                          .c_str()
                    : "unknown");
    std::printf("cycle:       %llu\n", (unsigned long long)h.cycle);
    std::printf("misses:      %llu\n", (unsigned long long)h.misses);
    if (h.vmPageBytes) {
        if (const std::string *vm_sec = img.findSection("vm")) {
            std::printf("vm:          %s\n",
                        vm::sectionSummary(*vm_sec, h.cores,
                                           h.vmPageBytes)
                            .c_str());
        } else {
            std::printf("vm:          %s pages (section missing)\n",
                        vm::pageSizeName(h.vmPageBytes).c_str());
        }
    } else {
        std::printf("vm:          off\n");
    }
    std::printf("table cache: %s\n",
                img.findSection("tcache") ? "on (tcache section)"
                                          : "off");
    std::printf("sections:    %zu (%llu payload bytes)\n",
                img.sections().size(),
                (unsigned long long)img.payloadBytes());
    for (const auto &[name, payload] : img.sections()) {
        std::printf("  %-8s %10zu bytes  fnv %016llx\n", name.c_str(),
                    payload.size(),
                    (unsigned long long)ckpt::fnv1a64(payload.data(),
                                                      payload.size()));
    }
    return 0;
}

int
cmdVerify(const std::vector<std::string> &args)
{
    if (args.size() != 1)
        throw ckpt::CkptError("verify needs exactly one <file>");
    // readFile validates magic, version, every section checksum and
    // the trailer chain; reaching here means the file is sound.
    const ckpt::CheckpointImage img =
        ckpt::CheckpointImage::readFile(args[0]);
    std::printf("%s: OK (%zu sections, %llu payload bytes, %s @ %s)\n",
                args[0].c_str(), img.sections().size(),
                (unsigned long long)img.payloadBytes(),
                img.header.workload.c_str(), img.header.label.c_str());
    return 0;
}

int
cmdDiff(const std::vector<std::string> &args)
{
    if (args.size() != 2)
        throw ckpt::CkptError("diff needs exactly <a> <b>");
    const ckpt::CheckpointImage a =
        ckpt::CheckpointImage::readFile(args[0]);
    const ckpt::CheckpointImage b =
        ckpt::CheckpointImage::readFile(args[1]);
    int differences = 0;
    auto field = [&](const char *name, const std::string &va,
                     const std::string &vb) {
        if (va != vb) {
            std::printf("header %s: %s != %s\n", name, va.c_str(),
                        vb.c_str());
            ++differences;
        }
    };
    auto num = [&](const char *name, unsigned long long va,
                   unsigned long long vb) {
        if (va != vb) {
            std::printf("header %s: %llu != %llu\n", name, va, vb);
            ++differences;
        }
    };
    field("workload", a.header.workload, b.header.workload);
    field("label", a.header.label, b.header.label);
    num("config_fingerprint", a.header.configFingerprint,
        b.header.configFingerprint);
    num("seed", a.header.seed, b.header.seed);
    num("cores", a.header.cores, b.header.cores);
    num("ulmt_mode", a.header.ulmtMode, b.header.ulmtMode);
    num("vm_page_bytes", a.header.vmPageBytes, b.header.vmPageBytes);
    num("cycle", a.header.cycle, b.header.cycle);
    num("misses", a.header.misses, b.header.misses);
    if (a.header.scale != b.header.scale) {
        std::printf("header scale: %g != %g\n", a.header.scale,
                    b.header.scale);
        ++differences;
    }

    for (const auto &[name, payload] : a.sections()) {
        const std::string *other = b.findSection(name);
        if (!other) {
            std::printf("section %s: only in %s\n", name.c_str(),
                        args[0].c_str());
            ++differences;
        } else if (payload != *other) {
            std::printf("section %s: %zu bytes (fnv %016llx) != %zu "
                        "bytes (fnv %016llx)\n",
                        name.c_str(), payload.size(),
                        (unsigned long long)ckpt::fnv1a64(
                            payload.data(), payload.size()),
                        other->size(),
                        (unsigned long long)ckpt::fnv1a64(
                            other->data(), other->size()));
            if (name == "vm" && a.header.vmPageBytes &&
                b.header.vmPageBytes) {
                std::printf("  a: %s\n  b: %s\n",
                            vm::sectionSummary(payload, a.header.cores,
                                               a.header.vmPageBytes)
                                .c_str(),
                            vm::sectionSummary(*other, b.header.cores,
                                               b.header.vmPageBytes)
                                .c_str());
            }
            ++differences;
        }
    }
    for (const auto &[name, payload] : b.sections()) {
        if (!a.findSection(name)) {
            std::printf("section %s: only in %s\n", name.c_str(),
                        args[1].c_str());
            ++differences;
        }
    }
    if (differences == 0) {
        std::printf("identical (%zu sections)\n", a.sections().size());
        return 0;
    }
    return 1;
}

int
cmdListWorkloads()
{
    for (const std::string &w : driver::listWorkloads())
        std::printf("%s\n", w.c_str());
    std::printf("trace:<path>\n");
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
        if (cmd == "create")
            return cmdCreate(args);
        if (cmd == "info")
            return cmdInfo(args);
        if (cmd == "verify")
            return cmdVerify(args);
        if (cmd == "diff")
            return cmdDiff(args);
        if (cmd == "list-workloads")
            return cmdListWorkloads();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ulmt-ckpt: %s\n", e.what());
        return 1;
    }
    std::fprintf(stderr, "ulmt-ckpt: unknown subcommand '%s'\n",
                 cmd.c_str());
    return usage(argv[0]);
}
