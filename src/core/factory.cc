#include "core/factory.hh"

#include <stdexcept>

#include "core/conflict_aware.hh"
#include "core/base_chain.hh"
#include "core/composite.hh"
#include "core/profiler.hh"
#include "core/replicated.hh"
#include "core/seq_prefetcher.hh"
#include "sim/logging.hh"

namespace core {

std::string
to_string(UlmtAlgo algo)
{
    switch (algo) {
      case UlmtAlgo::None:
        return "None";
      case UlmtAlgo::Base:
        return "Base";
      case UlmtAlgo::Chain:
        return "Chain";
      case UlmtAlgo::Repl:
        return "Repl";
      case UlmtAlgo::Seq1:
        return "Seq1";
      case UlmtAlgo::Seq4:
        return "Seq4";
      case UlmtAlgo::Seq4Base:
        return "Seq4+Base";
      case UlmtAlgo::Seq4Repl:
        return "Seq4+Repl";
      case UlmtAlgo::Seq1Repl:
        return "Seq1+Repl";
      case UlmtAlgo::ReplCA:
        return "Repl+CA";
      case UlmtAlgo::Profile:
        return "Profile";
    }
    return "?";
}

namespace {

constexpr UlmtAlgo allAlgos[] = {
    UlmtAlgo::None,     UlmtAlgo::Base,     UlmtAlgo::Chain,
    UlmtAlgo::Repl,     UlmtAlgo::Seq1,     UlmtAlgo::Seq4,
    UlmtAlgo::Seq4Base, UlmtAlgo::Seq4Repl, UlmtAlgo::Seq1Repl,
    UlmtAlgo::ReplCA,   UlmtAlgo::Profile};

} // namespace

std::optional<UlmtAlgo>
findUlmtAlgo(const std::string &name)
{
    for (UlmtAlgo a : allAlgos) {
        if (to_string(a) == name)
            return a;
    }
    return std::nullopt;
}

std::string
ulmtAlgoNames()
{
    std::string names;
    for (UlmtAlgo a : allAlgos)
        names += (names.empty() ? "" : ", ") + to_string(a);
    return names;
}

UlmtAlgo
parseUlmtAlgo(const std::string &name)
{
    if (const std::optional<UlmtAlgo> a = findUlmtAlgo(name))
        return *a;
    sim::fatal("unknown ULMT algorithm '%s' (valid: %s)", name.c_str(),
               ulmtAlgoNames().c_str());
}

std::string
to_string(UlmtMode mode)
{
    switch (mode) {
      case UlmtMode::Shared:
        return "shared";
      case UlmtMode::PerCore:
        return "percore";
      case UlmtMode::Sharded:
        return "sharded";
    }
    return "?";
}

UlmtMode
parseUlmtMode(const std::string &name)
{
    for (UlmtMode m :
         {UlmtMode::Shared, UlmtMode::PerCore, UlmtMode::Sharded}) {
        if (to_string(m) == name)
            return m;
    }
    throw std::invalid_argument("unknown ULMT serving mode '" + name +
                                "' (expected shared, percore or "
                                "sharded)");
}

namespace {

SeqParams
seqParams(std::uint32_t num_seq)
{
    SeqParams p;
    p.numSeq = num_seq;
    p.numPref = 6;
    p.lineBytes = 64;
    return p;
}

std::unique_ptr<CorrelationPrefetcher>
compose(std::unique_ptr<CorrelationPrefetcher> a,
        std::unique_ptr<CorrelationPrefetcher> b,
        bool short_circuit = false)
{
    std::vector<std::unique_ptr<CorrelationPrefetcher>> parts;
    parts.push_back(std::move(a));
    parts.push_back(std::move(b));
    return std::make_unique<CompositePrefetcher>(std::move(parts),
                                                 short_circuit);
}

} // namespace

std::unique_ptr<CorrelationPrefetcher>
makeAlgorithm(const UlmtSpec &spec, std::uint64_t table_base)
{
    const auto based = [table_base](CorrelationParams p) {
        if (table_base)
            p.tableBase = table_base;
        return p;
    };
    switch (spec.algo) {
      case UlmtAlgo::None:
        return nullptr;
      case UlmtAlgo::Base:
        return std::make_unique<BasePrefetcher>(
            based(baseDefaults(spec.numRows)));
      case UlmtAlgo::Chain:
        return std::make_unique<ChainPrefetcher>(
            based(chainReplDefaults(spec.numRows, spec.numLevels)));
      case UlmtAlgo::Repl:
        return std::make_unique<ReplicatedPrefetcher>(
            based(chainReplDefaults(spec.numRows, spec.numLevels)));
      case UlmtAlgo::Seq1:
        return std::make_unique<SeqPrefetcher>(seqParams(1));
      case UlmtAlgo::Seq4:
        return std::make_unique<SeqPrefetcher>(seqParams(4));
      case UlmtAlgo::Seq4Base:
        return compose(std::make_unique<SeqPrefetcher>(seqParams(4)),
                       std::make_unique<BasePrefetcher>(
                           based(baseDefaults(spec.numRows))));
      case UlmtAlgo::Seq4Repl:
        return compose(std::make_unique<SeqPrefetcher>(seqParams(4)),
                       std::make_unique<ReplicatedPrefetcher>(
                           based(chainReplDefaults(spec.numRows,
                                                   spec.numLevels))));
      case UlmtAlgo::Seq1Repl: {
        // The CG customization: the cheap sequential check runs first
        // and fully owns the misses it recognizes, pushing far enough
        // ahead that the processor-side prefetcher's requests find
        // their lines already in the L2.
        SeqParams sp = seqParams(1);
        sp.lookaheadLines = 2 * sp.numPref;
        return compose(std::make_unique<SeqPrefetcher>(sp),
                       std::make_unique<ReplicatedPrefetcher>(
                           based(chainReplDefaults(spec.numRows,
                                                   spec.numLevels))),
                       /*short_circuit=*/true);
      }
      case UlmtAlgo::ReplCA:
        // Conflict-elimination customization (Section 7): Replicated
        // with pushes into saturated L2 sets suppressed.
        return std::make_unique<ConflictAwarePrefetcher>(
            std::make_unique<ReplicatedPrefetcher>(
                based(chainReplDefaults(spec.numRows,
                                        spec.numLevels))),
            /*l2_sets=*/2048, /*l2_line_bytes=*/64);
      case UlmtAlgo::Profile:
        return std::make_unique<ProfilingUlmt>(4096, 2048, 64);
    }
    return nullptr;
}

} // namespace core
