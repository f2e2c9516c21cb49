/**
 * @file
 * The interface every ULMT prefetching algorithm implements.
 *
 * The ULMT executes the infinite loop of Figure 2: on an observed miss
 * it first runs the Prefetching step (critical: determines the
 * response time) and then the Learning step.  Algorithms additionally
 * expose a pure prediction query used by the Figure 5 predictability
 * study, table-size introspection for Table 2, and the page-remap
 * handler of Section 3.4.
 */

#ifndef CORE_CORRELATION_PREFETCHER_HH
#define CORE_CORRELATION_PREFETCHER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "check/check.hh"
#include "ckpt/state.hh"
#include "core/cost.hh"
#include "sim/types.hh"

namespace core {

/** Successor predictions, one set per level (index 0 = level 1). */
using LevelPredictions = std::vector<std::vector<sim::Addr>>;

/** A ULMT prefetching algorithm (Base, Chain, Replicated, Seq, ...). */
class CorrelationPrefetcher
{
  public:
    virtual ~CorrelationPrefetcher() = default;

    /** Human-readable algorithm name ("Base", "Repl", ...). */
    virtual std::string name() const = 0;

    /**
     * The Prefetching step: react to an observed miss by generating
     * the line addresses to prefetch, in priority order.
     *
     * @param miss_line observed L2-line-aligned miss address
     * @param out prefetch addresses are appended here
     * @param cost sink for the step's execution cost
     */
    virtual void prefetchStep(sim::Addr miss_line,
                              std::vector<sim::Addr> &out,
                              CostTracker &cost) = 0;

    /**
     * The Learning step: record the observed miss in the table.
     */
    virtual void learnStep(sim::Addr miss_line, CostTracker &cost) = 0;

    /**
     * Pure prediction query for the predictability study: the
     * successor sets this algorithm would predict at each level for
     * the given miss, based on current table state.  Must not learn.
     */
    virtual void predict(sim::Addr miss_line,
                         LevelPredictions &out) const = 0;

    /** Number of successor levels this algorithm predicts. */
    virtual std::uint32_t levels() const = 0;

    /** Size of the software correlation table in bytes (Table 2). */
    virtual std::size_t tableBytes() const { return 0; }

    /** Rows inserted so far (Table 2 sizing criterion). */
    virtual std::uint64_t insertions() const { return 0; }

    /** Insertions that displaced a live row (conflicts). */
    virtual std::uint64_t replacements() const { return 0; }

    /**
     * Operating-system notification that a physical page moved
     * (Section 3.4).  Default: take no action and let the table
     * re-learn.
     */
    virtual void
    onPageRemap(sim::Addr /*old_page*/, sim::Addr /*new_page*/,
                std::uint32_t /*page_bytes*/, CostTracker & /*cost*/)
    {
    }

    /**
     * Checkpoint walk of the complete table state (and any learning
     * context).  Algorithms that do not implement it refuse, so a
     * checkpoint is never silently missing table contents.
     */
    virtual void
    walk(ckpt::Stream & /*s*/)
    {
        throw ckpt::CkptError("algorithm '" + name() +
                              "' does not support checkpointing");
    }

    /**
     * Read-only structural self-check for the invariant checker:
     * report any table-state violations (MRU bounds, duplicate tags,
     * dangling pointers) to @p ctx.  Wrappers forward to their inner
     * algorithms; stateless algorithms keep the no-op default.
     */
    virtual void checkInvariants(check::CheckContext & /*ctx*/) const {}
};

} // namespace core

#endif // CORE_CORRELATION_PREFETCHER_HH
