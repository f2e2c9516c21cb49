/**
 * @file
 * Composition of ULMT prefetching algorithms.
 *
 * Customization (Section 3.3.3) lets the programmer combine
 * algorithms: e.g. the CG customization runs a single-stream
 * sequential prefetcher before Replicated (Seq1+Repl, Table 5), and
 * the predictability study evaluates Seq4+Base and Seq4+Repl
 * (Figure 5).  The components execute in order in the Prefetching
 * step -- the cheap sequential check first, so sequential patterns get
 * the lowest response time -- and both learn every observed miss.
 */

#ifndef CORE_COMPOSITE_HH
#define CORE_COMPOSITE_HH

#include <memory>
#include <vector>

#include "core/correlation_prefetcher.hh"

namespace core {

/** Runs two or more prefetching algorithms back to back. */
class CompositePrefetcher : public CorrelationPrefetcher
{
  public:
    /**
     * @param parts components, executed in order
     * @param short_circuit stop after the first component that
     *        generates prefetches: a cheap front component (e.g. Seq1)
     *        then fully handles the misses it recognizes, keeping the
     *        thread's occupancy low on easy patterns (the CG
     *        customization of Section 5.2)
     */
    explicit CompositePrefetcher(
        std::vector<std::unique_ptr<CorrelationPrefetcher>> parts,
        bool short_circuit = false)
        : parts_(std::move(parts)), shortCircuit_(short_circuit)
    {
    }

    std::string
    name() const override
    {
        std::string n;
        for (const auto &p : parts_) {
            if (!n.empty())
                n += "+";
            n += p->name();
        }
        return n;
    }

    std::uint32_t
    levels() const override
    {
        std::uint32_t lv = 0;
        for (const auto &p : parts_)
            lv = std::max(lv, p->levels());
        return lv;
    }

    void
    prefetchStep(sim::Addr miss_line, std::vector<sim::Addr> &out,
                 CostTracker &cost) override
    {
        handledByFront_ = false;
        for (std::size_t i = 0; i < parts_.size(); ++i) {
            const std::size_t before = out.size();
            parts_[i]->prefetchStep(miss_line, out, cost);
            if (shortCircuit_ && i + 1 < parts_.size() &&
                out.size() > before) {
                handledByFront_ = true;
                break;
            }
        }
    }

    void
    learnStep(sim::Addr miss_line, CostTracker &cost) override
    {
        for (std::size_t i = 0; i < parts_.size(); ++i) {
            // In short-circuit mode the back components neither
            // prefetched nor learn misses the front one owns.
            if (handledByFront_ && i > 0)
                break;
            parts_[i]->learnStep(miss_line, cost);
        }
    }

    void
    predict(sim::Addr miss_line, LevelPredictions &out) const override
    {
        out.assign(levels(), {});
        LevelPredictions part;
        for (const auto &p : parts_) {
            p->predict(miss_line, part);
            for (std::size_t lvl = 0; lvl < part.size(); ++lvl) {
                out[lvl].insert(out[lvl].end(), part[lvl].begin(),
                                part[lvl].end());
            }
        }
    }

    std::size_t
    tableBytes() const override
    {
        std::size_t bytes = 0;
        for (const auto &p : parts_)
            bytes += p->tableBytes();
        return bytes;
    }

    std::uint64_t
    insertions() const override
    {
        std::uint64_t n = 0;
        for (const auto &p : parts_)
            n += p->insertions();
        return n;
    }

    std::uint64_t
    replacements() const override
    {
        std::uint64_t n = 0;
        for (const auto &p : parts_)
            n += p->replacements();
        return n;
    }

    void
    onPageRemap(sim::Addr old_page, sim::Addr new_page,
                std::uint32_t page_bytes, CostTracker &cost) override
    {
        for (auto &p : parts_)
            p->onPageRemap(old_page, new_page, page_bytes, cost);
    }

    /** Checkpoint walk: each component in order, then the
     *  short-circuit flag that couples a prefetch step to the
     *  following learn step. */
    void
    walk(ckpt::Stream &s) override
    {
        s.expect(parts_.size(),
                 "composite component count in checkpoint does not "
                 "match the configuration");
        for (auto &p : parts_)
            p->walk(s);
        s.b(handledByFront_);
    }

    void
    checkInvariants(check::CheckContext &ctx) const override
    {
        for (const auto &p : parts_)
            p->checkInvariants(ctx);
    }

  private:
    std::vector<std::unique_ptr<CorrelationPrefetcher>> parts_;
    bool shortCircuit_ = false;
    bool handledByFront_ = false;
};

} // namespace core

#endif // CORE_COMPOSITE_HH
