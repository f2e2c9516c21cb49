/**
 * @file
 * The Base and Chain correlation prefetching algorithms (Fig. 4 a, b).
 *
 * Base is the conventional algorithm of Joseph & Grunwald: on a miss
 * it prefetches the NumSucc immediate successors recorded for that
 * address (one level only).  Chain uses the same table and learning
 * but, in the Prefetching step, follows the MRU successor chain
 * NumLevels deep, issuing the successors found along the way.  Chain
 * prefetches further ahead than Base but is less accurate (it only
 * sees successors along the MRU path, not the true MRU set of each
 * level) and has a higher response time (NumLevels associative
 * searches per observed miss).
 */

#ifndef CORE_BASE_CHAIN_HH
#define CORE_BASE_CHAIN_HH

#include <memory>

#include "core/correlation_prefetcher.hh"
#include "core/pair_table.hh"

namespace core {

/** Learning shared by Base and Chain (Fig. 4-(i)/(ii)). */
class PairLearner
{
  public:
    explicit PairLearner(PairTable &table) : table_(table) {}

    /** Record @p miss_line as the MRU successor of the last miss. */
    void
    learn(sim::Addr miss_line, CostTracker &cost)
    {
        if (lastValid_) {
            table_.insertSuccessor(table_.findOrAlloc(lastMiss_, cost),
                                   miss_line, cost);
        }
        table_.findOrAlloc(miss_line, cost);
        lastMiss_ = miss_line;
        lastValid_ = true;
    }

    /** The last-miss context is part of the learning state: without it
     *  a restored run would miss one pair link. */
    void
    walk(ckpt::Stream &s)
    {
        s.u64(lastMiss_);
        s.b(lastValid_);
    }

    /** Last-miss context (reference-model resync). */
    sim::Addr lastMiss() const { return lastMiss_; }
    bool lastValid() const { return lastValid_; }

  private:
    PairTable &table_;
    sim::Addr lastMiss_ = sim::invalidAddr;
    bool lastValid_ = false;
};

/** The Base algorithm. */
class BasePrefetcher : public CorrelationPrefetcher
{
  public:
    /** Paper accounting: a Base row is 20 bytes (tag + 4 successors). */
    explicit BasePrefetcher(const CorrelationParams &p)
        : table_(p, 4 + p.numSucc * 4), learner_(table_)
    {
    }

    std::string name() const override { return "Base"; }
    std::uint32_t levels() const override { return 1; }

    void
    prefetchStep(sim::Addr miss_line, std::vector<sim::Addr> &out,
                 CostTracker &cost) override
    {
        if (const RowIndex row = table_.find(miss_line, cost);
            row != noRow) {
            for (sim::Addr s : table_.successors(row)) {
                cost.instr(cost::emitPrefetch);
                out.push_back(s);
            }
        }
    }

    void
    learnStep(sim::Addr miss_line, CostTracker &cost) override
    {
        learner_.learn(miss_line, cost);
    }

    void
    predict(sim::Addr miss_line, LevelPredictions &out) const override
    {
        out.assign(1, {});
        if (const RowIndex row = table_.findNoCost(miss_line);
            row != noRow) {
            const auto succ = table_.successors(row);
            out[0].assign(succ.begin(), succ.end());
        }
    }

    std::size_t tableBytes() const override { return table_.tableBytes(); }
    std::uint64_t insertions() const override
    {
        return table_.insertions();
    }
    std::uint64_t replacements() const override
    {
        return table_.replacements();
    }

    void
    onPageRemap(sim::Addr old_page, sim::Addr new_page,
                std::uint32_t page_bytes, CostTracker &cost) override
    {
        table_.remapPage(old_page, new_page, page_bytes,
                         RowRewrite::TagAndSuccessors, cost);
    }

    void
    walk(ckpt::Stream &s) override
    {
        table_.walk(s);
        learner_.walk(s);
    }

    void
    checkInvariants(check::CheckContext &ctx) const override
    {
        table_.checkInvariants(ctx, "table.Base");
    }

    PairTable &table() { return table_; }
    const PairTable &table() const { return table_; }
    const PairLearner &learner() const { return learner_; }

  private:
    PairTable table_;
    PairLearner learner_;
};

/** The Chain algorithm. */
class ChainPrefetcher : public CorrelationPrefetcher
{
  public:
    /** Paper accounting: a Chain row is 12 bytes (tag + 2 successors). */
    explicit ChainPrefetcher(const CorrelationParams &p)
        : table_(p, 4 + p.numSucc * 4), learner_(table_),
          numLevels_(p.numLevels)
    {
    }

    std::string name() const override { return "Chain"; }
    std::uint32_t levels() const override { return numLevels_; }

    void
    prefetchStep(sim::Addr miss_line, std::vector<sim::Addr> &out,
                 CostTracker &cost) override
    {
        sim::Addr cur = miss_line;
        for (std::uint32_t lvl = 0; lvl < numLevels_; ++lvl) {
            const RowIndex row = table_.find(cur, cost);
            if (row == noRow)
                break;
            const auto succ = table_.successors(row);
            if (succ.empty())
                break;
            for (sim::Addr s : succ) {
                cost.instr(cost::emitPrefetch);
                out.push_back(s);
            }
            cur = succ.front();  // follow the MRU link
        }
    }

    void
    learnStep(sim::Addr miss_line, CostTracker &cost) override
    {
        learner_.learn(miss_line, cost);
    }

    void
    predict(sim::Addr miss_line, LevelPredictions &out) const override
    {
        out.assign(numLevels_, {});
        sim::Addr cur = miss_line;
        for (std::uint32_t lvl = 0; lvl < numLevels_; ++lvl) {
            const RowIndex row = table_.findNoCost(cur);
            if (row == noRow)
                break;
            const auto succ = table_.successors(row);
            if (succ.empty())
                break;
            out[lvl].assign(succ.begin(), succ.end());
            cur = succ.front();
        }
    }

    std::size_t tableBytes() const override { return table_.tableBytes(); }
    std::uint64_t insertions() const override
    {
        return table_.insertions();
    }
    std::uint64_t replacements() const override
    {
        return table_.replacements();
    }

    void
    onPageRemap(sim::Addr old_page, sim::Addr new_page,
                std::uint32_t page_bytes, CostTracker &cost) override
    {
        table_.remapPage(old_page, new_page, page_bytes,
                         RowRewrite::TagAndSuccessors, cost);
    }

    void
    walk(ckpt::Stream &s) override
    {
        table_.walk(s);
        learner_.walk(s);
    }

    void
    checkInvariants(check::CheckContext &ctx) const override
    {
        table_.checkInvariants(ctx, "table.Chain");
    }

    PairTable &table() { return table_; }
    const PairTable &table() const { return table_; }
    const PairLearner &learner() const { return learner_; }

  private:
    PairTable table_;
    PairLearner learner_;
    std::uint32_t numLevels_;
};

} // namespace core

#endif // CORE_BASE_CHAIN_HH
