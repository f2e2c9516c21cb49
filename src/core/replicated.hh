/**
 * @file
 * The Replicated correlation prefetching algorithm (Fig. 4-c) -- the
 * paper's new table organization designed for a ULMT.
 *
 * Each row stores the miss tag plus NumLevels successor lists of
 * NumSucc entries each: the true MRU successors at level 1 (immediate
 * successors), level 2 (successors of successors), and so on.  The
 * algorithm keeps NumLevels trailing row pointers (to the rows of the
 * last, second-last, ... misses); learning inserts the new miss into
 * the right level of each pointed-to row without any associative
 * search, and prefetching reads a single row and issues everything in
 * it.  This yields far-ahead prefetching with true-MRU accuracy at
 * every level and a low response time, at the cost of replicated
 * storage -- cheap, because the table lives in main memory.
 */

#ifndef CORE_REPLICATED_HH
#define CORE_REPLICATED_HH

#include <cstdint>
#include <vector>

#include "core/correlation_prefetcher.hh"
#include "core/pair_table.hh"
#include "core/params.hh"

namespace core {

/** The Replicated algorithm. */
class ReplicatedPrefetcher : public CorrelationPrefetcher
{
  public:
    explicit ReplicatedPrefetcher(const CorrelationParams &p);

    std::string name() const override { return "Repl"; }
    std::uint32_t levels() const override { return params_.numLevels; }

    void prefetchStep(sim::Addr miss_line, std::vector<sim::Addr> &out,
                      CostTracker &cost) override;
    void learnStep(sim::Addr miss_line, CostTracker &cost) override;
    void predict(sim::Addr miss_line,
                 LevelPredictions &out) const override;

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
                         RowRewrite::WholeRow, cost);
    }

    /** Simulated row size in bytes (28 B for NumLevels=3, NumSucc=2). */
    std::uint32_t rowBytes() const { return table_.rowBytes(); }

    /** Checkpoint walk: valid rows (sparse), the trailing row
     *  pointers and the LRU/sizing counters. */
    void walk(ckpt::Stream &s) override;

    /**
     * Invariants: the table's (CorrelationTable::checkInvariants), and
     * each trailing pointer indexes a real row (staleness is legal --
     * the tag check skips it -- but an out-of-range index never is).
     */
    void checkInvariants(check::CheckContext &ctx) const override;

  private:
    friend struct check::CheckTestPeer;

    /** A trailing pointer: row index + the tag it should still hold. */
    struct RowPtr
    {
        std::uint32_t index = 0;
        sim::Addr expectedTag = sim::invalidAddr;
        bool valid = false;
    };

    CorrelationParams params_;
    /** Rows fill ways 0..A-1 (unlike PairTable's way-1-first order). */
    CorrelationTable table_;
    /** ptrs_[0] = row of the last miss, ptrs_[1] = second last, ... */
    std::vector<RowPtr> ptrs_;
};

} // namespace core

#endif // CORE_REPLICATED_HH
