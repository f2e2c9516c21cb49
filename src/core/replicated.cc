#include "core/replicated.hh"

namespace core {

ReplicatedPrefetcher::ReplicatedPrefetcher(const CorrelationParams &p)
    : params_(p),
      table_(p, 4 + p.numLevels * p.numSucc * 4, p.numLevels,
             /*first_fill_way=*/0),
      ptrs_(p.numLevels)
{
}

void
ReplicatedPrefetcher::prefetchStep(sim::Addr miss_line,
                                   std::vector<sim::Addr> &out,
                                   CostTracker &cost)
{
    // A single row access yields every level (Table 1: one row access,
    // low response time).
    const RowIndex row = table_.find(miss_line, cost);
    if (row == noRow)
        return;
    for (std::uint32_t lvl = 0; lvl < params_.numLevels; ++lvl) {
        for (sim::Addr s : table_.successors(row, lvl)) {
            cost.instr(cost::emitPrefetch);
            out.push_back(s);
        }
    }
}

void
ReplicatedPrefetcher::learnStep(sim::Addr miss_line, CostTracker &cost)
{
    // Insert the new miss as the MRU successor at the correct level of
    // each trailing row (Fig. 4-c (i)/(ii)).
    for (std::uint32_t lvl = 0; lvl < params_.numLevels; ++lvl) {
        const RowPtr &ptr = ptrs_[lvl];
        // The pointed-to row may have been reallocated since; the tag
        // check catches that (stale pointers are simply skipped).
        if (!ptr.valid || !table_.valid(ptr.index) ||
            table_.tag(ptr.index) != ptr.expectedTag)
            continue;
        table_.insertSuccessor(ptr.index, lvl, miss_line, cost);
        // The pointers let the update go straight to the row: one
        // write, no associative search (Section 3.3.2).
        cost.memWrite(table_.rowAddr(ptr.index), 8);
    }

    // Ensure a row exists for the new miss and shift the pointers.
    const RowIndex idx = table_.findOrAlloc(miss_line, cost);
    for (std::size_t lvl = ptrs_.size(); lvl-- > 1;)
        ptrs_[lvl] = ptrs_[lvl - 1];
    ptrs_[0] = RowPtr{idx, miss_line, true};
}

void
ReplicatedPrefetcher::predict(sim::Addr miss_line,
                              LevelPredictions &out) const
{
    out.assign(params_.numLevels, {});
    const RowIndex row = table_.findNoCost(miss_line);
    if (row == noRow)
        return;
    for (std::uint32_t lvl = 0; lvl < params_.numLevels; ++lvl) {
        const auto succ = table_.successors(row, lvl);
        out[lvl].assign(succ.begin(), succ.end());
    }
}

void
ReplicatedPrefetcher::walk(ckpt::Stream &s)
{
    const char *shape = "replicated-table geometry in checkpoint does "
                        "not match this configuration";
    s.expect(params_.numRows, shape);
    s.expect(params_.numSucc, shape);
    s.expect(params_.assoc, shape);
    s.expect(params_.numLevels, shape);
    table_.walkRows(s, "replicated-table");

    // The trailing pointers are the learning context: they decide
    // which rows the next miss is inserted into.
    s.expect(ptrs_.size(),
             "replicated-table pointer count does not match NumLevels");
    for (RowPtr &p : ptrs_) {
        s.u32(p.index);
        s.u64(p.expectedTag);
        s.b(p.valid);
        if (p.valid && p.index >= params_.numRows) {
            throw ckpt::CkptError(
                "replicated-table trailing pointer out of range");
        }
    }
}

void
ReplicatedPrefetcher::checkInvariants(check::CheckContext &ctx) const
{
    const std::string who = "table.Repl";
    table_.checkInvariants(ctx, who);
    for (std::size_t i = 0; i < ptrs_.size(); ++i) {
        const RowPtr &ptr = ptrs_[i];
        if (!ptr.valid)
            continue;
        ctx.require(ptr.index < params_.numRows, who,
                    "trailing pointer " + std::to_string(i) +
                        " indexes row " + std::to_string(ptr.index) +
                        " of " + std::to_string(params_.numRows));
    }
}

} // namespace core
