#include "core/pair_table.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace core {

namespace {

/** Cache-friendly row pitch: rows never straddle a 32 B line. */
std::uint32_t
strideFor(std::uint32_t row_bytes)
{
    std::uint32_t stride = 16;
    while (stride < row_bytes)
        stride *= 2;
    return stride;
}

std::uint32_t
setsFor(const CorrelationParams &p)
{
    SIM_ASSERT(p.assoc > 0 && p.numRows % p.assoc == 0,
               "numRows must be a multiple of assoc");
    return p.numRows / p.assoc;
}

} // namespace

CorrelationTable::CorrelationTable(const CorrelationParams &p,
                                   std::uint32_t row_bytes,
                                   std::uint32_t levels,
                                   std::uint32_t first_fill_way)
    : params_(p), rowBytes_(row_bytes), rowStride_(strideFor(row_bytes)),
      levels_(levels), firstFillWay_(first_fill_way),
      rows_(setsFor(p), p.assoc),
      succ_(std::size_t(p.numRows) * levels * p.numSucc),
      count_(std::size_t(p.numRows) * levels)
{
}

RowIndex
CorrelationTable::find(sim::Addr miss_line, CostTracker &cost)
{
    cost.instr(cost::hashRow);
    const std::size_t base = rows_.index(setIndex(miss_line), 0);
    // Rows are line-aligned, so probing a way pulls its tag and body
    // in one access; the search stops at the first match.
    for (std::size_t i = base; i < base + params_.assoc; ++i) {
        cost.instr(cost::tagProbe);
        cost.memRead(rowAddr(RowIndex(i)), rowBytes_);
        if (rows_.valid(i) && rows_.tag(i) == miss_line) {
            rows_.touch(i);
            return RowIndex(i);
        }
    }
    return noRow;
}

RowIndex
CorrelationTable::findNoCost(sim::Addr miss_line) const
{
    const std::size_t i = rows_.find(setIndex(miss_line), miss_line);
    return i == Rows::npos ? noRow : RowIndex(i);
}

RowIndex
CorrelationTable::findOrAlloc(sim::Addr miss_line, CostTracker &cost)
{
    if (const RowIndex row = find(miss_line, cost); row != noRow)
        return row;

    const RowIndex row =
        RowIndex(rows_.victim(setIndex(miss_line), firstFillWay_));
    ++insertions_;
    if (rows_.valid(row))
        ++replacements_;

    cost.instr(cost::rowAlloc);
    cost.memWrite(rowAddr(row), rowBytes_);
    rows_.install(row, miss_line);
    std::fill_n(count_.begin() + std::ptrdiff_t(listIndex(row, 0)),
                levels_, 0u);
    return row;
}

void
CorrelationTable::insertSuccessor(RowIndex row, std::uint32_t level,
                                  sim::Addr succ_line, CostTracker &cost)
{
    cost.instr(cost::succInsert);
    const std::size_t list = listIndex(row, level);
    sim::Addr *s = succ_.data() + list * params_.numSucc;
    std::uint32_t &n = count_[list];
    const auto pos = static_cast<std::uint32_t>(
        std::find(s, s + n, succ_line) - s);
    if (pos < n) {
        // Already present: rotate to the MRU position.
        cost.instr(cost::succShift * pos);
        std::rotate(s, s + pos, s + pos + 1);
    } else {
        // New: push the others back, dropping the LRU one when full.
        const std::uint32_t kept = std::min(n, params_.numSucc - 1);
        std::copy_backward(s, s + kept, s + kept + 1);
        s[0] = succ_line;
        n = kept + 1;
        cost.instr(cost::succShift * n);
    }
}

void
CorrelationTable::invalidate(sim::Addr miss_line)
{
    const std::size_t i = rows_.find(setIndex(miss_line), miss_line);
    if (i != Rows::npos)
        rows_.invalidate(i);
}

void
CorrelationTable::remapPage(sim::Addr old_page, sim::Addr new_page,
                            std::uint32_t page_bytes, RowRewrite rewrite,
                            CostTracker &cost)
{
    constexpr std::uint32_t line_bytes = 64;
    // The lines of one page map to consecutive sets, so the handler
    // is a linear sweep over a contiguous slice of the table, not N
    // independent hash probes.  Charge the sweep as a packed tag
    // compare (SIMD-style) and pay the full probe + rewrite cost only
    // for rows that actually hold the moved page -- otherwise a 2 MB
    // relocation costs ~32 K charged probes and at high churn the
    // ULMT does nothing but relocate.
    const std::uint32_t lines = page_bytes / line_bytes;
    cost.instr(lines < cost::remapSweepTagsPerCycle
                   ? 1u
                   : lines / cost::remapSweepTagsPerCycle);
    std::vector<sim::Addr> moved;
    std::vector<std::uint32_t> counts(levels_);
    for (std::uint32_t off = 0; off < page_bytes; off += line_bytes) {
        const sim::Addr old_line = old_page * page_bytes + off;
        if (findNoCost(old_line) == noRow)
            continue;
        const RowIndex row = find(old_line, cost);
        moved.clear();
        for (std::uint32_t lvl = 0; lvl < levels_; ++lvl) {
            const auto list = successors(row, lvl);
            counts[lvl] = static_cast<std::uint32_t>(list.size());
            moved.insert(moved.end(), list.begin(), list.end());
        }
        // The row's simulated bytes move: any memory-side table cache
        // must drop (and flush) its copy or serve stale rows.
        cost.memInvalidate(rowAddr(row), rowBytes_);
        rows_.invalidate(row);

        const RowIndex dest =
            findOrAlloc(new_page * page_bytes + off, cost);
        auto from = moved.begin();
        for (std::uint32_t lvl = 0; lvl < levels_; ++lvl) {
            const std::size_t list = listIndex(dest, lvl);
            sim::Addr *s = succ_.data() + list * params_.numSucc;
            for (std::uint32_t k = 0; k < counts[lvl]; ++k, ++from) {
                sim::Addr a = *from;
                if (a / page_bytes == old_page)
                    a = new_page * page_bytes + a % page_bytes;
                s[k] = a;
            }
            count_[list] = counts[lvl];
        }
        cost.memWrite(rowAddr(dest),
                      rewrite == RowRewrite::WholeRow
                          ? rowBytes_
                          : 4 + 4 * static_cast<std::uint32_t>(
                                        moved.size()));
    }
}

void
CorrelationTable::walkRows(ckpt::Stream &s, const std::string &what)
{
    rows_.walkClock(s);
    s.u64(insertions_, replacements_);
    if (s.restoring())
        std::fill(count_.begin(), count_.end(), 0u);
    rows_.walkSparse(s, what + " row index out of range",
                     [&](std::size_t i) {
        rows_.walkStamp(s, i);
        for (std::uint32_t lvl = 0; lvl < levels_; ++lvl) {
            const std::size_t list = listIndex(RowIndex(i), lvl);
            const std::uint64_t n = s.count(count_[list]);
            if (n > params_.numSucc)
                throw ckpt::CkptError(what + " successor list too long");
            for (std::uint64_t k = 0; k < n; ++k)
                s.u64(succ_[list * params_.numSucc + k]);
            if (s.restoring())
                count_[list] = static_cast<std::uint32_t>(n);
        }
    });
}

void
CorrelationTable::checkInvariants(check::CheckContext &ctx,
                                  const std::string &who) const
{
    rows_.checkStructure(ctx, who,
                         [&](sim::Addr tag) { return setIndex(tag); });
    forEachRow([&](const Rows::Entry &e) {
        for (std::uint32_t lvl = 0; lvl < levels_; ++lvl) {
            const std::uint32_t n = count_[listIndex(e.index, lvl)];
            if (n > params_.numSucc) {
                ctx.fail(who, "row " + check::hex(e.tag) + " level " +
                                  std::to_string(lvl + 1) + " holds " +
                                  std::to_string(n) + " successors, NumSucc " +
                                  std::to_string(params_.numSucc));
                continue;
            }
            const auto list = successors(RowIndex(e.index), lvl);
            for (std::size_t i = 0; i < list.size(); ++i) {
                for (std::size_t j = i + 1; j < list.size(); ++j) {
                    if (list[i] == list[j])
                        ctx.fail(who, "row " + check::hex(e.tag) +
                                          " level " +
                                          std::to_string(lvl + 1) +
                                          " repeats successor " +
                                          check::hex(list[i]));
                }
            }
        }
    });
}

void
PairTable::walk(ckpt::Stream &s)
{
    const char *shape = "pair-table geometry in checkpoint does not "
                        "match this configuration";
    s.expect(params().numRows, shape);
    s.expect(params().numSucc, shape);
    s.expect(params().assoc, shape);
    walkRows(s, "pair-table");
}

} // namespace core
