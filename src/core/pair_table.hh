/**
 * @file
 * Correlation-table storage (Section 2.2): the row array shared by
 * the conventional pair-based table of Base and Chain and the
 * multi-level table of Replicated.
 *
 * Each row stores the tag of a miss address and NumLevels lists of up
 * to NumSucc successor miss addresses, each kept in MRU order.  The
 * table is set-associative with a trivial hash (low bits of the line
 * address), exactly as the paper sizes it for Table 2.  Tags, valid
 * bits and LRU stamps live in a sim::SetAssoc; the successor lists
 * live in one flat arena of numRows x NumLevels x NumSucc addresses
 * plus a count per list, so a 256K-row table is five flat arrays, not
 * one heap vector per list.
 *
 * The table is a software structure in simulated main memory: every
 * probe and update reports its cost (instructions + table-memory
 * touches) through a CostTracker so the ULMT engine can model the
 * memory processor's response and occupancy times.
 */

#ifndef CORE_PAIR_TABLE_HH
#define CORE_PAIR_TABLE_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "check/check.hh"
#include "ckpt/state.hh"
#include "core/cost.hh"
#include "core/params.hh"
#include "sim/mapped_alloc.hh"
#include "sim/set_assoc.hh"
#include "sim/types.hh"

namespace core {

/** Index of a row in its table (set * assoc + way). */
using RowIndex = std::uint32_t;

/** "No row" result of the lookups. */
inline constexpr RowIndex noRow = ~RowIndex(0);

/** What rewriting a relocated row costs in onPageRemap-style sweeps. */
enum class RowRewrite : std::uint8_t {
    /** The tag plus the successors it holds (4 + 4n bytes). */
    TagAndSuccessors,
    /** The whole row (rowBytes()). */
    WholeRow,
};

/** Set-associative table of rows with per-level MRU successor lists. */
class CorrelationTable
{
  public:
    using Rows = sim::SetAssoc<>;

    /**
     * @param p geometry (numRows, numSucc, assoc) and base address
     * @param row_bytes simulated size of one row
     * @param levels successor lists per row
     * @param first_fill_way way at which the scan for an invalid
     *        victim starts (see PairTable::firstFillWay)
     */
    CorrelationTable(const CorrelationParams &p, std::uint32_t row_bytes,
                     std::uint32_t levels, std::uint32_t first_fill_way);

    /** Associative lookup with cost accounting; promotes a hit. */
    RowIndex find(sim::Addr miss_line, CostTracker &cost);
    RowIndex findNoCost(sim::Addr miss_line) const;

    /**
     * Lookup; on miss, allocate (LRU within the set), recording
     * whether a live row was displaced.
     */
    RowIndex findOrAlloc(sim::Addr miss_line, CostTracker &cost);

    /**
     * Insert @p succ_line at the MRU position of @p row's list
     * @p level: an address already present rotates to the front, a new
     * one pushes the LRU entry out of a full list.  Charges the
     * instructions; the caller charges the row write.
     */
    void insertSuccessor(RowIndex row, std::uint32_t level,
                         sim::Addr succ_line, CostTracker &cost);

    /** Successors of @p row at @p level, MRU first. */
    std::span<const sim::Addr>
    successors(RowIndex row, std::uint32_t level = 0) const
    {
        const std::size_t list = listIndex(row, level);
        return {succ_.data() + list * params_.numSucc, count_[list]};
    }

    sim::Addr tag(RowIndex row) const { return rows_.tag(row); }
    bool valid(RowIndex row) const { return rows_.valid(row); }

    /** Simulated address of a row (for the cost model's cache). */
    sim::Addr
    rowAddr(RowIndex row) const
    {
        return params_.tableBase + sim::Addr(row) * rowStride_;
    }

    /** Bytes one row occupies in simulated memory. */
    std::uint32_t rowBytes() const { return rowBytes_; }

    /** Remove a row so its tag can move (page remapping). */
    void invalidate(sim::Addr miss_line);

    /**
     * Relocate the rows of a remapped page (Section 3.4): for each
     * line of the old page whose row exists, move the row to the new
     * tag and rewrite any successors within the row that point into
     * the old page.  @p rewrite picks what the row write costs.
     */
    void remapPage(sim::Addr old_page, sim::Addr new_page,
                   std::uint32_t page_bytes, RowRewrite rewrite,
                   CostTracker &cost);

    std::size_t
    tableBytes() const
    {
        return static_cast<std::size_t>(params_.numRows) * rowBytes_;
    }
    std::uint64_t insertions() const { return insertions_; }
    std::uint64_t replacements() const { return replacements_; }
    const CorrelationParams &params() const { return params_; }

    /**
     * Checkpoint walk of the LRU stamp counter, the insertion and
     * replacement counters and the valid rows (sparse: index, tag,
     * stamp, then each level's count and addresses).  The owner walks
     * its geometry guard first; @p what prefixes restore errors.
     */
    void walkRows(ckpt::Stream &s, const std::string &what);

    /** Visit every valid row: fn(const Rows::Entry &). */
    template <typename Fn>
    void
    forEachRow(Fn &&fn) const
    {
        rows_.forEach(fn);
    }

    /**
     * Invariants: the shared set-associative structure (tags in their
     * set, no duplicates, stamps within the counter), plus successor
     * lists that never exceed NumSucc and never repeat an address.
     * @p who names the owning algorithm in violation messages.
     */
    void checkInvariants(check::CheckContext &ctx,
                         const std::string &who) const;

  private:
    friend struct check::CheckTestPeer;

    std::uint32_t
    setIndex(sim::Addr miss_line) const
    {
        // Trivial hash: low bits of the line address (Section 4).
        return static_cast<std::uint32_t>((miss_line / 64) % rows_.sets());
    }

    std::size_t
    listIndex(RowIndex row, std::uint32_t level) const
    {
        return std::size_t(row) * levels_ + level;
    }

    CorrelationParams params_;
    std::uint32_t rowBytes_;
    std::uint32_t rowStride_;  //!< line-aligned pitch of rows in memory
    std::uint32_t levels_;
    std::uint32_t firstFillWay_;
    Rows rows_;
    /** numRows x levels x numSucc successor addresses. */
    sim::MappedVector<sim::Addr> succ_;
    /** Live length of each of the numRows x levels lists. */
    sim::MappedVector<std::uint32_t> count_;
    std::uint64_t insertions_ = 0;
    std::uint64_t replacements_ = 0;
};

/** The conventional pair table of Base and Chain: one level. */
class PairTable : public CorrelationTable
{
  public:
    /**
     * Base and Chain fill an empty set from way 1: ways 1, 2, ...,
     * A-1, then 0.  The way decides rowAddr(), hence the
     * memory-processor L1/DRAM traffic charged for every table touch,
     * and the row indices checkpoints store; every committed result
     * depends on it, so it is fixed here rather than unified with the
     * way-0-first structures.
     */
    static constexpr std::uint32_t firstFillWay = 1;

    /**
     * @param row_bytes simulated size of one row (20 B for Base's
     *        4-successor rows, 12 B for Chain's 2-successor rows, in
     *        the paper's 32-bit accounting)
     */
    PairTable(const CorrelationParams &p, std::uint32_t row_bytes)
        : CorrelationTable(p, row_bytes, 1, firstFillWay)
    {
    }

    /** Insert @p succ_line at the MRU position of @p row and write the
     *  row back. */
    void
    insertSuccessor(RowIndex row, sim::Addr succ_line, CostTracker &cost)
    {
        CorrelationTable::insertSuccessor(row, 0, succ_line, cost);
        cost.memWrite(rowAddr(row), rowBytes());
    }

    /** Checkpoint walk: a geometry guard, then the rows. */
    void walk(ckpt::Stream &s);
};

} // namespace core

#endif // CORE_PAIR_TABLE_HH
