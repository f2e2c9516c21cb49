/**
 * @file
 * The Filter module of Figure 3: a fixed-size FIFO of recently issued
 * prefetch addresses.
 *
 * Correlation prefetching may generate the same address several times
 * in a short window; the filter drops a request whose address is still
 * in the list, and otherwise records it at the tail (Section 3.2).
 */

#ifndef MEM_PREFETCH_FILTER_HH
#define MEM_PREFETCH_FILTER_HH

#include <cstdint>
#include <deque>
#include <unordered_map>

#include "check/check.hh"
#include "ckpt/state.hh"
#include "sim/flat_map.hh"
#include "sim/types.hh"

namespace mem {

/** FIFO prefetch-address filter. */
class PrefetchFilter
{
  public:
    explicit PrefetchFilter(std::uint32_t entries) : capacity_(entries) {}

    /**
     * Check an address about to be issued as a prefetch.
     *
     * @return true if the request should proceed (address recorded),
     *         false if it should be dropped (recently issued).
     */
    bool
    admit(sim::Addr line_addr)
    {
        if (capacity_ == 0) {
            // Filter disabled: every request passes, but it still
            // counts as an admit so the admit/drop gauges (and the
            // hit-rate series derived from them) never divide 0 by 0.
            ++admits_;
            return true;
        }
        auto it = present_.find(line_addr);
        if (it != present_.end() && it->second > 0) {
            ++drops_;
            return false;
        }
        fifo_.push_back(line_addr);
        ++present_[line_addr];
        if (fifo_.size() > capacity_) {
            sim::Addr old = fifo_.front();
            fifo_.pop_front();
            auto old_it = present_.find(old);
            if (--old_it->second == 0)
                present_.erase(old_it);
        }
        ++admits_;
        return true;
    }

    std::uint64_t drops() const { return drops_; }
    std::uint64_t admits() const { return admits_; }
    std::uint32_t capacity() const { return capacity_; }
    std::size_t size() const { return fifo_.size(); }

    void
    reset()
    {
        fifo_.clear();
        present_.clear();
        drops_ = 0;
        admits_ = 0;
    }

    /** Checkpoint walk: the FIFO in order plus the counters;
     *  present_ is rebuilt as the FIFO's multiplicity count. */
    void
    walk(ckpt::Stream &s)
    {
        s.expect(capacity_, "prefetch filter capacity in checkpoint "
                            "does not match the configuration");
        if (s.restoring())
            reset();
        s.u64(drops_, admits_);
        s.u64s(fifo_, capacity_ > 0 ? capacity_ : s.noMax,
               "prefetch filter FIFO longer than its capacity");
        if (s.restoring()) {
            for (sim::Addr a : fifo_)
                ++present_[a];
        }
    }

    /**
     * Invariants: the FIFO never exceeds its capacity, and present_
     * is exactly the FIFO's per-address multiplicity count (no zero
     * or orphaned entries in either direction).
     */
    void
    checkInvariants(check::CheckContext &ctx) const
    {
        ctx.require(capacity_ == 0 || fifo_.size() <= capacity_,
                    "filter",
                    "FIFO holds " + std::to_string(fifo_.size()) +
                        " entries, capacity " +
                        std::to_string(capacity_));
        std::unordered_map<sim::Addr, std::uint32_t> recount;
        for (sim::Addr a : fifo_)
            ++recount[a];
        for (const auto &[addr, count] : present_) {
            ctx.require(count > 0, "filter",
                        "present_ holds a zero count for " +
                            check::hex(addr));
            auto it = recount.find(addr);
            ctx.require(it != recount.end() && it->second == count,
                        "filter",
                        "present_ count for " + check::hex(addr) +
                            " disagrees with the FIFO");
        }
        for (const auto &[addr, count] : recount) {
            (void)count;
            ctx.require(present_.count(addr) != 0, "filter",
                        "FIFO entry " + check::hex(addr) +
                            " missing from present_");
        }
    }

  private:
    friend struct check::CheckTestPeer;

    std::uint32_t capacity_;
    std::deque<sim::Addr> fifo_;
    sim::FlatMap<std::uint32_t> present_;
    std::uint64_t drops_ = 0;
    std::uint64_t admits_ = 0;
};

} // namespace mem

#endif // MEM_PREFETCH_FILTER_HH
