/**
 * @file
 * Test-only copy of sim::PriorityTimeline as it was before the lazy
 * head index and the bounded binary search for out-of-order readies.
 * The class body is kept verbatim (only the name changes) so the
 * differential test in test_sim.cc can check that the optimized
 * timeline grants, accounts and snapshots exactly as this one does.
 * Do not "improve" it: its value is that it is the old code.
 */

#ifndef TESTS_REF_PRIORITY_TIMELINE_HH
#define TESTS_REF_PRIORITY_TIMELINE_HH

#include <cstddef>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace ref {

using sim::Cycle;

/**
 * The reference two-class timeline: a sorted vector of bookings, a
 * cursor for monotone readies, a full scan for out-of-order ones and
 * a front erase on every prune.
 */
class RefPriorityTimeline
{
  public:
    /** One booked busy interval on the resource. */
    struct Interval
    {
        Cycle start;
        Cycle end;
        bool high;
    };

    /** Reserve the resource; returns the grant (start) cycle. */
    Cycle
    acquire(Cycle ready, Cycle duration, bool high_priority)
    {
        SIM_ASSERT(duration > 0, "zero-length resource reservation");
        busyTotal_ += duration;
        prune(ready);

        // Start the gap search from the cached cursor instead of the
        // front of the list.  Invariant: every booking before cursor_
        // ends at or before cursorReady_, so for a request with
        // ready >= cursorReady_ the search would skip all of them
        // (their end <= ready <= t).  Ready times arrive almost
        // monotonically in event order; the rare out-of-order request
        // falls back to a full scan.
        std::size_t pos = 0;
        if (ready >= cursorReady_) {
            pos = cursor_;
            while (pos < bookings_.size() && bookings_[pos].end <= ready)
                ++pos;
            cursor_ = pos;
            cursorReady_ = ready;
        }

        Cycle t = ready;
        for (; pos < bookings_.size(); ++pos) {
            const Interval &b = bookings_[pos];
            if (b.end <= t)
                continue;
            // A high-priority request displaces low-priority bookings
            // that have not started by its ready time (the controller
            // reorders its queues); it cannot preempt one in progress
            // and never displaces another high-priority booking.  A
            // low-priority request respects every booking.
            if (high_priority && !b.high && b.start > ready)
                continue;
            if (b.start >= t + duration)
                break;  // fits in the gap before this booking
            t = b.end;
        }
        // Insert keeping the list sorted by start (overcommit from
        // displaced low bookings can make it non-disjoint, which the
        // gap search tolerates).
        std::size_t at = bookings_.size();
        while (at > 0 && bookings_[at - 1].start > t)
            --at;
        bookings_.insert(bookings_.begin() +
                             static_cast<std::ptrdiff_t>(at),
                         Interval{t, t + duration, high_priority});
        // The new booking ends after its ready time, so it may violate
        // the cursor invariant if it landed inside the skipped prefix.
        if (at < cursor_)
            cursor_ = at;
        return t;
    }

    Cycle busyTotal() const { return busyTotal_; }

    void
    reset()
    {
        bookings_.clear();
        pruneBefore_ = 0;
        busyTotal_ = 0;
        cursor_ = 0;
        cursorReady_ = 0;
    }

    /** Complete serializable state (checkpointing). */
    struct State
    {
        std::vector<Interval> bookings;
        Cycle pruneBefore = 0;
        Cycle busyTotal = 0;
    };

    State
    snapshot() const
    {
        return State{bookings_, pruneBefore_, busyTotal_};
    }

    void
    restore(const State &s)
    {
        bookings_ = s.bookings;
        pruneBefore_ = s.pruneBefore;
        busyTotal_ = s.busyTotal;
        // The cursor is a pure search accelerator; restarting it from
        // the front changes placement decisions not at all.
        cursor_ = 0;
        cursorReady_ = 0;
    }

  private:
    /**
     * Drop bookings that can no longer affect placement: event-order
     * skew is bounded by how far components pre-book (well under the
     * margin).
     */
    void
    prune(Cycle ready)
    {
        constexpr Cycle margin = 16384;
        if (ready <= margin || ready - margin <= pruneBefore_)
            return;
        pruneBefore_ = ready - margin;
        std::size_t keep = 0;
        while (keep < bookings_.size() &&
               bookings_[keep].end <= pruneBefore_)
            ++keep;
        if (keep > 0) {
            bookings_.erase(bookings_.begin(),
                            bookings_.begin() +
                                static_cast<std::ptrdiff_t>(keep));
            cursor_ = cursor_ > keep ? cursor_ - keep : 0;
        }
    }

    std::vector<Interval> bookings_;
    Cycle pruneBefore_ = 0;
    Cycle busyTotal_ = 0;
    /** Gap-search resume point: bookings_[0..cursor_) all end at or
     *  before cursorReady_. */
    std::size_t cursor_ = 0;
    Cycle cursorReady_ = 0;
};

} // namespace ref

#endif // TESTS_REF_PRIORITY_TIMELINE_HH
