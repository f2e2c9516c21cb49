/**
 * @file
 * The global discrete-event queue that orders all state mutations.
 *
 * Components never mutate shared state "in the future": anything that
 * happens at a later cycle is scheduled as an event.  Events at the same
 * cycle execute in scheduling order (a monotone sequence number breaks
 * ties), which makes runs fully deterministic.
 */

#ifndef SIM_EVENT_QUEUE_HH
#define SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace sim {

/**
 * What a pending event does, as a tag the checkpoint stores: the kind
 * plus up to two integer arguments, fired at the component that owns
 * the kind (see DESIGN.md section 9).  The numbers are written into
 * every snapshot, so each is pinned; 0 names no event and is refused
 * as corrupt input.
 */
enum class EventKind : std::uint32_t {
    ProcStep = 1,      //!< MainProcessor::step resume (arg0=core)
    MemDemandDone = 2, //!< MemorySystem demand completion (arg0=line)
    MemPfArrival = 3,  //!< MemorySystem prefetch arrival
                       //!< (arg0=line, arg1=arrival cycle)
    UlmtProcess = 4,   //!< UlmtEngine::processNext kick (arg0=engine)
    MemCpuPfDone = 5,  //!< MemorySystem CPU-prefetch completion
                       //!< (arg0=line)
    VmRemap = 6,       //!< Vm periodic page-remap tick (no args)
};

/** A component that events fire at. */
class EventTarget
{
  public:
    virtual ~EventTarget() = default;

    /** Run the event tagged (@p kind, @p arg0, @p arg1). */
    virtual void fire(EventKind kind, std::uint64_t arg0,
                      std::uint64_t arg1) = 0;
};

/** A pending event in serializable form. */
struct SavedEvent
{
    Cycle when = 0;
    std::uint64_t seq = 0; //!< original tie-break sequence number
    std::uint32_t kind = 0;
    std::uint64_t arg0 = 0;
    std::uint64_t arg1 = 0;
};

/** A deterministic discrete-event scheduler. */
class EventQueue
{
  public:
    /** Bits of a heap key naming an event's slot; the rest hold its
     *  sequence number. */
    static constexpr unsigned slotBits = 24;
    /** Most events that can be pending at once. */
    static constexpr std::uint64_t maxPending = std::uint64_t{1}
                                                << slotBits;
    /** Sequence numbers stay below this (their 40-bit budget). */
    static constexpr std::uint64_t seqLimit = std::uint64_t{1}
                                              << (64 - slotBits);

    /** Current simulated time. */
    Cycle now() const { return now_; }

    /** Number of events executed so far. */
    std::uint64_t executed() const { return executed_; }

    /** Next tie-break sequence number (checkpointing). */
    std::uint64_t nextSeq() const { return nextSeq_; }

    /** Number of events currently pending. */
    std::size_t pending() const { return heap_.size(); }

    /**
     * Install a passive periodic observer.  The ticker fires between
     * events, the first time simulated time reaches now()+interval and
     * then at least @p interval cycles apart (stamped with the actual
     * cycle, which may overshoot when events are sparse).  Because it
     * runs outside the event stream it MUST NOT schedule events or
     * mutate simulated state -- it exists for observability (the
     * time-series sampler), and executed()/timing are bit-identical
     * with or without a ticker installed.  The disabled path costs a
     * single comparison per event.
     */
    void
    setTicker(Cycle interval, std::function<void(Cycle)> fn)
    {
        SIM_ASSERT(interval > 0, "ticker needs a nonzero interval");
        SIM_ASSERT(fn != nullptr, "null ticker");
        ticker_ = std::move(fn);
        tickInterval_ = interval;
        tickDue_ = now_ + interval;
    }

    /**
     * Install a passive inspector that fires between events every
     * @p every_events executed events.  Like the ticker it runs at a
     * consistent instant (no action half-applied) and MUST NOT mutate
     * simulated state; unlike the ticker it is keyed to the event
     * count, not the clock, so a fixed cadence costs the same work on
     * sparse and dense timelines.  The invariant checker hangs off
     * this hook; it may throw to abort a run that failed a check.
     * The disabled path costs a single comparison per event.
     */
    void
    setInspector(std::uint64_t every_events, std::function<void()> fn)
    {
        SIM_ASSERT(every_events > 0, "inspector needs a nonzero cadence");
        SIM_ASSERT(fn != nullptr, "null inspector");
        inspector_ = std::move(fn);
        inspectEvery_ = every_events;
        inspectDue_ = executed_ + every_events;
    }

    /** Remove the inspector (one compare per event when disabled). */
    void
    clearInspector()
    {
        inspector_ = nullptr;
        inspectDue_ = UINT64_MAX;
    }

    /**
     * Schedule the event (@p kind, @p arg0, @p arg1) to fire at
     * @p target at an absolute cycle.  Scheduling in the past is a
     * simulator bug.
     */
    void
    schedule(Cycle when, EventTarget &target, EventKind kind,
             std::uint64_t arg0 = 0, std::uint64_t arg1 = 0)
    {
        push(when, nextSeq_++, Slot{&target, kind, arg0, arg1});
    }

    /**
     * Run an event at @p when inline instead of scheduling it, when
     * that is exactly what run() would do next.  The caller is the
     * event now firing; it asks whether an event it would
     * schedule at @p when (necessarily with the highest seq so far)
     * would be the very next one popped with nothing in between.  That
     * holds when every pending event is strictly later (an equal-time
     * one owns a lower seq and goes first), no ticker, inspector or
     * break check would fire after the current event, and run()'s
     * event limit leaves room for one more.  On true the queue
     * advances exactly as a push followed by a pop would -- the event
     * consumes a seq, counts as executed and moves the clock to
     * @p when -- and the caller continues as that event.  On false
     * nothing changes and the caller schedules as usual.
     */
    bool
    continueAt(Cycle when)
    {
        SIM_ASSERT(when >= now_, "continued at %llu before now %llu",
                   (unsigned long long)when, (unsigned long long)now_);
        if ((!heap_.empty() && heap_.front().when <= when) ||
            now_ >= tickDue_ || executed_ >= inspectDue_ ||
            breakCheck_ || executed_ >= runLimit_)
            return false;
        ++nextSeq_;
        ++executed_;
        now_ = when;
        return true;
    }

    /** Snapshot the pending events' tags, sorted by execution order
     *  (when, seq). */
    std::vector<SavedEvent>
    saveEvents() const
    {
        std::vector<SavedEvent> out;
        out.reserve(heap_.size());
        for (const Key &k : heap_) {
            const Slot &s = slots_[k.slot()];
            out.push_back(SavedEvent{k.when, k.seq(),
                                     static_cast<std::uint32_t>(s.kind),
                                     s.arg0, s.arg1});
        }
        std::sort(out.begin(), out.end(),
                  [](const SavedEvent &a, const SavedEvent &b) {
                      return a.when != b.when ? a.when < b.when
                                              : a.seq < b.seq;
                  });
        return out;
    }

    /**
     * Rebuild the queue from a snapshot: clock, sequence counter,
     * executed count, and every pending event with its *original*
     * (when, seq) pair -- tie-breaking after restore is bit-identical
     * to the run the snapshot was taken from.  @p target names the
     * component each event fires at; every kind must be a valid
     * EventKind.
     */
    void
    restoreEvents(
        Cycle now, std::uint64_t next_seq, std::uint64_t executed,
        const std::vector<SavedEvent> &events,
        const std::function<EventTarget &(const SavedEvent &)> &target)
    {
        clear();
        now_ = now;
        nextSeq_ = next_seq;
        executed_ = executed;
        for (const SavedEvent &s : events) {
            SIM_ASSERT(s.when >= now_ && s.seq < next_seq,
                       "restored event outside snapshot bounds");
            push(s.when, s.seq,
                 Slot{&target(s), static_cast<EventKind>(s.kind), s.arg0,
                      s.arg1});
        }
        // A ticker installed before the restore was armed relative to
        // cycle 0; re-arm it relative to the restored clock.  (The
        // ticker is passive observability, excluded from fingerprints.)
        if (ticker_)
            tickDue_ = now_ + tickInterval_;
        if (inspector_)
            inspectDue_ = executed_ + inspectEvery_;
    }

    /**
     * Install a break predicate, checked after every executed event.
     * When it returns true, run() stops *between* events (a consistent
     * instant: no action half-applied) with breakHit() set.  Used by
     * the checkpoint trigger; the disabled path costs one compare per
     * event.
     */
    void
    setBreakCheck(std::function<bool(Cycle)> fn)
    {
        breakCheck_ = std::move(fn);
    }

    void clearBreakCheck() { breakCheck_ = nullptr; }

    /** True when the last run() returned because of the break check. */
    bool breakHit() const { return breakHit_; }

    /**
     * Execute events in order until the queue drains or the event limit
     * is hit.
     *
     * @param max_events Safety valve against runaway simulations.
     * @return true if the queue drained, false if the limit was hit.
     */
    bool
    run(std::uint64_t max_events = UINT64_MAX)
    {
        // continueAt() may run events only inside run(), up to its
        // limit; the guard closes that window on every exit.
        struct LimitGuard
        {
            std::uint64_t &limit;
            ~LimitGuard() { limit = 0; }
        } guard{runLimit_};
        runLimit_ = max_events;
        breakHit_ = false;
        while (!heap_.empty()) {
            if (executed_ >= max_events)
                return false;
            const Key top = heap_.front();
            SIM_ASSERT(top.when >= now_, "event queue went backwards");
            now_ = top.when;
            popTop();
            // The event leaves its slot before it fires: it may
            // schedule events, which can reuse the slot or grow (and
            // so move) the slab under it.
            const std::uint32_t slot = top.slot();
            const Slot ev = slots_[slot];
            freeSlots_.push_back(slot);
            ++executed_;
            ev.target->fire(ev.kind, ev.arg0, ev.arg1);
            if (now_ >= tickDue_) {
                ticker_(now_);
                tickDue_ = now_ + tickInterval_;
            }
            if (executed_ >= inspectDue_) {
                inspector_();
                inspectDue_ = executed_ + inspectEvery_;
            }
            if (breakCheck_ && breakCheck_(now_)) {
                breakHit_ = true;
                return false;
            }
        }
        return true;
    }

    /** Drop all pending events (used between experiment runs). */
    void
    clear()
    {
        heap_.clear();
        slots_.clear();
        freeSlots_.clear();
    }

  private:
    /**
     * A heap entry: (when, seq) orders the event and slot names the
     * slab entry that holds its tag.  seq and slot share one word
     * (seq in the high bits), so the heap moves 16 trivially copyable
     * bytes per level instead of a whole event.
     */
    struct Key
    {
        static constexpr unsigned slotBits = EventQueue::slotBits;

        Cycle when;
        std::uint64_t seqSlot;

        std::uint64_t seq() const { return seqSlot >> slotBits; }
        std::uint32_t
        slot() const
        {
            return static_cast<std::uint32_t>(seqSlot &
                                              ((1u << slotBits) - 1));
        }
    };

    /** A pending event's payload: its tag and the component it fires
     *  at. */
    struct Slot
    {
        EventTarget *target;
        EventKind kind;
        std::uint64_t arg0;
        std::uint64_t arg1;
    };
    static_assert(std::is_trivially_copyable_v<Slot> &&
                  sizeof(Slot) == 32);

    /** Strict total order: (when, seq) is unique per event, and seq
     *  owns the high bits of seqSlot, so heap extraction reproduces
     *  the exact order the old priority_queue produced. */
    static bool
    earlier(const Key &a, const Key &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seqSlot < b.seqSlot;
    }

    /** Every schedule and restore lands here. */
    void
    push(Cycle when, std::uint64_t seq, const Slot &ev)
    {
        SIM_ASSERT(when >= now_,
                   "scheduled at %llu before now %llu",
                   (unsigned long long)when, (unsigned long long)now_);
        std::uint32_t slot;
        if (freeSlots_.empty()) {
            slot = static_cast<std::uint32_t>(slots_.size());
            SIM_ASSERT(slot < (1u << Key::slotBits),
                       "more than 2^24 events pending");
            slots_.push_back(ev);
        } else {
            slot = freeSlots_.back();
            freeSlots_.pop_back();
            slots_[slot] = ev;
        }
        SIM_ASSERT(seq < (std::uint64_t{1} << (64 - Key::slotBits)),
                   "event sequence number overflows its 40 bits");
        heap_.push_back(Key{when, seq << Key::slotBits | slot});
        siftUp(heap_.size() - 1);
    }

    /** Remove the root of the min-heap. */
    void
    popTop()
    {
        const Key last = heap_.back();
        heap_.pop_back();
        if (!heap_.empty()) {
            heap_.front() = last;
            siftDown(0);
        }
    }

    // Hole-based sifts: one key copy per level instead of a swap.
    void
    siftUp(std::size_t i)
    {
        const Key k = heap_[i];
        while (i > 0) {
            const std::size_t parent = (i - 1) / 2;
            if (!earlier(k, heap_[parent]))
                break;
            heap_[i] = heap_[parent];
            i = parent;
        }
        heap_[i] = k;
    }

    void
    siftDown(std::size_t i)
    {
        const std::size_t n = heap_.size();
        const Key k = heap_[i];
        for (;;) {
            std::size_t child = 2 * i + 1;
            if (child >= n)
                break;
            if (child + 1 < n && earlier(heap_[child + 1], heap_[child]))
                ++child;
            if (!earlier(heap_[child], k))
                break;
            heap_[i] = heap_[child];
            i = child;
        }
        heap_[i] = k;
    }

    std::vector<Key> heap_;    //!< binary min-heap by (when, seq)
    std::vector<Slot> slots_;  //!< pending events, indexed by Key::slot
    std::vector<std::uint32_t> freeSlots_;  //!< reusable slots_ entries
    Cycle now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    /** The running run()'s max_events; 0 outside run() (continueAt). */
    std::uint64_t runLimit_ = 0;
    /** Passive observability ticker (neverCycle = disabled). */
    Cycle tickDue_ = neverCycle;
    Cycle tickInterval_ = 0;
    std::function<void(Cycle)> ticker_;
    /** Passive event-count inspector (UINT64_MAX = disabled). */
    std::uint64_t inspectDue_ = UINT64_MAX;
    std::uint64_t inspectEvery_ = 0;
    std::function<void()> inspector_;
    /** Between-event stop predicate (checkpoint trigger). */
    std::function<bool(Cycle)> breakCheck_;
    bool breakHit_ = false;
};

/**
 * A shared resource with two priority classes, modeling the paper's
 * rule that prefetch traffic (queue 3) has lower priority than demand
 * traffic (queue 1).
 *
 * Callers may reserve the resource for ready times in the near future
 * (a demand fetch books its DRAM slot after its queueing delays), so
 * grants cannot be first-come-first-served in call order.  Instead the
 * timeline keeps the set of booked intervals and places each
 * high-priority request in the earliest idle gap at or after its ready
 * time.  Low-priority requests queue strictly behind everything
 * already booked; a high-priority request waits only for bookings of
 * its own class plus at most one low-priority transfer that had
 * already started at its ready time (non-preemptive service).
 */
class PriorityTimeline
{
  public:
    PriorityTimeline() = default;

    /** A timeline that keeps its prune horizon behind @p clock's
     *  simulated time (see prune()). */
    explicit PriorityTimeline(const EventQueue *clock) : clock_(clock) {}

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
        SIM_ASSERT(ready >= pruneBefore_,
                   "ready %llu is behind the prune horizon %llu: "
                   "event-order skew exceeded the prune margin",
                   (unsigned long long)ready,
                   (unsigned long long)pruneBefore_);
        busyTotal_ += duration;
        prune(ready);

        // Skip the prefix of bookings that end at or before the ready
        // time; the gap search would only step past them.  Ready times
        // arrive almost monotonically in event order, so most requests
        // resume from the cached cursor.  Invariant: every booking in
        // [head_, cursor_) ends at or before cursorReady_.
        std::size_t pos;
        if (ready >= cursorReady_) {
            pos = std::max(cursor_, head_);
            while (pos < bookings_.size() && bookings_[pos].end <= ready)
                ++pos;
            cursor_ = pos;
            cursorReady_ = ready;
        } else {
            // An out-of-order request binary-searches instead: no
            // booking lasts longer than maxDuration_, so one with
            // start + maxDuration_ <= ready has ended, and bookings
            // sorted by start put all of those in a prefix.
            const auto it = std::partition_point(
                bookings_.begin() + static_cast<std::ptrdiff_t>(head_),
                bookings_.end(), [&](const Interval &b) {
                    return b.start + maxDuration_ <= ready;
                });
            pos = static_cast<std::size_t>(it - bookings_.begin());
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
        // gap search tolerates).  Grants land near the tail, so the
        // insert moves less than one booking on average.
        std::size_t at = bookings_.size();
        while (at > head_ && bookings_[at - 1].start > t)
            --at;
        bookings_.insert(bookings_.begin() +
                             static_cast<std::ptrdiff_t>(at),
                         Interval{t, t + duration, high_priority});
        maxDuration_ = std::max(maxDuration_, duration);
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
        head_ = 0;
        pruneBefore_ = 0;
        busyTotal_ = 0;
        maxDuration_ = 0;
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

    /** The live bookings only: pruned ones are not part of the state. */
    State
    snapshot() const
    {
        return State{{bookings_.begin() +
                          static_cast<std::ptrdiff_t>(head_),
                      bookings_.end()},
                     pruneBefore_, busyTotal_};
    }

    void
    restore(const State &s)
    {
        reset();
        bookings_ = s.bookings;
        pruneBefore_ = s.pruneBefore;
        busyTotal_ = s.busyTotal;
        // Only bounds the out-of-order search, so the longest restored
        // booking serves as well as the longest ever made.
        for (const Interval &b : bookings_)
            maxDuration_ = std::max(maxDuration_, b.end - b.start);
    }

  private:
    /**
     * Drop bookings that end a margin behind the newest ready time;
     * acquire() asserts that no request arrives behind that horizon.
     * Event-order skew is well under the margin, but a component may
     * book much further ahead of the clock (a ULMT page-remap sweep
     * books DRAM hundreds of thousands of cycles out).  With a clock
     * the horizon therefore never passes the simulated time, before
     * which no request can be ready.  Dropping only advances head_;
     * the dead prefix is compacted away once it is more than half the
     * vector, so each booking is moved at most once more after it
     * dies.
     */
    void
    prune(Cycle ready)
    {
        constexpr Cycle margin = 16384;
        if (clock_)
            ready = std::min(ready, clock_->now() + margin);
        if (ready <= margin || ready - margin <= pruneBefore_)
            return;
        pruneBefore_ = ready - margin;
        while (head_ < bookings_.size() &&
               bookings_[head_].end <= pruneBefore_)
            ++head_;
        if (head_ > bookings_.size() / 2) {
            bookings_.erase(bookings_.begin(),
                            bookings_.begin() +
                                static_cast<std::ptrdiff_t>(head_));
            cursor_ = cursor_ > head_ ? cursor_ - head_ : 0;
            head_ = 0;
        }
    }

    /** Sorted by start; [0, head_) are pruned bookings awaiting
     *  compaction. */
    std::vector<Interval> bookings_;
    std::size_t head_ = 0;
    Cycle pruneBefore_ = 0;
    Cycle busyTotal_ = 0;
    /** No live booking is longer (bounds the out-of-order search). */
    Cycle maxDuration_ = 0;
    /** Gap-search resume point for in-order readies. */
    std::size_t cursor_ = 0;
    Cycle cursorReady_ = 0;
    /** Bounds the prune horizon; nullptr: only the ready times do. */
    const EventQueue *clock_ = nullptr;
};

} // namespace sim

#endif // SIM_EVENT_QUEUE_HH
