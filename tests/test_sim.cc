/**
 * @file
 * Unit tests for the simulation kernel: event queue, the flat map,
 * the priority timeline (with a differential test against its old
 * version), RNG determinism, statistics containers, logging helpers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/flat_map.hh"
#include "sim/logging.hh"
#include "sim/mapped_alloc.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "ref_priority_timeline.hh"

namespace {

/** A target whose events do nothing. */
struct Idle : sim::EventTarget
{
    void fire(sim::EventKind, std::uint64_t, std::uint64_t) override {}
} idle;

/**
 * Test events: each fires the callback its arg0 names.  A deque keeps
 * a running callback in place while it schedules more.
 */
struct Callbacks : sim::EventTarget
{
    explicit Callbacks(sim::EventQueue &eq) : eq(eq) {}

    /** Schedule @p fn to run at @p when. */
    void
    at(sim::Cycle when, std::function<void()> fn)
    {
        fns.push_back(std::move(fn));
        eq.schedule(when, *this, sim::EventKind::ProcStep, fns.size() - 1);
    }

    void
    fire(sim::EventKind, std::uint64_t id, std::uint64_t) override
    {
        fns[id]();
    }

    sim::EventQueue &eq;
    std::deque<std::function<void()>> fns;
};

TEST(EventQueue, RunsEventsInTimeOrder)
{
    sim::EventQueue eq;
    Callbacks cb(eq);
    std::vector<int> order;
    cb.at(30, [&] { order.push_back(3); });
    cb.at(10, [&] { order.push_back(1); });
    cb.at(20, [&] { order.push_back(2); });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameCycleEventsKeepSchedulingOrder)
{
    sim::EventQueue eq;
    Callbacks cb(eq);
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        cb.at(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    sim::EventQueue eq;
    Callbacks cb(eq);
    int fired = 0;
    std::function<void()> chain = [&] {
        ++fired;
        if (fired < 5)
            cb.at(eq.now() + 10, chain);
    };
    cb.at(0, chain);
    eq.run();
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(eq.now(), 40u);
}

TEST(EventQueue, EventLimitStopsRun)
{
    sim::EventQueue eq;
    Callbacks cb(eq);
    std::function<void()> forever = [&] { cb.at(eq.now() + 1, forever); };
    cb.at(0, forever);
    EXPECT_FALSE(eq.run(100));
    EXPECT_EQ(eq.executed(), 100u);
}

/**
 * A random self-extending schedule.  Each event's children are a pure
 * function of its id and the queue state, and every event is tagged
 * with its id, so a restored queue fires every pending event as the
 * original would (the checkpoint contract of DESIGN.md section 9).
 * Delays are mostly 0 or 1 cycle, so same-cycle ties dominate; the
 * population hovers around `target` pending events while `limit` ids
 * pass through, so the slab reuses every slot many times.
 */
struct RandomSchedule : sim::EventTarget
{
    static constexpr std::size_t target = 200;

    explicit RandomSchedule(std::uint64_t limit, bool continueInline = false)
        : limit(limit), continueInline(continueInline)
    {
    }

    sim::EventQueue eq;
    std::uint64_t limit;
    /** Run an event's last child inline when EventQueue::continueAt
     *  allows it, as MainProcessor::step does. */
    bool continueInline;
    std::uint64_t inlined = 0;
    std::uint64_t nextId = 0;
    /** (when, seq) each id was scheduled with. */
    std::vector<std::pair<sim::Cycle, std::uint64_t>> key;
    /** Ids in execution order. */
    std::vector<std::uint64_t> log;

    static std::uint64_t
    mix(std::uint64_t x)
    {
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
        return x ^ (x >> 31);
    }

    void
    spawn(sim::Cycle when)
    {
        const std::uint64_t id = nextId++;
        key.emplace_back(when, eq.nextSeq());
        eq.schedule(when, *this, sim::EventKind::ProcStep, id);
    }

    void
    fire(sim::EventKind, std::uint64_t id, std::uint64_t) override
    {
        for (;;) {
            EXPECT_EQ(eq.now(), key[id].first);
            const std::size_t at = log.size();
            log.push_back(id);
            const std::uint64_t h = mix(id);
            const unsigned children =
                eq.pending() < target ? 1 + (h & 1) : (h >> 1) & 1;
            bool continued = false;
            std::uint64_t next = 0;
            for (unsigned c = 0; c < children && nextId < limit; ++c) {
                const std::uint64_t d = (h >> (8 + 4 * c)) & 15;
                const sim::Cycle when =
                    eq.now() + (d < 8 ? 0 : d < 13 ? 1 : d);
                const std::uint64_t seq = eq.nextSeq();
                if (continueInline && c + 1 == children &&
                    eq.continueAt(when)) {
                    key.emplace_back(when, seq);
                    next = nextId++;
                    ++inlined;
                    continued = true;
                } else {
                    spawn(when);
                }
            }
            // The id outlives the spawns, which may reuse this
            // event's slot or grow the slab.
            EXPECT_EQ(log[at], id);
            if (!continued)
                return;
            id = next;
        }
    }

    void
    seed(unsigned n)
    {
        for (unsigned i = 0; i < n; ++i)
            spawn(eq.now() + mix(i + limit) % 4);
    }
};

/** The log visits every scheduled id once, in (when, seq) order. */
void
expectReferenceOrder(const RandomSchedule &rs)
{
    std::vector<std::uint64_t> ref(rs.nextId);
    for (std::uint64_t i = 0; i < rs.nextId; ++i)
        ref[i] = i;
    std::sort(ref.begin(), ref.end(),
              [&](std::uint64_t a, std::uint64_t b) {
                  return rs.key[a] < rs.key[b];
              });
    EXPECT_EQ(rs.log, ref);
}

TEST(EventQueue, RandomScheduleRunsInWhenSeqOrder)
{
    RandomSchedule rs(200000);
    rs.seed(64);
    EXPECT_TRUE(rs.eq.run());
    EXPECT_EQ(rs.nextId, rs.limit);
    EXPECT_EQ(rs.eq.executed(), rs.limit);
    expectReferenceOrder(rs);

    // A second wave through the same queue runs on recycled slots.
    rs.limit += 100000;
    rs.seed(64);
    EXPECT_TRUE(rs.eq.run());
    EXPECT_EQ(rs.eq.executed(), rs.limit);
    expectReferenceOrder(rs);
}

TEST(EventQueue, MidRunRestoreContinuesInIdenticalOrder)
{
    RandomSchedule straight(100000);
    straight.seed(64);
    ASSERT_TRUE(straight.eq.run());

    for (std::uint64_t stop : {1u, 5000u, 37123u, 99000u}) {
        RandomSchedule first(100000);
        first.seed(64);
        ASSERT_FALSE(first.eq.run(stop));
        const std::vector<sim::SavedEvent> saved = first.eq.saveEvents();
        ASSERT_EQ(saved.size(), first.eq.pending());
        ASSERT_TRUE(std::is_sorted(
            saved.begin(), saved.end(),
            [](const sim::SavedEvent &a, const sim::SavedEvent &b) {
                return a.when != b.when ? a.when < b.when : a.seq < b.seq;
            }));

        RandomSchedule resumed(100000);
        resumed.nextId = first.nextId;
        resumed.key = first.key;
        resumed.log = first.log;
        resumed.eq.restoreEvents(
            first.eq.now(), first.eq.nextSeq(), first.eq.executed(), saved,
            [&resumed](const sim::SavedEvent &e) -> sim::EventTarget & {
                EXPECT_EQ(e.kind,
                          static_cast<std::uint32_t>(
                              sim::EventKind::ProcStep));
                return resumed;
            });
        // The restored queue holds the snapshot's events with their
        // original sequence numbers.
        const std::vector<sim::SavedEvent> again = resumed.eq.saveEvents();
        ASSERT_EQ(again.size(), saved.size());
        for (std::size_t i = 0; i < saved.size(); ++i) {
            EXPECT_EQ(again[i].when, saved[i].when);
            EXPECT_EQ(again[i].seq, saved[i].seq);
            EXPECT_EQ(again[i].kind, saved[i].kind);
            EXPECT_EQ(again[i].arg0, saved[i].arg0);
            EXPECT_EQ(again[i].arg1, saved[i].arg1);
        }
        ASSERT_TRUE(resumed.eq.run());
        EXPECT_EQ(resumed.log, straight.log) << "stopped at " << stop;
        EXPECT_EQ(resumed.eq.executed(), straight.eq.executed());
        EXPECT_EQ(resumed.eq.nextSeq(), straight.eq.nextSeq());
        EXPECT_EQ(resumed.eq.now(), straight.eq.now());
    }
}

/** Clock, counts and pending events of a queue at one instant. */
struct QueueState
{
    sim::Cycle now;
    std::uint64_t executed;
    std::uint64_t nextSeq;
    std::vector<sim::SavedEvent> pending;
};

QueueState
stateOf(const sim::EventQueue &eq)
{
    return {eq.now(), eq.executed(), eq.nextSeq(), eq.saveEvents()};
}

void
expectSameState(const QueueState &a, const QueueState &b)
{
    EXPECT_EQ(a.now, b.now);
    EXPECT_EQ(a.executed, b.executed);
    EXPECT_EQ(a.nextSeq, b.nextSeq);
    ASSERT_EQ(a.pending.size(), b.pending.size());
    for (std::size_t i = 0; i < a.pending.size(); ++i) {
        EXPECT_EQ(a.pending[i].when, b.pending[i].when);
        EXPECT_EQ(a.pending[i].seq, b.pending[i].seq);
        EXPECT_EQ(a.pending[i].kind, b.pending[i].kind);
        EXPECT_EQ(a.pending[i].arg0, b.pending[i].arg0);
        EXPECT_EQ(a.pending[i].arg1, b.pending[i].arg1);
    }
}

TEST(EventQueue, InlineContinuationRunsTheSameScheduleAsTheHeap)
{
    RandomSchedule heap(200000);
    heap.seed(64);
    ASSERT_TRUE(heap.eq.run());

    RandomSchedule inl(200000, true);
    inl.seed(64);
    ASSERT_TRUE(inl.eq.run());
    // With ~200 events pending a child seldom precedes them all.
    EXPECT_GT(inl.inlined, 1000u);
    expectReferenceOrder(inl);
    EXPECT_EQ(inl.log, heap.log);
    EXPECT_EQ(inl.key, heap.key);
    expectSameState(stateOf(inl.eq), stateOf(heap.eq));

    // Stopped at an event limit, both runs hold the same events,
    // counts and pending queue.
    for (std::uint64_t stop : {1u, 777u, 50001u}) {
        RandomSchedule a(100000), b(100000, true);
        a.seed(64);
        b.seed(64);
        ASSERT_FALSE(a.eq.run(stop));
        ASSERT_FALSE(b.eq.run(stop));
        EXPECT_EQ(b.eq.executed(), stop);
        EXPECT_EQ(b.log, a.log) << "stopped at " << stop;
        expectSameState(stateOf(b.eq), stateOf(a.eq));
    }
}

/** From inside an event at cycle 5, ask whether an event at @p when
 *  may run inline; @p setup arms the queue first. */
bool
continuesAt(sim::Cycle when,
            const std::function<void(sim::EventQueue &)> &setup,
            std::uint64_t max_events = UINT64_MAX)
{
    sim::EventQueue eq;
    Callbacks cb(eq);
    setup(eq);
    bool answer = false;
    cb.at(5, [&] { answer = eq.continueAt(when); });
    eq.run(max_events);
    return answer;
}

TEST(EventQueue, ContinueAtRefusesWhenAnotherEventComesFirst)
{
    const auto pendingAt10 = [](sim::EventQueue &eq) {
        eq.schedule(10, idle, sim::EventKind::ProcStep);
    };
    EXPECT_TRUE(continuesAt(9, pendingAt10));
    // An equal-time pending event owns a lower seq, so it runs first.
    EXPECT_FALSE(continuesAt(10, pendingAt10));
    EXPECT_FALSE(continuesAt(11, pendingAt10));
    EXPECT_TRUE(continuesAt(5, [](sim::EventQueue &) {}));
    EXPECT_TRUE(continuesAt(1000, [](sim::EventQueue &) {}));

    // Outside run() there is no event to continue from.
    sim::EventQueue idle;
    EXPECT_FALSE(idle.continueAt(0));
    EXPECT_EQ(idle.executed(), 0u);
    EXPECT_EQ(idle.nextSeq(), 0u);
}

TEST(EventQueue, ContinueAtRefusesWhileAHookIsDue)
{
    const auto noTick = [](sim::Cycle) {};
    // The ticker is due at cycle 5, after the event at 5.
    EXPECT_FALSE(continuesAt(6, [&](sim::EventQueue &eq) {
        eq.setTicker(5, noTick);
    }));
    EXPECT_TRUE(continuesAt(6, [&](sim::EventQueue &eq) {
        eq.setTicker(6, noTick);
    }));
    // The inspector is due after the first event.
    EXPECT_FALSE(continuesAt(6, [](sim::EventQueue &eq) {
        eq.setInspector(1, [] {});
    }));
    EXPECT_TRUE(continuesAt(6, [](sim::EventQueue &eq) {
        eq.setInspector(2, [] {});
    }));
    // Any armed break check is asked after every event.
    EXPECT_FALSE(continuesAt(6, [](sim::EventQueue &eq) {
        eq.setBreakCheck([](sim::Cycle) { return false; });
    }));
    // run(max_events) stops at its limit before the next event.
    const auto none = [](sim::EventQueue &) {};
    EXPECT_FALSE(continuesAt(6, none, 1));
    EXPECT_TRUE(continuesAt(6, none, 2));
}

TEST(EventQueue, ContinueAtAdvancesLikeAPushAndPop)
{
    // One event at 5 follows on at 12, inline or through the heap;
    // the follow-on records the queue state and schedules one more.
    const auto twin = [](bool inl, QueueState &inside, QueueState &end) {
        sim::EventQueue eq;
        Callbacks cb(eq);
        eq.schedule(20, idle, sim::EventKind::ProcStep, 7);
        eq.schedule(3, idle, sim::EventKind::ProcStep);
        const auto followOn = [&] {
            inside = stateOf(eq);
            eq.schedule(15, idle, sim::EventKind::VmRemap, 1, 2);
        };
        cb.at(5, [&] {
            if (inl) {
                EXPECT_TRUE(eq.continueAt(12));
                followOn();
            } else {
                cb.at(12, followOn);
            }
        });
        EXPECT_TRUE(eq.run());
        end = stateOf(eq);
    };
    QueueState heapInside, heapEnd, inlInside, inlEnd;
    twin(false, heapInside, heapEnd);
    twin(true, inlInside, inlEnd);
    EXPECT_EQ(heapInside.now, 12u);
    EXPECT_EQ(heapInside.executed, 3u);
    EXPECT_EQ(heapInside.pending.size(), 1u);
    expectSameState(inlInside, heapInside);
    EXPECT_EQ(heapEnd.executed, 5u);
    expectSameState(inlEnd, heapEnd);
}

/** Random line-aligned and core-packed keys in a small universe, so
 *  the table runs near its load limit and probe runs wrap its end. */
sim::Addr
randomKey(sim::Rng &rng, std::uint64_t universe)
{
    const sim::Addr line = rng.below(universe) << 6;
    return rng.below(2) ? line
                        : sim::packCoreLine(
                              static_cast<unsigned>(rng.below(4)), line);
}

/** Sweep @p m like Hierarchy::fillL2 sweeps its write-back queue and
 *  check it against the same sweep of @p ref. */
void
sweepBoth(sim::FlatMap<std::uint64_t> &m,
          std::unordered_map<sim::Addr, std::uint64_t> &ref,
          std::uint64_t cut)
{
    std::unordered_map<sim::Addr, unsigned> visits;
    m.eraseIf([&](const auto &e) {
        ++visits[e.first];
        return e.second <= cut;
    });
    std::size_t expired = 0;
    for (auto it = ref.begin(); it != ref.end();) {
        ASSERT_EQ(visits[it->first], 1u) << "key " << it->first;
        if (it->second <= cut) {
            it = ref.erase(it);
            ++expired;
        } else {
            ++it;
        }
    }
    EXPECT_EQ(visits.size(), m.size() + expired);
}

void
expectSameContents(const sim::FlatMap<std::uint64_t> &m,
                   const std::unordered_map<sim::Addr, std::uint64_t> &ref)
{
    ASSERT_EQ(m.size(), ref.size());
    std::size_t walked = 0;
    for (const auto &[k, v] : m) {
        auto it = ref.find(k);
        ASSERT_NE(it, ref.end());
        EXPECT_EQ(it->second, v);
        ++walked;
    }
    EXPECT_EQ(walked, ref.size());
}

TEST(FlatMap, MatchesUnorderedMapOnRandomOperations)
{
    sim::Rng rng(0xF1A7);
    sim::FlatMap<std::uint64_t> m;
    std::unordered_map<sim::Addr, std::uint64_t> ref;
    std::uint64_t universe = 64;
    for (unsigned op = 0; op < 300000; ++op) {
        // Widen the key universe in steps (growth), and now and then
        // empty the map and carry on in the same table.
        if (op % 50000 == 49999) {
            m.clear();
            ref.clear();
            EXPECT_EQ(m.size(), 0u);
            EXPECT_EQ(m.begin(), m.end());
            universe *= 4;
        }
        const sim::Addr k = randomKey(rng, universe);
        switch (rng.below(8)) {
          case 0:
          case 1:
          case 2: {
            const std::uint64_t v = rng.below(1000);
            m[k] += v;
            ref[k] += v;
            break;
          }
          case 3:
            EXPECT_EQ(m.erase(k), ref.erase(k));
            break;
          case 4: {
            auto it = m.find(k);
            auto rit = ref.find(k);
            ASSERT_EQ(it == m.end(), rit == ref.end());
            if (it != m.end()) {
                EXPECT_EQ(it->first, k);
                EXPECT_EQ(it->second, rit->second);
                m.erase(it);
                ref.erase(rit);
            }
            break;
          }
          case 5: {
            auto it = m.find(k);
            auto rit = ref.find(k);
            ASSERT_EQ(it == m.end(), rit == ref.end());
            if (it != m.end()) {
                EXPECT_EQ(it->second, rit->second);
            }
            break;
          }
          case 6:
            EXPECT_EQ(m.count(k), ref.count(k));
            break;
          default:
            if (rng.below(64) == 0)
                sweepBoth(m, ref, rng.below(1000));
            break;
        }
        ASSERT_EQ(m.size(), ref.size());
        if (op % 997 == 0)
            expectSameContents(m, ref);
    }
    expectSameContents(m, ref);
}

TEST(FlatMap, SweepRemovesExactlyTheMatchesAtEveryLoad)
{
    sim::Rng rng(0x5EE9);
    for (unsigned round = 0; round < 2000; ++round) {
        sim::FlatMap<std::uint64_t> m;
        std::unordered_map<sim::Addr, std::uint64_t> ref;
        const std::uint64_t n = 1 + rng.below(300);
        for (std::uint64_t i = 0; i < n; ++i) {
            const sim::Addr k = randomKey(rng, 4 * n);
            const std::uint64_t v = rng.below(100);
            m[k] = v;
            ref[k] = v;
        }
        sweepBoth(m, ref, rng.below(100));
        expectSameContents(m, ref);
    }
}

TEST(FlatSet, MatchesUnorderedSet)
{
    sim::Rng rng(0x5E7);
    sim::FlatSet s;
    std::unordered_set<sim::Addr> ref;
    for (unsigned op = 0; op < 100000; ++op) {
        const sim::Addr k = randomKey(rng, 256);
        switch (rng.below(3)) {
          case 0:
            EXPECT_EQ(s.insert(k), ref.insert(k).second);
            break;
          case 1:
            EXPECT_EQ(s.erase(k), ref.erase(k));
            break;
          default:
            EXPECT_EQ(s.count(k), ref.count(k));
            break;
        }
        ASSERT_EQ(s.size(), ref.size());
    }
    std::vector<sim::Addr> keys = s.keys();
    std::vector<sim::Addr> want(ref.begin(), ref.end());
    std::sort(keys.begin(), keys.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(keys, want);
    s.clear();
    EXPECT_EQ(s.size(), 0u);
    EXPECT_TRUE(s.insert(want.empty() ? 64 : want.front()));
}

namespace {

struct Defaulted
{
    std::uint32_t a = 7;
    std::uint64_t b = 9;
};

template <typename T>
bool
allEqual(const sim::MappedVector<T> &v, const T &want)
{
    return std::all_of(v.begin(), v.end(),
                       [&](const T &x) { return x == want; });
}

} // namespace

TEST(MappedVector, ValueInitializesSmallAndMappedArrays)
{
    // Both sides of minBytes, twice each: the second array may reuse
    // the first one's memory, which was dirtied before it was freed.
    for (const std::size_t n : {std::size_t(1000), std::size_t(1) << 20}) {
        for (int round = 0; round < 2; ++round) {
            sim::MappedVector<std::uint64_t> v(n);
            ASSERT_EQ(v.size(), n);
            EXPECT_TRUE(allEqual<std::uint64_t>(v, 0)) << n;
            std::fill(v.begin(), v.end(), ~std::uint64_t(0));

            sim::MappedVector<Defaulted> d;
            d.resize(n);
            EXPECT_TRUE(std::all_of(d.begin(), d.end(), [](const auto &x) {
                return x.a == 7 && x.b == 9;
            })) << n;
        }
    }
    sim::MappedVector<std::uint32_t> copied(std::size_t(1) << 16, 5);
    sim::MappedVector<std::uint32_t> copy = copied;
    EXPECT_TRUE(allEqual<std::uint32_t>(copy, 5));
}

TEST(RecyclingAllocator, HandsAFreedBlockOutAgain)
{
    using Alloc = sim::RecyclingAllocator<std::uint64_t, 4096>;
    Alloc a;
    std::uint64_t *p = a.allocate(4096);
    p[4095] = 42;
    a.deallocate(p, 4096);
    std::uint64_t *q = a.allocate(4096);
    EXPECT_EQ(q, p);
    std::uint64_t *r = a.allocate(4096);
    EXPECT_NE(r, q);
    // Other sizes go to operator new.
    std::uint64_t *s = a.allocate(10);
    s[9] = 1;
    a.deallocate(s, 10);
    a.deallocate(r, 4096);
    a.deallocate(q, 4096);

    std::vector<std::uint64_t, Alloc> v;
    v.reserve(4096);
    EXPECT_EQ(v.data(), q);  // the last block freed
    for (std::uint64_t i = 0; i < 4096; ++i)
        v.push_back(i);
    EXPECT_EQ(v.back(), 4095u);
}

TEST(PriorityTimeline, HighDisplacesUnstartedLowButNotInProgress)
{
    {
        // The low booking has not started by the high request's ready
        // time: the controller reorders its queues and the prefetch
        // transfer is pushed behind.
        sim::PriorityTimeline tl;
        EXPECT_EQ(tl.acquire(20, 10, false), 20u);  // low, [20,30)
        EXPECT_EQ(tl.acquire(15, 10, true), 15u);   // displaces it
    }
    {
        // A low transfer already in progress is non-preemptive: the
        // high request waits for its completion.
        sim::PriorityTimeline tl;
        EXPECT_EQ(tl.acquire(0, 20, false), 0u);  // low, [0,20)
        EXPECT_EQ(tl.acquire(5, 10, true), 20u);
    }
}

TEST(PriorityTimeline, OvercommittedBookingsStayConsistent)
{
    // Displacement makes the booked list non-disjoint (the displaced
    // low booking still occupies its old slot).  Later requests of
    // both classes must still be placed against every live booking.
    sim::PriorityTimeline tl;
    EXPECT_EQ(tl.acquire(0, 10, false), 0u);    // low, [0,10)
    EXPECT_EQ(tl.acquire(20, 10, false), 20u);  // low, [20,30)
    EXPECT_EQ(tl.acquire(15, 10, true), 15u);   // high, [15,25)

    // Another high request: waits for the high booking, skips the
    // displaced low one.
    EXPECT_EQ(tl.acquire(15, 10, true), 25u);  // high, [25,35)

    // A low request respects everything, including the overcommitted
    // region: first idle cycle after all bookings is 35.
    EXPECT_EQ(tl.acquire(15, 5, false), 35u);
    EXPECT_EQ(tl.busyTotal(), 10u + 10u + 10u + 10u + 5u);
}

TEST(PriorityTimeline, OutOfOrderReadySearchesFromFirstUnendedBooking)
{
    // Advance the gap-search cursor far ahead, then issue a request
    // with an earlier ready time: its binary search must stop at the
    // first booking that may not have ended, so it still sees [0,10).
    sim::PriorityTimeline tl;
    EXPECT_EQ(tl.acquire(0, 10, true), 0u);       // [0,10)
    EXPECT_EQ(tl.acquire(1000, 10, true), 1000u); // cursor past [0,10)
    EXPECT_EQ(tl.acquire(0, 10, true), 10u);      // not 0: slot taken
}

TEST(PriorityTimeline, OutOfOrderGrantBehindCursorStaysVisible)
{
    // An out-of-order high request that displaces unstarted low
    // bookings can land before the cursor yet end after its ready
    // time; the cursor must move back so in-order requests see it.
    sim::PriorityTimeline tl;
    EXPECT_EQ(tl.acquire(100, 10, false), 100u);  // low, [100,110)
    EXPECT_EQ(tl.acquire(120, 10, false), 120u);  // low, cursor past 1st
    EXPECT_EQ(tl.acquire(50, 100, true), 50u);    // high, [50,150)
    EXPECT_EQ(tl.acquire(120, 10, true), 150u);   // waits for it
}

TEST(PriorityTimeline, PruneMarginBoundary)
{
    // Bookings are pruned only once they end a full margin (16384
    // cycles) behind the newest ready time; a booking ending exactly
    // at the boundary is dropped, one cycle later it is kept.  Either
    // way placements stay correct because pruned bookings can never
    // overlap a request's ready window.
    constexpr sim::Cycle margin = 16384;
    {
        sim::PriorityTimeline tl;
        EXPECT_EQ(tl.acquire(0, 10, true), 0u);  // ends at 10
        // ready - margin == 10: the booking is pruned, and the new
        // request lands at its ready time on the now-idle resource.
        EXPECT_EQ(tl.acquire(margin + 10, 10, true), margin + 10);
    }
    {
        sim::PriorityTimeline tl;
        // A transfer still running inside the margin window is kept
        // and serializes same-class requests behind it.
        const sim::Cycle start = tl.acquire(0, margin + 50, true);
        EXPECT_EQ(start, 0u);
        EXPECT_EQ(tl.acquire(margin + 20, 10, true), margin + 50);
    }
    {
        // The cached cursor must stay valid across the pruned prefix
        // and its compaction; otherwise later same-ready requests
        // would be placed against the wrong bookings and overlap.
        sim::PriorityTimeline tl;
        for (sim::Cycle r = 0; r < 8; ++r)
            EXPECT_EQ(tl.acquire(r * 100, 10, true), r * 100);
        const sim::Cycle far = 10 * margin;
        EXPECT_EQ(tl.acquire(far, 10, true), far);  // prunes prefix
        EXPECT_EQ(tl.acquire(far, 10, true), far + 10);
        EXPECT_EQ(tl.acquire(far, 10, true), far + 20);
    }
}

TEST(PriorityTimeline, ClockKeepsHorizonBehindSimulatedTime)
{
    // A booking made far ahead of the clock (a ULMT page-remap sweep
    // books DRAM hundreds of thousands of cycles out) must not prune
    // bookings that requests made now still collide with.
    constexpr sim::Cycle margin = 16384;
    sim::EventQueue eq;
    sim::PriorityTimeline tl(&eq);
    EXPECT_EQ(tl.acquire(100, 50, true), 100u);  // [100,150)
    EXPECT_EQ(tl.acquire(10 * margin, 10, false), 10 * margin);
    EXPECT_EQ(tl.acquire(120, 10, true), 150u);  // still sees [100,150)
}

TEST(PriorityTimelineDeathTest, RefusesReadyBehindPruneHorizon)
{
    // Without a clock the far booking prunes [100,150); a request that
    // could collide with it is refused instead of misplaced.
    constexpr sim::Cycle margin = 16384;
    sim::PriorityTimeline tl;
    EXPECT_EQ(tl.acquire(100, 50, true), 100u);
    EXPECT_EQ(tl.acquire(10 * margin, 10, false), 10 * margin);
    EXPECT_DEATH(tl.acquire(120, 10, true), "prune horizon");
}

void
expectSameState(const sim::PriorityTimeline::State &got,
                const ref::RefPriorityTimeline::State &want)
{
    EXPECT_EQ(got.pruneBefore, want.pruneBefore);
    EXPECT_EQ(got.busyTotal, want.busyTotal);
    ASSERT_EQ(got.bookings.size(), want.bookings.size());
    for (std::size_t i = 0; i < got.bookings.size(); ++i) {
        EXPECT_EQ(got.bookings[i].start, want.bookings[i].start) << i;
        EXPECT_EQ(got.bookings[i].end, want.bookings[i].end) << i;
        EXPECT_EQ(got.bookings[i].high, want.bookings[i].high) << i;
    }
}

TEST(PriorityTimeline, MatchesReferenceOnRandomStreams)
{
    // Drive the optimized timeline and a verbatim copy of the old one
    // with the same seeded request streams.  The streams look like a
    // contended bus: a clock that advances ~50 cycles per request at
    // ~70% load, readies mostly just ahead of it but up to ~4k cycles
    // behind or ahead (the skew a four-core run shows), durations of
    // 1-67 cycles, rare bookings longer than the prune margin and rare
    // far jumps that prune everything.  Halfway through, both are
    // snapshotted and restored into fresh timelines.
    constexpr sim::Cycle margin = 16384;
    constexpr int requests = 20000;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        SCOPED_TRACE(seed);
        sim::Rng rng(seed);
        auto tl = std::make_unique<sim::PriorityTimeline>();
        auto ref = std::make_unique<ref::RefPriorityTimeline>();
        sim::Cycle now = 4096;
        for (int i = 0; i < requests; ++i) {
            now += rng.below(100);
            if (rng.chance(0.0005))
                now += margin * rng.range(1, 4);
            sim::Cycle ready = now + rng.below(64);
            const std::uint64_t kind = rng.below(10);
            if (kind < 2)
                ready = now - rng.below(4096);
            else if (kind == 2)
                ready = now + rng.below(4096);
            const sim::Cycle duration = rng.chance(0.001)
                                            ? margin + rng.range(1, 4096)
                                            : rng.range(1, 67);
            const bool high = rng.chance(0.5);
            const sim::Cycle got = tl->acquire(ready, duration, high);
            ASSERT_EQ(got, ref->acquire(ready, duration, high))
                << "request " << i;
            ASSERT_EQ(tl->busyTotal(), ref->busyTotal());
            if (i % 256 == 0 || i == requests / 2) {
                expectSameState(tl->snapshot(), ref->snapshot());
                if (HasFatalFailure())
                    return;
            }
            if (i == requests / 2) {
                const auto tl_state = tl->snapshot();
                const auto ref_state = ref->snapshot();
                tl = std::make_unique<sim::PriorityTimeline>();
                ref = std::make_unique<ref::RefPriorityTimeline>();
                tl->restore(tl_state);
                ref->restore(ref_state);
            }
        }
        expectSameState(tl->snapshot(), ref->snapshot());
    }
}

TEST(Rng, DeterministicForSameSeed)
{
    sim::Rng a(42), b(42), c(43);
    bool all_equal = true;
    bool any_diff_seed = false;
    for (int i = 0; i < 100; ++i) {
        const auto va = a.next();
        all_equal &= va == b.next();
        any_diff_seed |= va != c.next();
    }
    EXPECT_TRUE(all_equal);
    EXPECT_TRUE(any_diff_seed);
}

TEST(Rng, BelowStaysInRange)
{
    sim::Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.range(5, 9);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 9u);
    }
}

TEST(Rng, RealIsUnitInterval)
{
    sim::Rng rng(9);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double v = rng.real();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(SampleStat, TracksMoments)
{
    sim::SampleStat s;
    EXPECT_EQ(s.mean(), 0.0);
    s.sample(10);
    s.sample(20);
    s.sample(30);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 20.0);
    EXPECT_DOUBLE_EQ(s.min(), 10.0);
    EXPECT_DOUBLE_EQ(s.max(), 30.0);
}

TEST(BinnedHistogram, PaperBins)
{
    // The Figure 6 bins.
    sim::BinnedHistogram h({0.0, 80.0, 200.0, 280.0});
    h.sample(0);
    h.sample(79);
    h.sample(80);
    h.sample(279);
    h.sample(280);
    h.sample(100000);
    EXPECT_EQ(h.binCount(0), 2u);
    EXPECT_EQ(h.binCount(1), 1u);
    EXPECT_EQ(h.binCount(2), 1u);
    EXPECT_EQ(h.binCount(3), 2u);
    EXPECT_EQ(h.total(), 6u);
    EXPECT_DOUBLE_EQ(h.binFraction(0), 2.0 / 6.0);
}

TEST(Logging, StrformatFormats)
{
    EXPECT_EQ(sim::strformat("a=%d b=%s", 3, "x"), "a=3 b=x");
    EXPECT_EQ(sim::strformat("%05.1f", 2.25), "002.2");
}

} // namespace
