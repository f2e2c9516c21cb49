/**
 * @file
 * Tests for the Conven4 processor-side stream prefetcher.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "cpu/stream_prefetcher.hh"
#include "sim/random.hh"

namespace {

cpu::StreamPrefetcherParams
params(std::uint32_t seq = 4, std::uint32_t pref = 6)
{
    return cpu::StreamPrefetcherParams{seq, pref, 32, 16};
}

TEST(StreamPrefetcher, DetectsOnThirdMiss)
{
    cpu::StreamPrefetcher pf(params());
    std::vector<sim::Addr> out;
    pf.observeMiss(0x1000, out);
    EXPECT_TRUE(out.empty());
    pf.observeMiss(0x1020, out);
    EXPECT_TRUE(out.empty());
    pf.observeMiss(0x1040, out);
    ASSERT_EQ(out.size(), 6u);
    EXPECT_EQ(out[0], 0x1060u);
    EXPECT_EQ(out[5], 0x1100u);
    EXPECT_EQ(pf.streamsDetected(), 1u);
}

TEST(StreamPrefetcher, DetectsDescendingStream)
{
    cpu::StreamPrefetcher pf(params());
    std::vector<sim::Addr> out;
    pf.observeMiss(0x2000, out);
    pf.observeMiss(0x1fe0, out);
    pf.observeMiss(0x1fc0, out);
    ASSERT_EQ(out.size(), 6u);
    EXPECT_EQ(out[0], 0x1fa0u);
}

TEST(StreamPrefetcher, NoDetectionOnRandomMisses)
{
    cpu::StreamPrefetcher pf(params());
    std::vector<sim::Addr> out;
    for (sim::Addr a : {0x1000u, 0x8000u, 0x3000u, 0x9000u, 0x5000u})
        pf.observeMiss(a, out);
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(pf.streamsDetected(), 0u);
}

TEST(StreamPrefetcher, InterleavedStreamsBothDetected)
{
    cpu::StreamPrefetcher pf(params());
    std::vector<sim::Addr> out;
    for (int i = 0; i < 4; ++i) {
        pf.observeMiss(0x10000 + i * 32, out);
        pf.observeMiss(0x80000 + i * 32, out);
    }
    EXPECT_EQ(pf.streamsDetected(), 2u);
}

TEST(StreamPrefetcher, TouchTopsUpFixedLookahead)
{
    cpu::StreamPrefetcher pf(params());
    std::vector<sim::Addr> out;
    pf.observeMiss(0x1000, out);
    pf.observeMiss(0x1020, out);
    pf.observeMiss(0x1040, out);  // emits up to 0x1100
    out.clear();
    // Consuming the first prefetched line keeps NumPref of runway.
    pf.observePrefetchedTouch(0x1060, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 0x1120u);
    // The lookahead is fixed: the next touch moves it one line on.
    out.clear();
    pf.observePrefetchedTouch(0x1080, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 0x1140u);
}

TEST(StreamPrefetcher, RegisterMissRetriggers)
{
    cpu::StreamPrefetcher pf(params());
    std::vector<sim::Addr> out;
    pf.observeMiss(0x1000, out);
    pf.observeMiss(0x1020, out);
    pf.observeMiss(0x1040, out);
    out.clear();
    // A miss within the stream window: prefetch the next NumPref from
    // the miss (the paper's stream-register behaviour).
    pf.observeMiss(0x1120, out);
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out.back(), 0x1120u + 6 * 32);
}

TEST(StreamPrefetcher, LruStreamReplacement)
{
    cpu::StreamPrefetcher pf(params(2, 6));  // only two registers
    std::vector<sim::Addr> out;
    auto detect = [&](sim::Addr base) {
        for (int i = 0; i < 3; ++i)
            pf.observeMiss(base + i * 32, out);
    };
    detect(0x10000);
    detect(0x80000);
    detect(0xF0000);  // evicts the 0x10000 stream
    EXPECT_EQ(pf.streamsDetected(), 3u);
    out.clear();
    // The evicted stream no longer tops up on touches.
    pf.observePrefetchedTouch(0x10000 + 3 * 32, out);
    EXPECT_TRUE(out.empty());
}

/**
 * Reference model: the stream detector with its miss history kept as
 * a std::deque searched by std::find, and lines computed by division.
 * Stream registers and their rules are the prefetcher's own.
 */
class RefStreamPrefetcher
{
  public:
    explicit RefStreamPrefetcher(const cpu::StreamPrefetcherParams &p)
        : p_(p), streams_(p.numSeq)
    {
    }

    void
    observeMiss(sim::Addr addr, std::vector<sim::Addr> &out)
    {
        const sim::Addr line = addr / p_.lineBytes;
        if (Stream *s = match(line)) {
            emitAhead(*s, line, out);
            return;
        }
        for (std::int64_t stride : {std::int64_t{1}, std::int64_t{-1}}) {
            if (inHistory(line - sim::Addr(stride)) &&
                inHistory(line - sim::Addr(2 * stride))) {
                Stream *s = alloc();
                *s = Stream{true, line, stride, 0};
                ++detected_;
                for (std::uint32_t i = 0; i < p_.numPref; ++i) {
                    const std::int64_t next =
                        std::int64_t(s->next) + s->stride;
                    if (next < 0)
                        break;
                    s->next = sim::Addr(next);
                    out.push_back(s->next * p_.lineBytes);
                }
                s->stamp = ++stamps_;
                break;
            }
        }
        history_.push_back(line);
        if (history_.size() > p_.historyDepth)
            history_.pop_front();
    }

    void
    observePrefetchedTouch(sim::Addr addr, std::vector<sim::Addr> &out)
    {
        const sim::Addr line = addr / p_.lineBytes;
        if (Stream *s = match(line))
            emitAhead(*s, line, out);
    }

    std::uint64_t streamsDetected() const { return detected_; }

  private:
    struct Stream
    {
        bool valid = false;
        sim::Addr next = 0;
        std::int64_t stride = 0;
        std::uint64_t stamp = 0;
    };

    bool
    inHistory(sim::Addr line) const
    {
        return std::find(history_.begin(), history_.end(), line) !=
               history_.end();
    }

    Stream *
    match(sim::Addr line)
    {
        for (Stream &s : streams_) {
            const std::int64_t dist =
                (std::int64_t(s.next) - std::int64_t(line)) * s.stride;
            if (s.valid && dist >= -1 &&
                dist <= 4 * std::int64_t(p_.numPref))
                return &s;
        }
        return nullptr;
    }

    Stream *
    alloc()
    {
        Stream *victim = &streams_[0];
        for (Stream &s : streams_) {
            if (!s.valid)
                return &s;
            if (s.stamp < victim->stamp)
                victim = &s;
        }
        return victim;
    }

    void
    emitAhead(Stream &s, sim::Addr from, std::vector<sim::Addr> &out)
    {
        const std::int64_t target =
            std::int64_t(from) + s.stride * std::int64_t(p_.numPref);
        while (true) {
            const std::int64_t next = std::int64_t(s.next) + s.stride;
            if (next < 0 || (target - next) * s.stride < 0)
                break;
            s.next = sim::Addr(next);
            out.push_back(s.next * p_.lineBytes);
        }
        s.stamp = ++stamps_;
    }

    cpu::StreamPrefetcherParams p_;
    std::vector<Stream> streams_;
    std::deque<sim::Addr> history_;
    std::uint64_t detected_ = 0;
    std::uint64_t stamps_ = 0;
};

/**
 * The ring history against the deque model: random +/-1-stride miss
 * streams (several at once, near line 0 too, so descending streams
 * run off the bottom), random stray misses and prefetched touches.
 * Every call must emit the same addresses, and detection must agree.
 */
TEST(StreamPrefetcher, RingHistoryMatchesDequeModel)
{
    for (std::uint32_t depth : {1u, 2u, 3u, 16u}) {
        const cpu::StreamPrefetcherParams p{4, 6, 32, depth};
        cpu::StreamPrefetcher pf(p);
        RefStreamPrefetcher ref(p);
        sim::Rng rng(depth);
        struct Walker
        {
            sim::Addr line;
            std::int64_t stride;
        };
        std::vector<Walker> walkers;
        std::vector<sim::Addr> got, want;
        for (int i = 0; i < 50000; ++i) {
            if (walkers.size() < 3 || rng.chance(0.01)) {
                const sim::Addr base = rng.chance(0.2)
                                           ? rng.below(8)
                                           : rng.below(1 << 20);
                const std::int64_t stride = rng.chance(0.5) ? 1 : -1;
                if (walkers.size() >= 6)
                    walkers.erase(walkers.begin());
                walkers.push_back({base, stride});
            }
            sim::Addr addr;
            if (rng.chance(0.15)) {
                addr = rng.below(1ull << 25);  // a stray miss
            } else {
                Walker &w = walkers[rng.below(walkers.size())];
                addr = w.line * 32 + rng.below(32);
                if (!(w.stride < 0 && w.line == 0))
                    w.line = sim::Addr(std::int64_t(w.line) + w.stride);
            }
            got.clear();
            want.clear();
            if (rng.chance(0.3)) {
                pf.observePrefetchedTouch(addr, got);
                ref.observePrefetchedTouch(addr, want);
            } else {
                pf.observeMiss(addr, got);
                ref.observeMiss(addr, want);
            }
            ASSERT_EQ(got, want) << "depth " << depth << " iter " << i;
        }
        EXPECT_EQ(pf.streamsDetected(), ref.streamsDetected());
        // Detection needs the two previous lines in the history.
        if (depth >= 2) {
            EXPECT_GT(pf.streamsDetected(), 100u) << "depth " << depth;
        }
    }
}

/** The ring is saved oldest first, exactly as the deque was. */
TEST(MissHistory, CheckpointListsLinesOldestFirst)
{
    for (std::uint32_t pushes : {0u, 3u, 5u, 12u, 13u}) {
        sim::MissHistory h(5);
        std::deque<sim::Addr> model;
        for (std::uint32_t i = 0; i < pushes; ++i) {
            h.push(0x40 * (i + 1));
            model.push_back(0x40 * (i + 1));
            if (model.size() > 5)
                model.pop_front();
        }
        ckpt::StateWriter got, want;
        ckpt::Stream gs(got);
        h.walk(gs, "test");
        ckpt::Stream ws(want);
        ws.u64s(model);
        EXPECT_EQ(got.buffer(), want.buffer()) << pushes << " pushes";

        // Restoring gives back the same window, and the next push
        // forgets the same (oldest) line.
        sim::MissHistory back(5);
        ckpt::StateReader r(got.buffer());
        ckpt::Stream rs(r);
        back.walk(rs, "test");
        r.finish();
        back.push(0x9000);
        model.push_back(0x9000);
        if (model.size() > 5)
            model.pop_front();
        ckpt::StateWriter again, again_want;
        ckpt::Stream as(again);
        back.walk(as, "test");
        ckpt::Stream aws(again_want);
        aws.u64s(model);
        EXPECT_EQ(again.buffer(), again_want.buffer())
            << pushes << " pushes";
    }
}

TEST(MissHistory, SequenceStrideNeedsBothPreviousLines)
{
    sim::MissHistory h(4);
    EXPECT_EQ(h.sequenceStride(10), 0);
    h.push(9);
    EXPECT_EQ(h.sequenceStride(10), 0);  // line 8 missing
    h.push(8);
    EXPECT_EQ(h.sequenceStride(10), 1);
    EXPECT_EQ(h.sequenceStride(7), -1);
    EXPECT_EQ(h.sequenceStride(11), 0);  // 10 and 9: 10 missing
    h.push(11);
    h.push(12);
    EXPECT_EQ(h.sequenceStride(10), 1);  // both directions: +1 wins
    h.push(100);                         // forgets line 9
    EXPECT_EQ(h.sequenceStride(10), -1);
    // Line arithmetic wraps: lines 2^64-1 and 2^64-2 precede line 0.
    h.push(~sim::Addr(0));
    h.push(~sim::Addr(1));
    EXPECT_EQ(h.sequenceStride(0), 1);
}

TEST(StreamPrefetcherDeathTest, RefusesBadParameters)
{
    EXPECT_DEATH(cpu::StreamPrefetcher(
                     cpu::StreamPrefetcherParams{4, 6, 48, 16}),
                 "line size must be a power of two");
    EXPECT_DEATH(cpu::StreamPrefetcher(
                     cpu::StreamPrefetcherParams{4, 6, 0, 16}),
                 "line size must be a power of two");
    EXPECT_DEATH(cpu::StreamPrefetcher(
                     cpu::StreamPrefetcherParams{4, 6, 32, 0}),
                 "history depth must be at least 1");
}

} // namespace
