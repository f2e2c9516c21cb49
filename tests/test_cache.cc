/**
 * @file
 * Unit and property tests for the set-associative tag array.
 */

#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "mem/cache.hh"
#include "sim/random.hh"

namespace {

mem::CacheGeometry
geom(std::uint32_t size, std::uint32_t assoc, std::uint32_t line)
{
    return mem::CacheGeometry{size, assoc, line};
}

TEST(Cache, GeometryMath)
{
    mem::Cache c("c", geom(16 * 1024, 2, 32));
    EXPECT_EQ(c.numSets(), 256u);
    EXPECT_EQ(c.assoc(), 2u);
    EXPECT_EQ(c.lineBytes(), 32u);
    EXPECT_EQ(c.lineAddr(0x1234), 0x1220u);

    mem::Cache l2("l2", geom(512 * 1024, 4, 64));
    EXPECT_EQ(l2.numSets(), 2048u);
}

TEST(Cache, MissThenHit)
{
    mem::Cache c("c", geom(1024, 2, 32));
    EXPECT_EQ(c.access(0x100), nullptr);
    mem::Eviction ev;
    c.insert(0x100, 0, 0, ev);
    EXPECT_FALSE(ev.valid);
    mem::CacheLine *line = c.access(0x100);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line, c.find(0x100));
    // Any address within the line hits.
    EXPECT_NE(c.access(0x11f), nullptr);
    EXPECT_EQ(c.access(0x120), nullptr);
    EXPECT_EQ(c.stats().hits, 2u);
    EXPECT_EQ(c.stats().misses, 2u);
}

TEST(Cache, LruEviction)
{
    // One set: 1024 B, 2-way, 32 B lines -> 16 sets; use addresses in
    // the same set (stride = 16 * 32 = 512).
    mem::Cache c("c", geom(1024, 2, 32));
    mem::Eviction ev;
    c.insert(0x0, 0, 0, ev);
    c.insert(0x200, 0, 0, ev);
    // Touch 0x0 so 0x200 is LRU.
    ASSERT_NE(c.access(0x0), nullptr);
    c.insert(0x400, 0, 0, ev);
    EXPECT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineAddr, 0x200u);
    EXPECT_NE(c.find(0x0), nullptr);
    EXPECT_EQ(c.find(0x200), nullptr);
}

TEST(Cache, DirtyEvictionReported)
{
    mem::Cache c("c", geom(64, 1, 32));  // 2 sets, direct mapped
    mem::Eviction ev;
    mem::CacheLine *line = c.insert(0x0, 0, 0, ev);
    line->dirty = true;
    c.insert(0x40, 0, 0, ev);  // same set 0
    EXPECT_TRUE(ev.valid);
    EXPECT_TRUE(ev.dirty);
    EXPECT_EQ(c.stats().dirtyEvictions, 1u);
}

TEST(Cache, PrefetchFlagTravelsThroughEviction)
{
    mem::Cache c("c", geom(64, 1, 32));
    mem::Eviction ev;
    mem::CacheLine *line = c.insert(0x0, 0, 0, ev);
    line->prefetched = true;
    c.insert(0x40, 0, 0, ev);
    EXPECT_TRUE(ev.valid);
    EXPECT_TRUE(ev.prefetched);
}

TEST(Cache, PendingVictimAvoidedWhenSettledExists)
{
    mem::Cache c("c", geom(64, 2, 32));  // 1 set, 2 ways
    mem::Eviction ev;
    // Way A: pending until cycle 100.  Way B: settled.
    c.insert(0x000, /*now=*/0, /*ready_at=*/100, ev);
    c.insert(0x100, 0, 0, ev);
    // Touch the pending line so the settled one is LRU anyway...
    c.touch(c.find(0x100));
    c.touch(c.find(0x000));
    // Insert at now=10: both valid; 0x100 settled is preferred victim
    // even though 0x000 is LRU by stamp? 0x000 was touched last, so
    // 0x100 is LRU AND settled: evicted.
    c.insert(0x200, 10, 10, ev);
    EXPECT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineAddr, 0x100u);
    EXPECT_NE(c.find(0x000), nullptr);  // pending line survived
}

TEST(Cache, PendingVictimUsedAsLastResort)
{
    mem::Cache c("c", geom(64, 2, 32));
    mem::Eviction ev;
    c.insert(0x000, 0, 100, ev);
    c.insert(0x100, 0, 100, ev);
    EXPECT_TRUE(c.setAllPending(0x200, 10));
    c.insert(0x200, 10, 10, ev);
    EXPECT_TRUE(ev.valid);  // had to displace a pending line
}

TEST(Cache, SetAllPending)
{
    mem::Cache c("c", geom(64, 2, 32));
    mem::Eviction ev;
    EXPECT_FALSE(c.setAllPending(0x0, 0));  // invalid lines
    c.insert(0x000, 0, 100, ev);
    EXPECT_FALSE(c.setAllPending(0x0, 0));
    c.insert(0x100, 0, 100, ev);
    EXPECT_TRUE(c.setAllPending(0x0, 50));
    EXPECT_FALSE(c.setAllPending(0x0, 100));  // fills completed
}

TEST(Cache, InvalidateAndReset)
{
    mem::Cache c("c", geom(1024, 2, 32));
    mem::Eviction ev;
    c.insert(0x100, 0, 0, ev);
    c.invalidate(0x100);
    EXPECT_EQ(c.find(0x100), nullptr);
    c.insert(0x100, 0, 0, ev);
    c.reset();
    EXPECT_EQ(c.find(0x100), nullptr);
    EXPECT_EQ(c.stats().misses, 0u);
}

/**
 * Property test: the cache agrees with a simple reference model (map
 * of set -> LRU list) under random traffic, across geometries.
 */
class CacheModelTest
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>>
{
};

TEST_P(CacheModelTest, MatchesReferenceModel)
{
    const auto [size, assoc, line] = GetParam();
    mem::Cache c("c", geom(size, assoc, line));
    const std::uint32_t num_sets = c.numSets();

    // Reference: per-set vector of line addresses, front = LRU.
    std::map<std::uint32_t, std::vector<sim::Addr>> model;
    sim::Rng rng(123 + size + assoc);

    for (int i = 0; i < 20000; ++i) {
        const sim::Addr addr = rng.below(1 << 20);
        const sim::Addr la = c.lineAddr(addr);
        const std::uint32_t set =
            static_cast<std::uint32_t>((la / line) % num_sets);
        auto &ways = model[set];
        const auto it = std::find(ways.begin(), ways.end(), la);
        const bool model_hit = it != ways.end();

        mem::CacheLine *got = c.access(addr);
        ASSERT_EQ(got != nullptr, model_hit)
            << "addr " << addr << " iter " << i;
        if (model_hit) {
            ways.erase(it);
            ways.push_back(la);
        } else {
            mem::Eviction ev;
            c.insert(addr, 0, 0, ev);
            if (ways.size() == assoc) {
                ASSERT_TRUE(ev.valid);
                ASSERT_EQ(ev.lineAddr, ways.front());
                ways.erase(ways.begin());
            } else {
                ASSERT_FALSE(ev.valid);
            }
            ways.push_back(la);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheModelTest,
    ::testing::Values(std::make_tuple(1024u, 1u, 32u),
                      std::make_tuple(1024u, 2u, 32u),
                      std::make_tuple(4096u, 4u, 64u),
                      std::make_tuple(16u * 1024u, 2u, 32u),
                      std::make_tuple(8192u, 8u, 64u)));


/**
 * Differential test of the fused insert scan: a Cache driven through
 * random inserts (some with pending fills), touches and invalidations
 * evicts exactly the line a reference sim::SetAssoc picks with
 * find() plus victim() -- two separate scans, the settled-first rule
 * spelled out as its eligibility callback, and a set index computed
 * by division.
 */
class CacheFusedScanTest
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>>
{
};

TEST_P(CacheFusedScanTest, EvictsWhatVictimPlusFindPicks)
{
    const auto [size, assoc, line] = GetParam();
    mem::Cache c("c", geom(size, assoc, line));
    const std::uint32_t num_sets = c.numSets();
    // Reference: payload = the line's readyAt.
    sim::SetAssoc<sim::Cycle> ref(num_sets, assoc);
    const auto set_of = [&](sim::Addr la) {
        return static_cast<std::uint32_t>((la / line) % num_sets);
    };
    sim::Rng rng(7 + size + assoc + line);
    // Four times the cache's lines, so sets overflow often.
    const std::uint64_t span = 4ull * size;
    sim::Cycle now = 0;
    std::uint64_t evictions = 0;
    std::uint64_t pending_kept = 0;

    for (int i = 0; i < 200000; ++i) {
        now += rng.below(3);
        const sim::Addr addr = rng.below(span);
        const sim::Addr la = addr - addr % line;
        const std::uint32_t set = set_of(la);
        const std::size_t hit = ref.find(set, la);
        ASSERT_EQ(c.find(addr) != nullptr, hit != ref.npos)
            << "addr " << addr << " iter " << i;

        if (hit != ref.npos) {
            if (rng.chance(0.1)) {
                c.invalidate(addr);
                ref.invalidate(hit);
            } else {
                ASSERT_NE(c.access(addr), nullptr);
                ref.touch(hit);
            }
            continue;
        }
        // Half the fills stay in flight for up to a few visits to
        // their set.
        const sim::Cycle ready =
            rng.chance(0.5) ? now + 1 + rng.below(16 * num_sets) : now;
        const std::size_t v = ref.victim(
            set, [&](std::size_t j) { return ref.data(j) <= now; });
        const bool displaces = ref.valid(v);
        const sim::Addr expect = ref.tag(v);
        if (displaces && ref.data(v) > now)
            ++pending_kept;  // the whole set was in flight
        mem::Eviction ev;
        mem::CacheLine *got = c.insert(addr, now, ready, ev);
        ASSERT_EQ(ev.valid, displaces) << "iter " << i;
        if (displaces) {
            ++evictions;
            ASSERT_EQ(ev.lineAddr, expect) << "iter " << i;
        }
        ASSERT_EQ(got, c.find(addr));
        ASSERT_EQ(got->readyAt, ready);
        ref.install(v, la);
        ref.data(v) = ready;
    }
    // The run exercised both victim tiers.
    EXPECT_GT(evictions, 10000u);
    EXPECT_GT(pending_kept, 0u);
}

// The three cache geometries of the paper's machine: the main
// processor's L1 and L2 and the memory processor's L1.
INSTANTIATE_TEST_SUITE_P(
    PaperGeometries, CacheFusedScanTest,
    ::testing::Values(std::make_tuple(16u * 1024u, 2u, 32u),
                      std::make_tuple(512u * 1024u, 4u, 64u),
                      std::make_tuple(32u * 1024u, 2u, 32u)));

TEST(CacheDeathTest, InsertingAResidentLinePanics)
{
    mem::Cache c("c", geom(1024, 2, 32));
    mem::Eviction ev;
    c.insert(0x100, 0, 0, ev);
    // Any address of the resident line, whichever way it sits in.
    EXPECT_DEATH(c.insert(0x11c, 0, 0, ev),
                 "c: inserting already-resident line");
    c.insert(0x300, 0, 0, ev);
    EXPECT_DEATH(c.insert(0x300, 5, 9, ev),
                 "c: inserting already-resident line");
}

} // namespace
