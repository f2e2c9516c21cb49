/**
 * @file
 * Placement pins: which way of a set each set-associative structure
 * fills, and which line it displaces.  The way decides a correlation
 * row's simulated address (rowAddr()), hence the memory-processor
 * L1/DRAM traffic the cost model charges, and it decides the indices
 * checkpoints store; so every committed result depends on it.  The
 * deep oracles compare LRU order only, not ways, so these tests are
 * the guard.
 *
 * Every observation is black-box: the cost tracker's row addresses
 * for the correlation tables, and the checkpoint bytes (whose layout
 * is itself pinned by the golden corpus) for the caches and the TLB.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "ckpt/state.hh"
#include "core/base_chain.hh"
#include "core/pair_table.hh"
#include "core/replicated.hh"
#include "mem/cache.hh"
#include "mem/table_cache.hh"
#include "sim/event_queue.hh"
#include "vm/vm.hh"

namespace {

/** Records every table write; the last one of an allocating call is
 *  the allocation itself. */
struct WriteRecorder : public core::CostTracker
{
    struct Write
    {
        sim::Addr addr;
        std::uint32_t bytes;
    };
    std::vector<Write> writes;

    void instr(std::uint32_t) override {}
    void memRead(sim::Addr, std::uint32_t) override {}
    void
    memWrite(sim::Addr addr, std::uint32_t bytes) override
    {
        writes.push_back({addr, bytes});
    }
};

/** 16 rows, 4 ways: 4 sets.  Lines 0x100 apart share set 0. */
core::CorrelationParams
fourWayParams()
{
    core::CorrelationParams p;
    p.numRows = 16;
    p.numSucc = 2;
    p.assoc = 4;
    p.numLevels = 3;
    return p;
}

constexpr sim::Addr kSetStride = 4 * 64;  // (line / 64) % 4 sets

/** Row index (set * assoc + way) behind a simulated row address. */
std::uint64_t
rowIndex(const core::CorrelationParams &p, sim::Addr row_addr,
         std::uint32_t stride)
{
    return (row_addr - p.tableBase) / stride;
}

/** Allocate @p line in @p t and return the allocated row's index. */
std::uint64_t
allocRow(core::PairTable &t, sim::Addr line)
{
    WriteRecorder rec;
    t.findOrAlloc(line, rec);
    EXPECT_EQ(rec.writes.size(), 1u);
    EXPECT_EQ(rec.writes.back().bytes, t.rowBytes());
    return rowIndex(t.params(), rec.writes.back().addr, 16);
}

TEST(Placement, PairTableFillsFromWayOne)
{
    const core::CorrelationParams p = fourWayParams();
    core::PairTable t(p, 12);  // Chain rows: 16 B pitch

    // An empty set fills ways 1, 2, 3, then 0.
    EXPECT_EQ(allocRow(t, 0 * kSetStride), 1u);
    EXPECT_EQ(allocRow(t, 1 * kSetStride), 2u);
    EXPECT_EQ(allocRow(t, 2 * kSetStride), 3u);
    EXPECT_EQ(allocRow(t, 3 * kSetStride), 0u);

    // Another set lands at its own base: set 1 is rows 4..7.
    EXPECT_EQ(allocRow(t, 64), 5u);

    // The simulated address of a row is tableBase + index * pitch.
    WriteRecorder rec;
    t.findOrAlloc(2 * kSetStride + 64, rec);  // set 1 again: way 2
    ASSERT_EQ(rec.writes.size(), 1u);
    EXPECT_EQ(rec.writes[0].addr, p.tableBase + 6 * 16);
}

TEST(Placement, PairTableRefillsFreedRowsFromWayOne)
{
    core::PairTable t(fourWayParams(), 12);
    for (sim::Addr i = 0; i < 4; ++i)
        allocRow(t, i * kSetStride);  // ways 1, 2, 3, 0

    // Free way 0 (line 3) and way 2 (line 1): the scan starts at way
    // 1, so way 2 is refilled before way 0.
    t.invalidate(3 * kSetStride);
    t.invalidate(1 * kSetStride);
    EXPECT_EQ(allocRow(t, 4 * kSetStride), 2u);
    EXPECT_EQ(allocRow(t, 5 * kSetStride), 0u);

    // Full again: the LRU row (line 0, way 1) is replaced.
    EXPECT_EQ(t.replacements(), 0u);
    EXPECT_EQ(allocRow(t, 6 * kSetStride), 1u);
    EXPECT_EQ(t.replacements(), 1u);
}

TEST(Placement, BaseAllocatesThroughThePairTable)
{
    // The learner's allocation is the last write of learnStep.
    const core::CorrelationParams p = fourWayParams();
    core::BasePrefetcher base(p);
    std::vector<std::uint64_t> ways;
    for (sim::Addr i = 0; i < 4; ++i) {
        WriteRecorder rec;
        base.learnStep(i * kSetStride, rec);
        ASSERT_FALSE(rec.writes.empty());
        ways.push_back(rowIndex(p, rec.writes.back().addr, 16));
    }
    EXPECT_EQ(ways, (std::vector<std::uint64_t>{1, 2, 3, 0}));
}

TEST(Placement, ReplicatedFillsFromWayZero)
{
    const core::CorrelationParams p = fourWayParams();
    core::ReplicatedPrefetcher repl(p);
    const std::uint32_t pitch = 32;  // 28 B rows
    ASSERT_EQ(repl.rowBytes(), 28u);
    std::vector<std::uint64_t> rows;
    for (sim::Addr i = 0; i < 4; ++i) {
        WriteRecorder rec;
        repl.learnStep(i * kSetStride, rec);
        ASSERT_FALSE(rec.writes.empty());
        EXPECT_EQ(rec.writes.back().bytes, repl.rowBytes());
        rows.push_back(rowIndex(p, rec.writes.back().addr, pitch));
    }
    EXPECT_EQ(rows, (std::vector<std::uint64_t>{0, 1, 2, 3}));

    // Set 3 starts at row 12.
    WriteRecorder rec;
    repl.learnStep(3 * 64, rec);
    EXPECT_EQ(rec.writes.back().addr, p.tableBase + 12 * pitch);
}

/** Line index -> tag of a Cache checkpoint's sparse line list. */
std::map<std::uint64_t, sim::Addr>
cacheLines(const mem::Cache &c)
{
    ckpt::StateWriter w;
    ckpt::save(w, c);
    ckpt::StateReader r(w.buffer());
    for (int i = 0; i < 3; ++i)
        r.u32();  // geometry
    for (int i = 0; i < 5; ++i)
        r.u64();  // stamp counter + four stats
    std::map<std::uint64_t, sim::Addr> out;
    const std::uint64_t n = r.u64();
    for (std::uint64_t k = 0; k < n; ++k) {
        const std::uint64_t idx = r.u64();
        out[idx] = r.u64();
        r.b();
        r.b();
        r.b();
        r.u8();
        r.u64();
        r.u64();
    }
    return out;
}

TEST(Placement, CacheFillsFromWayZero)
{
    // 2 sets x 4 ways of 64 B lines: lines 0x80 apart share set 0.
    mem::Cache c("c", mem::CacheGeometry{512, 4, 64});
    mem::Eviction ev;
    for (sim::Addr i = 0; i < 4; ++i)
        c.insert(i * 0x80, 0, 0, ev);
    c.insert(0x40, 0, 0, ev);  // set 1, way 0
    const std::map<std::uint64_t, sim::Addr> want = {
        {0, 0x000}, {1, 0x080}, {2, 0x100}, {3, 0x180}, {4, 0x040}};
    EXPECT_EQ(cacheLines(c), want);

    // A freed way is refilled first; then LRU (way 1 here).
    c.invalidate(0x100);
    c.insert(0x200, 0, 0, ev);
    EXPECT_FALSE(ev.valid);
    EXPECT_EQ(cacheLines(c).at(2), 0x200u);
    c.insert(0x280, 0, 0, ev);
    EXPECT_EQ(ev.lineAddr, 0x000u);
    EXPECT_EQ(cacheLines(c).at(0), 0x280u);
}

TEST(Placement, CachePrefersASettledVictimOverAPendingLruOne)
{
    mem::Cache c("c", mem::CacheGeometry{128, 2, 64});  // 1 set
    mem::Eviction ev;
    c.insert(0x000, /*now=*/0, /*ready_at=*/100, ev);  // LRU, pending
    c.insert(0x040, 1, 1, ev);                         // MRU, settled
    c.insert(0x080, 2, 2, ev);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineAddr, 0x040u);  // not the LRU line
    EXPECT_EQ(cacheLines(c).at(1), 0x080u);

    // With every line pending the LRU one goes.
    c.insert(0x0c0, 3, 200, ev);  // displaces the settled 0x080
    EXPECT_EQ(ev.lineAddr, 0x080u);
    c.insert(0x100, 4, 4, ev);
    EXPECT_EQ(ev.lineAddr, 0x000u);
}

/** Line index -> tag of a TableCache checkpoint's line list. */
std::map<std::uint64_t, sim::Addr>
tableCacheLines(const mem::TableCache &c)
{
    ckpt::StateWriter w;
    ckpt::save(w, c);
    ckpt::StateReader r(w.buffer());
    for (int i = 0; i < 4; ++i)
        r.u32();  // geometry
    for (int i = 0; i < 7; ++i)
        r.u64();  // stamp counter + six stats
    std::map<std::uint64_t, sim::Addr> out;
    const std::uint64_t n = r.u64();
    for (std::uint64_t k = 0; k < n; ++k) {
        const std::uint64_t idx = r.u64();
        out[idx] = r.u64();
        r.b();
        r.u64();
    }
    return out;
}

TEST(Placement, TableCacheFillsFromWayZero)
{
    // 12 entries x 4 ways: 3 sets, indexed (line / 32) % 3.
    mem::TableCache c;
    c.configure(mem::TableCacheSpec{12, 4}, 32, 256);
    std::vector<sim::Addr> wbs;
    for (sim::Addr i = 0; i < 4; ++i)
        c.access(i * 3 * 32, false, wbs);  // set 0
    c.access(32, false, wbs);              // set 1, way 0
    const std::map<std::uint64_t, sim::Addr> want = {
        {0, 0}, {1, 96}, {2, 192}, {3, 288}, {4, 32}};
    EXPECT_EQ(tableCacheLines(c), want);

    // Full set: the LRU line (way 0) is replaced.
    c.access(4 * 3 * 32, false, wbs);
    EXPECT_EQ(tableCacheLines(c).at(0), 384u);
}

/** The base-page TLB entries of core 0 as {index -> vpage}, valid
 *  ones only, from the dense "vm" checkpoint layout. */
std::map<std::uint64_t, std::uint64_t>
tlbEntries(const vm::Vm &v)
{
    ckpt::StateWriter w;
    ckpt::save(w, v);
    ckpt::StateReader r(w.buffer());
    r.u64();  // next frame
    r.u64();  // rng
    r.u32();  // remap cursor
    r.u64();  // remaps
    r.u64();  // accesses at the last tick
    const std::uint64_t pages = r.u64();
    for (std::uint64_t i = 0; i < 3 * pages; ++i)
        r.u64();
    r.u64();  // lruTick
    std::map<std::uint64_t, std::uint64_t> out;
    for (std::uint64_t e = 0; e < 16 * 4; ++e) {
        const bool valid = r.b();
        const std::uint64_t vpage = r.u64();
        r.u64();  // frame
        r.u64();  // stamp
        if (valid)
            out[e] = vpage;
    }
    return out;
}

TEST(Placement, TlbFillsFromWayZero)
{
    sim::EventQueue eq;
    vm::VmSpec spec;
    spec.enabled = true;
    vm::Vm v(eq, spec, 1);
    sim::Cycle when = 0;
    // 16 sets x 4 ways, indexed by vpage & 15.
    for (std::uint64_t i = 0; i < 4; ++i)
        v.translate(0, (i * 16) << 12, when);
    v.translate(0, sim::Addr(1) << 12, when);  // set 1, way 0
    const std::map<std::uint64_t, std::uint64_t> want = {
        {0, 0}, {1, 16}, {2, 32}, {3, 48}, {4, 1}};
    EXPECT_EQ(tlbEntries(v), want);

    // Full set: the LRU entry (way 0, vpage 0) is replaced.
    v.translate(0, sim::Addr(64) << 12, when);
    EXPECT_EQ(tlbEntries(v).at(0), 64u);
}

} // namespace
