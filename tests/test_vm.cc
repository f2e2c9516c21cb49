/**
 * @file
 * Tests for the virtual-memory subsystem (DESIGN.md section 13):
 * page-size parsing, allocate-on-touch translation, TLB hit/miss
 * accounting and eviction, hottest-page remap victim selection,
 * deterministic remap engines, save/restore round-trips, the
 * physical page-cross prefetch drop, and the end-to-end System
 * integration (fingerprint determinism, page-size restore guard,
 * multicore remapping resume).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hh"
#include "ckpt/state.hh"
#include "driver/experiment.hh"
#include "driver/report.hh"
#include "driver/system.hh"
#include "mem/memory_system.hh"
#include "vm/vm.hh"
#include "workloads/workload.hh"

namespace {

// ====================================================================
// Page-size parsing
// ====================================================================

TEST(VmPageSize, ParseAcceptsBothSizesCaseInsensitively)
{
    EXPECT_EQ(vm::parsePageSize("4k"), 4096u);
    EXPECT_EQ(vm::parsePageSize("4K"), 4096u);
    EXPECT_EQ(vm::parsePageSize("4096"), 4096u);
    EXPECT_EQ(vm::parsePageSize("2m"), 2u << 20);
    EXPECT_EQ(vm::parsePageSize("2M"), 2u << 20);
    EXPECT_EQ(vm::parsePageSize("2097152"), 2u << 20);
}

TEST(VmPageSize, ParseRejectsEverythingElse)
{
    EXPECT_THROW(vm::parsePageSize(""), std::invalid_argument);
    EXPECT_THROW(vm::parsePageSize("1g"), std::invalid_argument);
    EXPECT_THROW(vm::parsePageSize("8192"), std::invalid_argument);
}

TEST(VmPageSize, NameRoundTrips)
{
    EXPECT_EQ(vm::pageSizeName(4096u), "4k");
    EXPECT_EQ(vm::pageSizeName(2u << 20), "2m");
}

TEST(VmSpec, OnTracksEveryActivationPath)
{
    vm::VmSpec spec;
    EXPECT_FALSE(spec.on());  // the pre-VM machine
    spec.enabled = true;
    EXPECT_TRUE(spec.on());
    spec = vm::VmSpec{};
    spec.remapRate = 10.0;
    EXPECT_TRUE(spec.on());
    spec = vm::VmSpec{};
    spec.pageBytes = 2u << 20;
    EXPECT_TRUE(spec.on());
}

// ====================================================================
// Translation + TLB
// ====================================================================

struct VmFixture : public ::testing::Test
{
    vm::VmSpec
    spec4k(double rate = 0.0)
    {
        vm::VmSpec s;
        s.enabled = true;
        s.remapRate = rate;
        return s;
    }

    sim::EventQueue eq;
};

TEST_F(VmFixture, TranslateAllocatesOnTouchAndIsStable)
{
    vm::Vm v(eq, spec4k(), 1);
    sim::Cycle when = 0;
    const sim::Addr pa = v.translate(0, 0x1234, when);
    EXPECT_GE(pa, vm::physFrameBase);
    EXPECT_EQ(pa & 0xFFFu, 0x234u);  // page offset preserved

    sim::Cycle when2 = 0;
    EXPECT_EQ(v.translate(0, 0x1234, when2), pa);  // stable mapping
    EXPECT_EQ(v.translate(0, 0x1000, when2), pa - 0x234);

    // A different page gets a different frame.
    const sim::Addr pb = v.translate(0, 0x200000, when2);
    EXPECT_NE(pb >> 12, pa >> 12);
    EXPECT_EQ(v.pagesMapped(0), 2u);
}

TEST_F(VmFixture, CoresGetPrivateAddressSpaces)
{
    vm::Vm v(eq, spec4k(), 2);
    sim::Cycle when = 0;
    const sim::Addr p0 = v.translate(0, 0x4000, when);
    const sim::Addr p1 = v.translate(1, 0x4000, when);
    EXPECT_NE(p0, p1);  // same vaddr, distinct frames
    EXPECT_EQ(p0 & 0xFFFu, p1 & 0xFFFu);
}

TEST_F(VmFixture, TlbMissChargesWalkAndHitIsFree)
{
    vm::Vm v(eq, spec4k(), 1);
    sim::Cycle when = 100;
    v.translate(0, 0x5000, when);
    EXPECT_EQ(when, 100 + vm::pageWalkCycles);
    EXPECT_EQ(v.coreStats(0).tlbMisses, 1u);
    EXPECT_EQ(v.coreStats(0).walkCycles, vm::pageWalkCycles);

    sim::Cycle hit_when = 500;
    v.translate(0, 0x5040, hit_when);  // same page
    EXPECT_EQ(hit_when, 500u);  // hit runs in parallel with L1 index
    EXPECT_EQ(v.coreStats(0).tlbHits, 1u);
    EXPECT_EQ(v.coreStats(0).accesses, 2u);
}

TEST_F(VmFixture, TlbEvictsLruWithinASet)
{
    vm::Vm v(eq, spec4k(), 1);
    sim::Cycle when = 0;
    // The 4 KB class has 16 sets x 4 ways; vpages 0,16,32,48,64 all
    // index set 0, so the fifth fill evicts the LRU entry (vpage 0).
    for (std::uint64_t vpage : {0u, 16u, 32u, 48u, 64u})
        v.translate(0, sim::Addr(vpage) << 12, when);
    EXPECT_EQ(v.coreStats(0).tlbMisses, 5u);

    v.translate(0, 0x0, when);  // vpage 0 was evicted
    EXPECT_EQ(v.coreStats(0).tlbMisses, 6u);
    v.translate(0, sim::Addr(64) << 12, when);  // MRU still resident
    EXPECT_EQ(v.coreStats(0).tlbHits, 1u);
}

// ====================================================================
// Remap engine
// ====================================================================

struct RemapLog
{
    std::vector<sim::Addr> oldPages, newPages;
    std::vector<std::uint32_t> pageBytes;
};

TEST_F(VmFixture, RemapMigratesTheHottestPage)
{
    vm::Vm v(eq, spec4k(/*rate=*/100.0), 1);
    RemapLog log;
    v.setRemapCallback(
        [&](sim::Addr o, sim::Addr n, std::uint32_t pb) {
            log.oldPages.push_back(o);
            log.newPages.push_back(n);
            log.pageBytes.push_back(pb);
        });

    // Touch counters advance on page walks.  vpage 3 walks once;
    // vpage 16 walks twice (pushed out of set 0 by vpages 32..80,
    // then re-walked), so it is the hottest page even though map
    // order would visit vpage 3 first.
    sim::Cycle when = 0;
    v.translate(0, sim::Addr(3) << 12, when);
    const sim::Addr hot = v.translate(0, sim::Addr(16) << 12, when);
    for (std::uint64_t vpage : {32u, 48u, 64u, 80u})
        v.translate(0, sim::Addr(vpage) << 12, when);
    v.translate(0, sim::Addr(16) << 12, when);  // second walk

    // One remap, no event-queue run needed.
    v.fire(sim::EventKind::VmRemap, 0, 0);
    ASSERT_EQ(log.oldPages.size(), 1u);
    EXPECT_EQ(log.oldPages[0], hot >> 12);  // page numbers, not bytes
    EXPECT_EQ(log.pageBytes[0], 4096u);
    EXPECT_EQ(v.remaps(), 1u);
    EXPECT_EQ(v.coreStats(0).remaps, 1u);

    // The page moved: a re-touch misses the (invalidated) TLB and
    // lands in the new frame.
    sim::Cycle when2 = 0;
    const sim::Addr moved = v.translate(0, sim::Addr(16) << 12, when2);
    EXPECT_EQ(moved >> 12, log.newPages[0]);
    EXPECT_NE(moved, hot);
    EXPECT_EQ(when2, sim::Cycle(vm::pageWalkCycles));
}

TEST_F(VmFixture, RemapEnginesAreDeterministic)
{
    RemapLog logs[2];
    for (int i = 0; i < 2; ++i) {
        sim::EventQueue q;
        vm::Vm v(q, spec4k(/*rate=*/100.0), 2);
        v.setRemapCallback(
            [&, i](sim::Addr o, sim::Addr n, std::uint32_t) {
                logs[i].oldPages.push_back(o);
                logs[i].newPages.push_back(n);
            });
        sim::Cycle when = 0;
        for (unsigned core = 0; core < 2; ++core)
            for (sim::Addr a = 0; a < 0x8000; a += 0x1000)
                v.translate(core, a, when);
        for (int r = 0; r < 8; ++r) {
            // A tick only migrates when the machine translated since
            // the previous one, so keep every tick active.
            v.translate(static_cast<unsigned>(r % 2),
                        sim::Addr(r % 8) * 0x1000, when);
            v.fire(sim::EventKind::VmRemap, 0, 0);
        }
    }
    EXPECT_EQ(logs[0].oldPages.size(), 8u);
    EXPECT_EQ(logs[0].oldPages, logs[1].oldPages);
    EXPECT_EQ(logs[0].newPages, logs[1].newPages);
}

// ====================================================================
// Save / restore
// ====================================================================

TEST_F(VmFixture, SaveRestoreRoundTripsBitIdentically)
{
    vm::Vm v(eq, spec4k(/*rate=*/100.0), 2);
    sim::Cycle when = 0;
    for (unsigned core = 0; core < 2; ++core)
        for (sim::Addr a = 0; a < 0x6000; a += 0x800)
            v.translate(core, a, when);
    v.fire(sim::EventKind::VmRemap, 0, 0);

    ckpt::StateWriter w;
    ckpt::save(w, v);

    sim::EventQueue eq2;
    vm::Vm v2(eq2, spec4k(/*rate=*/100.0), 2);
    ckpt::StateReader r(w.buffer());
    ckpt::restore(r, v2);
    r.finish();

    ckpt::StateWriter w2;
    ckpt::save(w2, v2);
    EXPECT_EQ(w.buffer(), w2.buffer());

    // The restored machine translates identically.
    sim::Cycle wa = 0, wb = 0;
    EXPECT_EQ(v.translate(0, 0x123, wa), v2.translate(0, 0x123, wb));
    EXPECT_EQ(wa, wb);
}

TEST_F(VmFixture, SectionSummaryDescribesTheShape)
{
    vm::Vm v(eq, spec4k(), 1);
    sim::Cycle when = 0;
    v.translate(0, 0x0, when);
    v.translate(0, 0x1000, when);

    ckpt::StateWriter w;
    ckpt::save(w, v);
    const std::string s = vm::sectionSummary(w.buffer(), 1, 4096);
    EXPECT_NE(s.find("4k pages"), std::string::npos);
    EXPECT_NE(s.find("pages/core 2"), std::string::npos);
}

// ====================================================================
// Physical page-cross prefetch drop
// ====================================================================

TEST(VmPageCross, ControllerDropsCrossPagePushes)
{
    sim::EventQueue eq;
    mem::TimingParams tp;
    mem::MemorySystem ms(eq, tp);
    ms.setPageShift(12);

    // Same page as the trigger: issued.
    EXPECT_TRUE(ms.ulmtPrefetch(1, 0x1040, 0, 0, 0, /*trigger=*/0x1000));
    EXPECT_EQ(ms.stats().ulmtPrefetchesIssued, 1u);

    // Different page: dropped and counted.
    EXPECT_FALSE(ms.ulmtPrefetch(2, 0x2040, 0, 0, 0, /*trigger=*/0x1000));
    EXPECT_EQ(ms.stats().ulmtPrefetchesDroppedPageCross, 1u);

    // No trigger (the hardware-correlation baseline): the rule is
    // skipped even with the VM layer on.
    EXPECT_TRUE(ms.ulmtPrefetch(3, 0x3040));
    EXPECT_EQ(ms.stats().ulmtPrefetchesDroppedPageCross, 1u);
}

TEST(VmPageCross, RuleIsOffWithoutTheVmLayer)
{
    sim::EventQueue eq;
    mem::TimingParams tp;
    mem::MemorySystem ms(eq, tp);
    EXPECT_TRUE(ms.ulmtPrefetch(1, 0x2040, 0, 0, 0, /*trigger=*/0x1000));
    EXPECT_EQ(ms.stats().ulmtPrefetchesDroppedPageCross, 0u);
}

// ====================================================================
// End-to-end System integration
// ====================================================================

driver::SystemConfig
vmConfig(double remap_rate, std::uint32_t page_bytes)
{
    driver::ExperimentOptions opt;
    opt.scale = 0.002;
    driver::SystemConfig cfg =
        driver::ulmtConfig(opt, core::UlmtAlgo::Repl, "MST");
    cfg.ulmt.numRows = 4096;
    cfg.metricsInterval = 0;
    cfg.vm.enabled = true;
    cfg.vm.remapRate = remap_rate;
    cfg.vm.pageBytes = page_bytes;
    return cfg;
}

driver::RunResult
runMst(const driver::SystemConfig &cfg)
{
    workloads::WorkloadParams wp;
    wp.scale = 0.002;
    auto wl = workloads::makeWorkload("MST", wp);
    driver::System sys(cfg, *wl);
    return sys.run();
}

TEST(VmEndToEnd, TranslationRunsAndReportsStats)
{
    const driver::RunResult r = runMst(vmConfig(0.0, 4096));
    const sim::StatSnapshot &s = r.stats;
    EXPECT_TRUE(r.config.vm.on());
    EXPECT_EQ(r.config.vm.pageBytes, 4096u);
    EXPECT_EQ(s.counter("vm.remaps"), 0u);  // rate 0: translation only
    EXPECT_GT(s.counter("vm.core.0.tlb.hits") +
                  s.counter("vm.core.0.tlb.misses"),
              0u);
    EXPECT_GT(s.value("vm.core.0.pages"), 0.0);
}

TEST(VmEndToEnd, RemapsFireAndAreDeterministic)
{
    const driver::RunResult a = runMst(vmConfig(500.0, 4096));
    const driver::RunResult b = runMst(vmConfig(500.0, 4096));
    EXPECT_GT(a.stats.counter("vm.remaps"), 0u);
    EXPECT_EQ(driver::resultFingerprint(a),
              driver::resultFingerprint(b));
}

TEST(VmEndToEnd, HugePagesMapFewerPages)
{
    const driver::RunResult small = runMst(vmConfig(0.0, 4096));
    const driver::RunResult huge = runMst(vmConfig(0.0, 2u << 20));
    EXPECT_GT(huge.stats.value("vm.core.0.pages"), 0.0);
    EXPECT_LT(huge.stats.value("vm.core.0.pages"),
              small.stats.value("vm.core.0.pages"));
}

TEST(VmEndToEnd, VmOffRegistersNoVmStats)
{
    workloads::WorkloadParams wp;
    wp.scale = 0.001;
    auto wl = workloads::makeWorkload("MST", wp);
    driver::SystemConfig cfg;
    cfg.metricsInterval = 0;
    driver::System sys(cfg, *wl);
    EXPECT_FALSE(sys.run().stats.has("vm.remaps"));
    EXPECT_FALSE(sys.statRegistry().has("vm.remaps"));
}

TEST(VmEndToEnd, RestoreRejectsPageSizeMismatchBeforeFingerprint)
{
    const std::string path = "test_vm_pagesize.ulmtckp";
    driver::SystemConfig cfg = vmConfig(0.0, 4096);
    {
        workloads::WorkloadParams wp;
        wp.scale = 0.002;
        auto wl = workloads::makeWorkload("MST", wp);
        driver::System sys(cfg, *wl);
        sys.setCheckpointMeta("MST", wp.seed, wp.scale);
        sys.setCheckpointTrigger("200", path);
        const driver::RunResult r = sys.run();
        ASSERT_GT(r.stats.value("ckpt.snapshot_bytes"), 0.0);
    }

    // Same machine except for the page size: the shape check must
    // fire first, naming the sizes, not the opaque fingerprint.
    driver::SystemConfig cfg2m = vmConfig(0.0, 2u << 20);
    workloads::WorkloadParams wp;
    wp.scale = 0.002;
    auto wl = workloads::makeWorkload("MST", wp);
    driver::System sys(cfg2m, *wl);
    try {
        sys.restoreCheckpoint(path);
        FAIL() << "page-size mismatch restored";
    } catch (const ckpt::CkptError &e) {
        EXPECT_NE(std::string(e.what()).find("page"),
                  std::string::npos)
            << e.what();
    }
    std::remove(path.c_str());
}

TEST(VmEndToEnd, CheckpointRestoreResumesBitIdentically)
{
    const std::string path = "test_vm_resume.ulmtckp";
    driver::SystemConfig cfg = vmConfig(500.0, 4096);
    workloads::WorkloadParams wp;
    wp.scale = 0.002;

    driver::RunResult full;
    {
        auto wl = workloads::makeWorkload("MST", wp);
        driver::System sys(cfg, *wl);
        sys.setCheckpointMeta("MST", wp.seed, wp.scale);
        sys.setCheckpointTrigger("500", path);
        full = sys.run();
        ASSERT_GT(full.stats.value("ckpt.snapshot_bytes"), 0.0);
    }
    ASSERT_GT(full.stats.counter("vm.remaps"), 0u);

    auto wl = workloads::makeWorkload("MST", wp);
    driver::System sys(cfg, *wl);
    sys.restoreCheckpoint(path);
    const driver::RunResult resumed = sys.run();
    EXPECT_EQ(driver::resultFingerprint(full),
              driver::resultFingerprint(resumed));
    std::remove(path.c_str());
}

TEST(VmEndToEnd, MulticoreRemapRunResumesBitIdentically)
{
    // Core i's trace sits at i * 2^40; the physical frames must start
    // above every core's slice or translation collides with them.
    const std::string path = "test_vm_multicore.ulmtckp";
    driver::SystemConfig cfg = vmConfig(500.0, 4096);
    cfg.cores = 2;
    const std::uint64_t seed = workloads::WorkloadParams{}.seed;
    const auto build = [&] {
        return std::make_unique<driver::System>(
            cfg, driver::makeCoreWorkloads("MST", seed, 0.002, 2),
            "MST");
    };

    driver::RunResult full;
    {
        auto sys = build();
        sys->setCheckpointMeta("MST", seed, 0.002);
        sys->setCheckpointTrigger("500", path);
        full = sys->run();
        ASSERT_GT(full.stats.value("ckpt.snapshot_bytes"), 0.0);
        for (unsigned c = 0; c < 2; ++c)
            EXPECT_GT(sys->vm()->coreStats(c).accesses, 0u) << c;
    }
    EXPECT_GT(full.stats.counter("vm.remaps"), 0u);

    auto sys = build();
    sys->restoreCheckpoint(path);
    const driver::RunResult resumed = sys->run();
    EXPECT_EQ(driver::resultFingerprint(full),
              driver::resultFingerprint(resumed));
    std::remove(path.c_str());
}

} // namespace
