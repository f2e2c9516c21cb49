/**
 * @file
 * Tests for the nine application kernels: determinism, replayability,
 * footprints relative to the L2, dependence structure, and Table 2
 * metadata.
 */

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <vector>

#include "workloads/workload.hh"

namespace {

workloads::WorkloadParams
smallParams(std::uint64_t seed = 42)
{
    workloads::WorkloadParams p;
    p.seed = seed;
    p.scale = 0.05;
    return p;
}

class EveryApp : public ::testing::TestWithParam<std::string>
{
};

TEST_P(EveryApp, ProducesANonTrivialTrace)
{
    auto wl = workloads::makeWorkload(GetParam(), smallParams());
    EXPECT_GT(wl->traceLength(), 1000u);
    cpu::TraceRecord rec;
    std::size_t refs = 0;
    std::size_t n = 0;
    while (wl->next(rec)) {
        ++n;
        if (rec.hasRef())
            ++refs;
    }
    EXPECT_EQ(n, wl->traceLength());
    EXPECT_GT(refs, n / 4);  // memory-intensive
}

TEST_P(EveryApp, DeterministicForSameSeed)
{
    auto a = workloads::makeWorkload(GetParam(), smallParams(7));
    auto b = workloads::makeWorkload(GetParam(), smallParams(7));
    cpu::TraceRecord ra, rb;
    while (true) {
        const bool ha = a->next(ra);
        const bool hb = b->next(rb);
        ASSERT_EQ(ha, hb);
        if (!ha)
            break;
        ASSERT_EQ(ra.addr, rb.addr);
        ASSERT_EQ(ra.computeOps, rb.computeOps);
        ASSERT_EQ(ra.isWrite, rb.isWrite);
        ASSERT_EQ(ra.dependsOnPrev, rb.dependsOnPrev);
    }
}

TEST_P(EveryApp, DifferentSeedsDiffer)
{
    auto a = workloads::makeWorkload(GetParam(), smallParams(7));
    auto b = workloads::makeWorkload(GetParam(), smallParams(8));
    cpu::TraceRecord ra, rb;
    bool any_diff = false;
    for (int i = 0; i < 5000; ++i) {
        if (!a->next(ra) || !b->next(rb))
            break;
        if (ra.addr != rb.addr) {
            any_diff = true;
            break;
        }
    }
    // FT is fully deterministic (no random structure); all others
    // must depend on the seed.
    if (GetParam() != "FT") {
        EXPECT_TRUE(any_diff);
    }
}

TEST_P(EveryApp, ResetReplaysIdentically)
{
    auto wl = workloads::makeWorkload(GetParam(), smallParams());
    cpu::TraceRecord rec;
    std::vector<sim::Addr> first;
    for (int i = 0; i < 1000 && wl->next(rec); ++i)
        first.push_back(rec.addr);
    wl->reset();
    for (std::size_t i = 0; i < first.size(); ++i) {
        ASSERT_TRUE(wl->next(rec));
        ASSERT_EQ(rec.addr, first[i]);
    }
}

/** FNV-1a over every field of every record, little-endian. */
class TraceDigest
{
  public:
    void
    add(const cpu::TraceRecord &rec)
    {
        mix(rec.addr, 8);
        mix(rec.computeOps, 4);
        mix(rec.isWrite, 1);
        mix(rec.dependsOnPrev, 1);
    }

    std::uint64_t value() const { return h_; }

  private:
    void
    mix(std::uint64_t v, int bytes)
    {
        for (int i = 0; i < bytes; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ull;
        }
    }

    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

struct PinnedTrace
{
    std::size_t records;
    std::size_t footprint;
    std::uint64_t digest;
};

TEST_P(EveryApp, TraceMatchesItsPinnedDigest)
{
    // Seed 42, scale 0.5: every trace spans at least two full storage
    // chunks.  A change to a kernel or to trace storage that moves a
    // single field of a single record fails here.
    static const std::map<std::string, PinnedTrace> pinned = {
        {"CG", {995328, 1671232, 0xa30c2187a5ccccc8ull}},
        {"Equake", {763392, 2007040, 0x77cf1e343cdf83e3ull}},
        {"FT", {768208, 878560, 0x979ba02f96f60795ull}},
        {"Gap", {864500, 5979648, 0xa475564d7a1220d0ull}},
        {"Mcf", {684000, 960000, 0xbae8c0fc2ec88e12ull}},
        {"MST", {173433, 8388608, 0x10ec132c962ebaebull}},
        {"Parser", {406547, 2555904, 0x64462c2f141cf614ull}},
        {"Sparse", {1515520, 3735552, 0x17c7bde37d744b89ull}},
        {"Tree", {2016363, 653568, 0xb5fc9d7afff796b2ull}},
    };
    workloads::WorkloadParams p = smallParams(42);
    p.scale = 0.5;
    auto wl = workloads::makeWorkload(GetParam(), p);
    const PinnedTrace &want = pinned.at(GetParam());
    ASSERT_GE(want.records, 2 * workloads::traceChunkRecords);

    TraceDigest digest;
    std::size_t n = 0;
    cpu::TraceRecord rec;
    while (wl->next(rec)) {
        digest.add(rec);
        ++n;
    }
    EXPECT_EQ(n, want.records);
    EXPECT_EQ(wl->traceLength(), want.records);
    EXPECT_EQ(wl->footprintBytes(), want.footprint);
    EXPECT_EQ(digest.value(), want.digest)
        << std::hex << "got 0x" << digest.value();
}

TEST_P(EveryApp, FullScaleFootprintExceedsL2)
{
    workloads::WorkloadParams p;
    p.scale = 1.0;
    auto wl = workloads::makeWorkload(GetParam(), p);
    EXPECT_GT(wl->footprintBytes(), 512u * 1024u)
        << GetParam() << " must not fit in the 512 KB L2";
}

TEST_P(EveryApp, Table2NumRowsDefined)
{
    const std::uint32_t rows = workloads::tableNumRows(GetParam());
    EXPECT_GE(rows, 8u * 1024u);
    EXPECT_LE(rows, 256u * 1024u);
}

INSTANTIATE_TEST_SUITE_P(
    Apps, EveryApp,
    ::testing::ValuesIn(workloads::applicationNames()),
    [](const auto &info) { return info.param; });

TEST(Workloads, NineApplications)
{
    EXPECT_EQ(workloads::applicationNames().size(), 9u);
}

TEST(Workloads, PointerChasersMarkDependences)
{
    for (const char *app_name : {"Mcf", "MST", "Tree"}) {
        const std::string app(app_name);
        auto wl = workloads::makeWorkload(app, smallParams());
        cpu::TraceRecord rec;
        std::size_t deps = 0, refs = 0;
        while (wl->next(rec)) {
            if (rec.hasRef()) {
                ++refs;
                if (rec.dependsOnPrev)
                    ++deps;
            }
        }
        EXPECT_GT(static_cast<double>(deps) /
                      static_cast<double>(refs),
                  0.5)
            << app << " should be dominated by dependent references";
    }
}

TEST(Workloads, StreamingAppsAreMostlyIndependent)
{
    for (const char *app_name : {"CG", "FT", "Sparse"}) {
        const std::string app(app_name);
        auto wl = workloads::makeWorkload(app, smallParams());
        cpu::TraceRecord rec;
        std::size_t deps = 0, refs = 0;
        while (wl->next(rec)) {
            if (rec.hasRef()) {
                ++refs;
                if (rec.dependsOnPrev)
                    ++deps;
            }
        }
        EXPECT_LT(static_cast<double>(deps) /
                      static_cast<double>(refs),
                  0.1)
            << app;
    }
}

TEST(Workloads, ResetAfterCrossingAChunkBoundaryReplays)
{
    workloads::WorkloadParams p = smallParams();
    p.scale = 0.1;
    auto wl = workloads::makeWorkload("Tree", p);
    const std::size_t chunk = workloads::traceChunkRecords;
    ASSERT_GT(wl->traceLength(), 2 * chunk);

    // Read a little past the first boundary, rewind, and replay.
    cpu::TraceRecord rec;
    std::vector<cpu::TraceRecord> first;
    while (first.size() < chunk + 100 && wl->next(rec))
        first.push_back(rec);
    ASSERT_EQ(first.size(), chunk + 100);
    wl->reset();
    for (std::size_t i = 0; i < first.size(); ++i) {
        ASSERT_TRUE(wl->next(rec)) << i;
        ASSERT_EQ(rec.addr, first[i].addr) << i;
        ASSERT_EQ(rec.computeOps, first[i].computeOps) << i;
        ASSERT_EQ(rec.isWrite, first[i].isWrite) << i;
        ASSERT_EQ(rec.dependsOnPrev, first[i].dependsOnPrev) << i;
    }

    // The rest of the trace follows on; the end stays the end.
    std::size_t n = first.size();
    while (wl->next(rec))
        ++n;
    EXPECT_EQ(n, wl->traceLength());
    EXPECT_FALSE(wl->next(rec));

    // A full pass after a reset at the end reads the same count.
    wl->reset();
    n = 0;
    while (wl->next(rec))
        ++n;
    EXPECT_EQ(n, wl->traceLength());
}

TEST(Workloads, ScaleShrinksTheTrace)
{
    workloads::WorkloadParams small = smallParams();
    workloads::WorkloadParams tiny = smallParams();
    tiny.scale = 0.02;
    for (const std::string &app : workloads::applicationNames()) {
        auto a = workloads::makeWorkload(app, small);
        auto b = workloads::makeWorkload(app, tiny);
        EXPECT_GE(a->traceLength(), b->traceLength()) << app;
    }
}

TEST(Workloads, UnknownNameThrowsListingValidNames)
{
    try {
        workloads::makeWorkload("NoSuchApp", smallParams());
        FAIL() << "unknown workload accepted";
    } catch (const std::invalid_argument &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("NoSuchApp"), std::string::npos) << what;
        // The message must list every valid name and the trace scheme.
        for (const std::string &app : workloads::applicationNames())
            EXPECT_NE(what.find(app), std::string::npos) << what;
        EXPECT_NE(what.find("trace:<path>"), std::string::npos)
            << what;
    }
}

TEST(Workloads, MalformedTraceSchemeThrows)
{
    // Empty path after the scheme: a usage error, not a file error.
    EXPECT_THROW(workloads::makeWorkload("trace:", smallParams()),
                 std::invalid_argument);
}

TEST(Workloads, MissingTraceFileThrowsWithDiagnostic)
{
    try {
        workloads::makeWorkload("trace:/no/such/file.ulmttrace",
                                smallParams());
        FAIL() << "missing trace file accepted";
    } catch (const std::invalid_argument &e) {
        // The diagnostic names both the path and the workload string
        // the caller passed.
        EXPECT_NE(std::string(e.what()).find("/no/such/file"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what())
                      .find("trace:/no/such/file.ulmttrace"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Workloads, UnknownTableRowsAppThrows)
{
    EXPECT_THROW(workloads::tableNumRows("NoSuchApp"),
                 std::invalid_argument);
}

} // namespace
