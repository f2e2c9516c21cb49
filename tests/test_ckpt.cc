/**
 * @file
 * Tests for the checkpoint/restore subsystem: StateWriter/StateReader
 * and container round-trips, loud rejection of truncated/corrupted
 * snapshots, the MRU-sensitive table restores (PairTable eviction
 * ordering, Replicated trailing pointers), and the headline
 * determinism guarantee -- checkpoint -> restore -> continue produces
 * a result fingerprint bit-identical to the uninterrupted run, for
 * Base/Chain/Repl, serially and under the parallel runner, both for
 * freshly written snapshots and for the committed golden corpus
 * (which guards against on-disk format drift).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "check/check.hh"
#include "ckpt/checkpoint.hh"
#include "ckpt/state.hh"
#include "core/factory.hh"
#include "core/pair_table.hh"
#include "core/seq_prefetcher.hh"
#include "cpu/stream_prefetcher.hh"
#include "driver/experiment.hh"
#include "driver/report.hh"
#include "driver/runner.hh"

namespace {

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

/** Flip one byte of a file (XOR, so applying twice restores it). */
void
corruptByte(const std::string &path, long offset_from_start)
{
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, offset_from_start, SEEK_SET), 0);
    const int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, offset_from_start, SEEK_SET), 0);
    std::fputc(c ^ 0x5A, f);
    std::fclose(f);
}

long
fileSize(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fclose(f);
    return size;
}

void
truncateTo(const std::string &path, long bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::vector<char> data(static_cast<std::size_t>(bytes));
    // An empty vector's data() may be null, which fread/fwrite must
    // not be given even for a zero count.
    if (!data.empty()) {
        ASSERT_EQ(std::fread(data.data(), 1, data.size(), f),
                  data.size());
    }
    std::fclose(f);
    f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    if (!data.empty()) {
        ASSERT_EQ(std::fwrite(data.data(), 1, data.size(), f),
                  data.size());
    }
    std::fclose(f);
}

TEST(StateStream, ScalarsAndStringsRoundTrip)
{
    ckpt::StateWriter w;
    w.u8(0);
    w.u8(255);
    w.b(true);
    w.b(false);
    w.u32(0);
    w.u32(127);            // 1-byte varint boundary
    w.u32(128);            // 2-byte varint boundary
    w.u32(0xFFFFFFFFu);
    w.u64(0);
    w.u64(0x7FFFFFFFFFFFFFFFULL);
    w.u64(0xFFFFFFFFFFFFFFFFULL);
    w.i64(0);
    w.i64(-1);
    w.i64(std::numeric_limits<std::int64_t>::min());
    w.i64(std::numeric_limits<std::int64_t>::max());
    w.f64(0.0);
    w.f64(-0.0);
    w.f64(1.0 / 3.0);
    w.f64(std::numeric_limits<double>::infinity());
    w.str("");
    w.str("hello checkpoint");

    ckpt::StateReader r(w.buffer());
    EXPECT_EQ(r.u8(), 0u);
    EXPECT_EQ(r.u8(), 255u);
    EXPECT_TRUE(r.b());
    EXPECT_FALSE(r.b());
    EXPECT_EQ(r.u32(), 0u);
    EXPECT_EQ(r.u32(), 127u);
    EXPECT_EQ(r.u32(), 128u);
    EXPECT_EQ(r.u32(), 0xFFFFFFFFu);
    EXPECT_EQ(r.u64(), 0u);
    EXPECT_EQ(r.u64(), 0x7FFFFFFFFFFFFFFFULL);
    EXPECT_EQ(r.u64(), 0xFFFFFFFFFFFFFFFFULL);
    EXPECT_EQ(r.i64(), 0);
    EXPECT_EQ(r.i64(), -1);
    EXPECT_EQ(r.i64(), std::numeric_limits<std::int64_t>::min());
    EXPECT_EQ(r.i64(), std::numeric_limits<std::int64_t>::max());
    EXPECT_EQ(r.f64(), 0.0);
    {
        // -0.0 must round-trip as the exact bit pattern, not just
        // compare equal to 0.0.
        const double nz = r.f64();
        std::uint64_t bits;
        std::memcpy(&bits, &nz, sizeof(bits));
        EXPECT_EQ(bits, 0x8000000000000000ULL);
    }
    EXPECT_EQ(r.f64(), 1.0 / 3.0);
    EXPECT_EQ(r.f64(), std::numeric_limits<double>::infinity());
    EXPECT_EQ(r.str(), "");
    EXPECT_EQ(r.str(), "hello checkpoint");
    EXPECT_EQ(r.remaining(), 0u);
    EXPECT_NO_THROW(r.finish());
}

TEST(StateStream, TrailingBytesFailFinish)
{
    ckpt::StateWriter w;
    w.u64(1);
    w.u64(2);
    ckpt::StateReader r(w.buffer());
    r.u64();
    EXPECT_THROW(r.finish(), ckpt::CkptError);
}

TEST(StateStream, TruncatedReadsThrow)
{
    ckpt::StateWriter w;
    w.u64(1u << 20);  // multi-byte varint
    w.str("abcdef");
    const std::string &buf = w.buffer();

    // Any prefix of the payload must throw, never decode silently.
    for (std::size_t len = 0; len < buf.size(); ++len) {
        ckpt::StateReader r(buf.data(), len);
        EXPECT_THROW(
            {
                r.u64();
                r.str();
            },
            ckpt::CkptError)
            << "prefix length " << len;
    }
}

TEST(StateStream, CorruptBoolRejected)
{
    ckpt::StateWriter w;
    w.u8(2);  // not a valid bool encoding
    ckpt::StateReader r(w.buffer());
    EXPECT_THROW(r.b(), ckpt::CkptError);
}

TEST(ImageRoundTrip, HeaderAndSectionsPreserved)
{
    const std::string path = tmpPath("image.ulmtckp");
    ckpt::CheckpointImage img;
    img.header.configFingerprint = 0xFEEDFACECAFEBEEFULL;
    img.header.seed = 0xA11CE;
    img.header.scale = 0.125;
    img.header.cycle = 1234567;
    img.header.misses = 4242;
    img.header.workload = "MST";
    img.header.label = "Repl";
    img.addSection("alpha", std::string("\x00\x01\x02", 3));
    img.addSection("beta", "");
    img.addSection("gamma", std::string(100000, 'x'));
    const std::uint64_t bytes = img.writeFile(path);
    EXPECT_EQ(bytes, static_cast<std::uint64_t>(fileSize(path)));

    const ckpt::CheckpointImage back =
        ckpt::CheckpointImage::readFile(path);
    EXPECT_EQ(back.header.version, ckpt::formatVersion);
    EXPECT_EQ(back.header.configFingerprint, 0xFEEDFACECAFEBEEFULL);
    EXPECT_EQ(back.header.seed, 0xA11CEu);
    EXPECT_DOUBLE_EQ(back.header.scale, 0.125);
    EXPECT_EQ(back.header.cycle, 1234567u);
    EXPECT_EQ(back.header.misses, 4242u);
    EXPECT_EQ(back.header.workload, "MST");
    EXPECT_EQ(back.header.label, "Repl");
    ASSERT_EQ(back.sections().size(), 3u);
    EXPECT_EQ(back.sections()[0].first, "alpha");
    EXPECT_EQ(back.section("alpha"), std::string("\x00\x01\x02", 3));
    EXPECT_EQ(back.section("beta"), "");
    EXPECT_EQ(back.section("gamma").size(), 100000u);
    EXPECT_EQ(back.findSection("delta"), nullptr);
    EXPECT_THROW(back.section("delta"), ckpt::CkptError);

    const ckpt::CkptHeader h = ckpt::CheckpointImage::readHeader(path);
    EXPECT_EQ(h.workload, "MST");
    EXPECT_EQ(h.misses, 4242u);
}

TEST(ImageRoundTrip, EmptyImage)
{
    const std::string path = tmpPath("empty.ulmtckp");
    ckpt::CheckpointImage img;
    img.writeFile(path);
    const ckpt::CheckpointImage back =
        ckpt::CheckpointImage::readFile(path);
    EXPECT_EQ(back.sections().size(), 0u);
    EXPECT_EQ(back.payloadBytes(), 0u);
}

TEST(ImageRoundTrip, DuplicateSectionRejected)
{
    ckpt::CheckpointImage img;
    img.addSection("events", "x");
    EXPECT_THROW(img.addSection("events", "y"), ckpt::CkptError);
    EXPECT_THROW(img.addSection("", "y"), ckpt::CkptError);
}

/** A real MST snapshot shared by the corruption tests. */
class CkptCorruption : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Unique per test: ctest runs the fixture's tests as
        // concurrent processes sharing one temp directory.
        path_ = tmpPath(std::string("victim_") +
                        ::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name() +
                        ".ulmtckp");
        driver::ExperimentOptions opt;
        opt.scale = 0.01;
        cfg_ = driver::ulmtConfig(opt, core::UlmtAlgo::Repl, "MST");
        workloads::WorkloadParams wp;
        wp.seed = opt.seed;
        wp.scale = opt.scale;
        auto wl = workloads::makeWorkload("MST", wp);
        driver::System sys(cfg_, *wl);
        sys.setCheckpointMeta("MST", opt.seed, opt.scale);
        sys.setCheckpointTrigger("200", path_);
        const driver::RunResult r = sys.run();
        ASSERT_GT(r.stats.value("ckpt.snapshot_bytes"), 0.0)
            << "trigger never fired";
    }

    std::string path_;
    driver::SystemConfig cfg_;
};

TEST_F(CkptCorruption, MissingFileRejected)
{
    EXPECT_THROW(ckpt::CheckpointImage::readFile("/nonexistent/x.ckp"),
                 ckpt::CkptError);
}

TEST_F(CkptCorruption, BadMagicRejected)
{
    corruptByte(path_, 0);
    EXPECT_THROW(ckpt::CheckpointImage::readFile(path_),
                 ckpt::CkptError);
}

TEST_F(CkptCorruption, UnsupportedVersionRejected)
{
    corruptByte(path_, 8);  // version field
    try {
        ckpt::CheckpointImage::readFile(path_);
        FAIL() << "corrupt version accepted";
    } catch (const ckpt::CkptError &e) {
        EXPECT_NE(std::string(e.what()).find("version"),
                  std::string::npos);
    }
}

TEST_F(CkptCorruption, TruncationSweepAlwaysRejected)
{
    // Every truncation point -- mid-header, mid-section, mid-payload,
    // mid-trailer -- must throw a CkptError naming the file.
    const long size = fileSize(path_);
    const std::string pristine = path_;
    for (long keep = 0; keep < size; keep += 509) {
        truncateTo(path_, keep);
        try {
            ckpt::CheckpointImage::readFile(path_);
            FAIL() << "truncated checkpoint (" << keep
                   << " bytes) accepted";
        } catch (const ckpt::CkptError &e) {
            EXPECT_NE(std::string(e.what()).find(path_),
                      std::string::npos)
                << "diagnostic must name the file: " << e.what();
        }
        SetUp();  // rewrite the victim for the next iteration
    }
}

TEST_F(CkptCorruption, FlipSweepNeverASilentPayloadChange)
{
    // Whatever single byte is flipped, loading must either throw or
    // (for flips in unchecksummed container fields, e.g. reserved
    // words or informational header fields) decode every section
    // payload bit-identically.  A silent payload change would restore
    // corrupt simulator state.
    const ckpt::CheckpointImage pristine =
        ckpt::CheckpointImage::readFile(path_);
    const long size = fileSize(path_);
    for (long off = 0; off < size; off += 331) {
        corruptByte(path_, off);
        bool threw = false;
        try {
            const ckpt::CheckpointImage img =
                ckpt::CheckpointImage::readFile(path_);
            ASSERT_EQ(img.sections().size(),
                      pristine.sections().size())
                << "offset " << off;
            for (std::size_t i = 0; i < img.sections().size(); ++i) {
                EXPECT_EQ(img.sections()[i].second,
                          pristine.sections()[i].second)
                    << "silent payload change at offset " << off;
            }
        } catch (const ckpt::CkptError &) {
            threw = true;
        }
        corruptByte(path_, off);  // restore
        (void)threw;
    }
}

TEST_F(CkptCorruption, RestoreOfCorruptedSnapshotRejected)
{
    corruptByte(path_, fileSize(path_) / 2);
    workloads::WorkloadParams wp;
    wp.scale = 0.01;
    auto wl = workloads::makeWorkload("MST", wp);
    driver::System sys(cfg_, *wl);
    sys.setCheckpointMeta("MST", wp.seed, wp.scale);
    EXPECT_THROW(sys.restoreCheckpoint(path_), ckpt::CkptError);
}

TEST_F(CkptCorruption, MismatchedConfigRejected)
{
    driver::ExperimentOptions opt;
    opt.scale = 0.01;
    const driver::SystemConfig other =
        driver::ulmtConfig(opt, core::UlmtAlgo::Chain, "MST");
    workloads::WorkloadParams wp;
    wp.scale = opt.scale;
    auto wl = workloads::makeWorkload("MST", wp);
    driver::System sys(other, *wl);
    sys.setCheckpointMeta("MST", wp.seed, wp.scale);
    try {
        sys.restoreCheckpoint(path_);
        FAIL() << "checkpoint restored under a different config";
    } catch (const ckpt::CkptError &e) {
        EXPECT_NE(std::string(e.what()).find("configuration"),
                  std::string::npos)
            << e.what();
    }
}

TEST_F(CkptCorruption, MismatchedWorkloadRejected)
{
    workloads::WorkloadParams wp;
    wp.scale = 0.01;
    auto wl = workloads::makeWorkload("Tree", wp);
    driver::System sys(cfg_, *wl);
    sys.setCheckpointMeta("Tree", wp.seed, wp.scale);
    EXPECT_THROW(sys.restoreCheckpoint(path_), ckpt::CkptError);
}

TEST_F(CkptCorruption, OverfullProcessorWindowRejected)
{
    // The pending-load and pending-store rings hold at most their
    // windows (8 and 16 by default); a larger count is corrupt state.
    workloads::WorkloadParams wp;
    wp.scale = 0.01;
    auto wl = workloads::makeWorkload("MST", wp);
    driver::System sys(cfg_, *wl);
    const mem::TimingParams tp;
    for (const bool stores : {false, true}) {
        ckpt::StateWriter w;
        if (stores)
            w.u64(0);  // an empty load window
        w.u64((stores ? tp.maxPendingStores : tp.maxPendingLoads) + 1);
        ckpt::StateReader r(w.buffer());
        try {
            ckpt::restore(r, sys.processor());
            FAIL() << "overfull " << (stores ? "store" : "load")
                   << " window accepted";
        } catch (const ckpt::CkptError &e) {
            EXPECT_NE(std::string(e.what()).find("window"),
                      std::string::npos)
                << e.what();
        }
    }
}

// ---------------------------------------------------------------------
// Table restores: the MRU-sensitive structures.

/** Apply an identical miss sequence to both tables via the public
 *  find/alloc/insert API and require identical contents. */
void
expectSameTable(core::PairTable &a, core::PairTable &b)
{
    std::vector<std::tuple<sim::Addr, std::uint64_t,
                           std::vector<sim::Addr>>>
        ra, rb;
    const auto rows = [](const core::PairTable &t, auto &out) {
        t.forEachRow([&](const auto &row) {
            const auto succ = t.successors(core::RowIndex(row.index));
            out.emplace_back(row.tag, row.stamp,
                             std::vector<sim::Addr>(succ.begin(),
                                                    succ.end()));
        });
    };
    rows(a, ra);
    rows(b, rb);
    EXPECT_EQ(ra, rb);
    EXPECT_EQ(a.insertions(), b.insertions());
    EXPECT_EQ(a.replacements(), b.replacements());
}

TEST(PairTableRestore, EvictionOrderingSurvivesRestore)
{
    // Tiny table: 8 rows, assoc 2 -> 4 sets, so a modest address
    // sweep forces LRU evictions both before and after the snapshot.
    core::CorrelationParams p;
    p.numRows = 8;
    p.numSucc = 2;
    p.assoc = 2;
    core::NullCostTracker nc;

    core::PairTable live(p, 12);
    auto touch = [&](core::PairTable &t, sim::Addr miss,
                     sim::Addr succ) {
        const core::RowIndex row = t.findOrAlloc(miss, nc);
        ASSERT_NE(row, core::noRow);
        t.insertSuccessor(row, succ, nc);
    };
    // Warm phase: overflow every set once and reorder some MRU lists.
    for (sim::Addr m = 0; m < 24; ++m)
        touch(live, m * 64, (m + 1) * 64);
    touch(live, 0 * 64, 5 * 64);  // MRU reorder of a surviving row

    ckpt::StateWriter w;
    ckpt::save(w, live);
    core::PairTable restored(p, 12);
    ckpt::StateReader r(w.buffer());
    ckpt::restore(r, restored);
    r.finish();
    expectSameTable(live, restored);

    // Continue identically: evictions after the restore must pick the
    // same LRU victims (the stamp counter and every stamp came along).
    for (sim::Addr m = 24; m < 48; ++m) {
        touch(live, m * 64, (m + 2) * 64);
        touch(restored, m * 64, (m + 2) * 64);
    }
    expectSameTable(live, restored);
}

TEST(PairTableRestore, GeometryMismatchRejected)
{
    core::CorrelationParams p;
    p.numRows = 8;
    p.numSucc = 2;
    p.assoc = 2;
    core::PairTable t(p, 12);
    ckpt::StateWriter w;
    ckpt::save(w, t);

    core::CorrelationParams q = p;
    q.numRows = 16;
    core::PairTable other(q, 12);
    ckpt::StateReader r(w.buffer());
    EXPECT_THROW(ckpt::restore(r, other), ckpt::CkptError);
}

/** Drive an algorithm with a miss sequence (learn + prefetch). */
void
drive(core::CorrelationPrefetcher &algo,
      const std::vector<sim::Addr> &misses,
      std::vector<sim::Addr> *out = nullptr)
{
    core::NullCostTracker nc;
    std::vector<sim::Addr> sink;
    for (sim::Addr m : misses) {
        sink.clear();
        algo.prefetchStep(m, sink, nc);
        algo.learnStep(m, nc);
        if (out)
            out->insert(out->end(), sink.begin(), sink.end());
    }
}

class AlgoRestore : public ::testing::TestWithParam<core::UlmtAlgo>
{
};

/**
 * Replicated keeps NumLevels trailing pointers into its own rows; a
 * restore must reconstruct them exactly or the first few learn steps
 * would write the wrong rows.  Run a pointer-chasing miss pattern,
 * snapshot mid-stream, and require the restored instance to emit the
 * same prefetches and reach the same predictions as the uninterrupted
 * one.  The same harness covers Base and Chain.
 */
TEST_P(AlgoRestore, MidStreamSnapshotContinuesIdentically)
{
    core::UlmtSpec spec;
    spec.algo = GetParam();
    spec.numRows = 64;  // small enough to force conflicts
    auto live = core::makeAlgorithm(spec);
    auto restored = core::makeAlgorithm(spec);

    // A looping pointer chase with some conflicting interleaves.
    std::vector<sim::Addr> warm, cont;
    sim::Addr a = 0x1000;
    for (int i = 0; i < 400; ++i) {
        a = (a * 2654435761u) & 0xFFFFC0;  // line-aligned pseudo walk
        warm.push_back(a + 0x10000);
    }
    for (int i = 0; i < 400; ++i)
        cont.push_back(warm[i % 200]);  // revisit learned edges

    drive(*live, warm);
    ckpt::StateWriter w;
    ckpt::save(w, *live);
    ckpt::StateReader r(w.buffer());
    ckpt::restore(r, *restored);
    r.finish();

    EXPECT_EQ(live->insertions(), restored->insertions());
    EXPECT_EQ(live->replacements(), restored->replacements());

    std::vector<sim::Addr> outLive, outRestored;
    drive(*live, cont, &outLive);
    drive(*restored, cont, &outRestored);
    EXPECT_EQ(outLive, outRestored);

    core::LevelPredictions pl, pr;
    live->predict(warm[7], pl);
    restored->predict(warm[7], pr);
    EXPECT_EQ(pl, pr);
}

INSTANTIATE_TEST_SUITE_P(Algos, AlgoRestore,
                         ::testing::Values(core::UlmtAlgo::Base,
                                           core::UlmtAlgo::Chain,
                                           core::UlmtAlgo::Repl),
                         [](const auto &info) {
                             return core::to_string(info.param);
                         });

TEST(AlgoRestore, UncheckpointableAlgorithmRefusesLoudly)
{
    core::UlmtSpec spec;
    spec.algo = core::UlmtAlgo::ReplCA;
    spec.numRows = 64;
    auto algo = core::makeAlgorithm(spec);
    ckpt::StateWriter w;
    try {
        ckpt::save(w, *algo);
        FAIL() << "unsupported algorithm serialized silently";
    } catch (const ckpt::CkptError &e) {
        EXPECT_NE(std::string(e.what()).find("does not support"),
                  std::string::npos);
    }
}

// ---------------------------------------------------------------------
// The acceptance criterion: full-system determinism across a restore.

struct SystemCase
{
    const char *app;
    core::UlmtAlgo algo;
};

// Without this, gtest prints the case as raw bytes, pointer included, so
// the listed test name would change with the binary's string layout.
void
PrintTo(const SystemCase &c, std::ostream *os)
{
    *os << c.app << "/" << core::to_string(c.algo);
}

class SystemRoundTrip : public ::testing::TestWithParam<SystemCase>
{
};

/**
 * Straight-through, checkpoint-and-continue, and restore-and-continue
 * must all land on one bit-identical result fingerprint.
 */
TEST_P(SystemRoundTrip, RestoreFingerprintMatchesStraightRun)
{
    const SystemCase c = GetParam();
    driver::ExperimentOptions opt;
    opt.scale = 0.01;
    const driver::SystemConfig cfg =
        driver::ulmtConfig(opt, c.algo, c.app);

    const driver::RunResult straight = driver::runOne(c.app, cfg, opt);
    const std::string fp = driver::resultFingerprint(straight);

    const std::string path = tmpPath(std::string(c.app) + "_" +
                                     core::to_string(c.algo) +
                                     ".ulmtckp");
    workloads::WorkloadParams wp;
    wp.seed = opt.seed;
    wp.scale = opt.scale;
    auto wl = workloads::makeWorkload(c.app, wp);
    driver::System sys(cfg, *wl);
    sys.setCheckpointMeta(c.app, opt.seed, opt.scale);
    sys.setCheckpointTrigger("200", path);
    const driver::RunResult through = sys.run();
    ASSERT_GT(through.stats.value("ckpt.snapshot_bytes"), 0.0)
        << "trigger never fired";

    // Pausing to snapshot must not perturb the run itself...
    EXPECT_EQ(driver::resultFingerprint(through), fp);

    // ...and resuming from the snapshot must finish bit-identically.
    const driver::RunResult resumed = driver::runSampled(cfg, path);
    EXPECT_GT(resumed.stats.value("ckpt.restore_seconds"), 0.0);
    EXPECT_EQ(driver::resultFingerprint(resumed), fp);
}

INSTANTIATE_TEST_SUITE_P(
    Apps, SystemRoundTrip,
    ::testing::Values(SystemCase{"MST", core::UlmtAlgo::Base},
                      SystemCase{"MST", core::UlmtAlgo::Chain},
                      SystemCase{"MST", core::UlmtAlgo::Repl},
                      SystemCase{"Tree", core::UlmtAlgo::Base},
                      SystemCase{"Tree", core::UlmtAlgo::Chain},
                      SystemCase{"Tree", core::UlmtAlgo::Repl}),
    [](const auto &info) {
        return std::string(info.param.app) + "_" +
               core::to_string(info.param.algo);
    });

TEST(SystemRoundTrip, CycleTriggerAlsoRoundTrips)
{
    driver::ExperimentOptions opt;
    opt.scale = 0.01;
    const driver::SystemConfig cfg =
        driver::ulmtConfig(opt, core::UlmtAlgo::Repl, "MST");
    const driver::RunResult straight = driver::runOne("MST", cfg, opt);
    ASSERT_GT(straight.cycles, 20000u);

    const std::string path = tmpPath("mst_cycle.ulmtckp");
    workloads::WorkloadParams wp;
    wp.seed = opt.seed;
    wp.scale = opt.scale;
    auto wl = workloads::makeWorkload("MST", wp);
    driver::System sys(cfg, *wl);
    sys.setCheckpointMeta("MST", opt.seed, opt.scale);
    sys.setCheckpointTrigger("20000c", path);
    const driver::RunResult through = sys.run();
    ASSERT_GT(through.stats.value("ckpt.snapshot_bytes"), 0.0);
    EXPECT_GE(ckpt::CheckpointImage::readHeader(path).cycle, 20000u);

    const driver::RunResult resumed = driver::runSampled(cfg, path);
    EXPECT_EQ(driver::resultFingerprint(resumed),
              driver::resultFingerprint(straight));
}

TEST(SystemRoundTrip, SampledRunMayChangeMetricsInterval)
{
    // The sampled-run use case: re-measure a warm snapshot with
    // different sampling settings.  metricsInterval is deliberately
    // outside the config fingerprint, and passive sampling must not
    // perturb the simulated outcome.
    driver::ExperimentOptions opt;
    opt.scale = 0.01;
    const driver::SystemConfig cfg =
        driver::ulmtConfig(opt, core::UlmtAlgo::Repl, "MST");
    const driver::RunResult straight = driver::runOne("MST", cfg, opt);

    const std::string path = tmpPath("mst_sampled.ulmtckp");
    workloads::WorkloadParams wp;
    wp.seed = opt.seed;
    wp.scale = opt.scale;
    auto wl = workloads::makeWorkload("MST", wp);
    driver::System sys(cfg, *wl);
    sys.setCheckpointMeta("MST", opt.seed, opt.scale);
    sys.setCheckpointTrigger("200", path);
    ASSERT_GT(sys.run().stats.value("ckpt.snapshot_bytes"), 0.0);

    driver::SystemConfig dense = cfg;
    dense.metricsInterval = 1024;
    const driver::RunResult resumed = driver::runSampled(dense, path);
    EXPECT_EQ(driver::resultFingerprint(resumed),
              driver::resultFingerprint(straight));
}

TEST(SystemRoundTrip, ParallelRestoresMatchSerialRuns)
{
    // The same snapshot restored concurrently across the runner's
    // worker pool must stay bit-identical to the serial straight run.
    driver::ExperimentOptions opt;
    opt.scale = 0.01;
    const driver::SystemConfig cfg =
        driver::ulmtConfig(opt, core::UlmtAlgo::Repl, "MST");
    const driver::RunResult straight = driver::runOne("MST", cfg, opt);
    const std::string fp = driver::resultFingerprint(straight);

    const std::string path = tmpPath("mst_par.ulmtckp");
    workloads::WorkloadParams wp;
    wp.seed = opt.seed;
    wp.scale = opt.scale;
    auto wl = workloads::makeWorkload("MST", wp);
    driver::System sys(cfg, *wl);
    sys.setCheckpointMeta("MST", opt.seed, opt.scale);
    sys.setCheckpointTrigger("200", path);
    ASSERT_GT(sys.run().stats.value("ckpt.snapshot_bytes"), 0.0);

    std::vector<std::function<driver::RunResult()>> tasks;
    for (int i = 0; i < 4; ++i)
        tasks.push_back([&] { return driver::runSampled(cfg, path); });
    const std::vector<driver::RunResult> results =
        driver::runTasks(tasks, 4);
    ASSERT_EQ(results.size(), 4u);
    for (const auto &r : results)
        EXPECT_EQ(driver::resultFingerprint(r), fp);
}

TEST(ListWorkloads, EnumeratesThePaperApplications)
{
    const std::vector<std::string> &apps = driver::listWorkloads();
    EXPECT_GE(apps.size(), 9u);
    EXPECT_NE(std::find(apps.begin(), apps.end(), "MST"), apps.end());
    EXPECT_NE(std::find(apps.begin(), apps.end(), "Tree"), apps.end());
    EXPECT_NE(std::find(apps.begin(), apps.end(), "Mcf"), apps.end());
}

// ---------------------------------------------------------------------
// Crafted snapshots: a section rewritten with valid checksums.  Values
// the simulator would assert on are refused as input (CkptError, so a
// "fatal:" exit), never an abort.

/** Restore a copy of corpus file mst_repl.ulmtckp whose section
 *  @p name is replaced by @p edit(payload); writeFile recomputes every
 *  checksum, so only the restore walks can catch the edit.  The
 *  refusal must name @p why. */
void
expectCraftedSectionRefused(
    const std::string &name, const std::string &why,
    const std::function<std::string(const std::string &)> &edit)
{
    const ckpt::CheckpointImage in = ckpt::CheckpointImage::readFile(
        std::string(ULMT_SOURCE_DIR) + "/corpus/ckpt/mst_repl.ulmtckp");
    ckpt::CheckpointImage img;
    img.header = in.header;
    for (const auto &[n, payload] : in.sections())
        img.addSection(n, n == name ? edit(payload) : payload);
    // One file per test: ctest runs the cases in parallel.
    const std::string path = tmpPath(
        std::string(
            ::testing::UnitTest::GetInstance()->current_test_info()->name()) +
        ".ulmtckp");
    img.writeFile(path);

    driver::ExperimentOptions opt;
    opt.scale = in.header.scale;
    opt.seed = in.header.seed;
    const driver::SystemConfig cfg =
        driver::ulmtConfig(opt, core::UlmtAlgo::Repl, "MST");
    try {
        driver::runSampled(cfg, path);
        ADD_FAILURE() << "crafted " << name << " section accepted";
    } catch (const ckpt::CkptError &e) {
        EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
            << e.what();
    }
}

/** Re-encode an events payload with @p mutate applied to its clock,
 *  counters and first pending event. */
std::string
editEvents(const std::string &payload,
           const std::function<void(std::uint64_t &now,
                                    std::uint64_t &next_seq,
                                    sim::SavedEvent &first)> &mutate)
{
    ckpt::StateReader r(payload);
    std::uint64_t now = r.u64();
    std::uint64_t next_seq = r.u64();
    const std::uint64_t executed = r.u64();
    std::vector<sim::SavedEvent> evs(r.u64());
    for (sim::SavedEvent &e : evs) {
        e.when = r.u64();
        e.seq = r.u64();
        e.kind = r.u32();
        e.arg0 = r.u64();
        e.arg1 = r.u64();
    }
    EXPECT_FALSE(evs.empty());
    mutate(now, next_seq, evs.at(0));
    ckpt::StateWriter w;
    w.u64(now);
    w.u64(next_seq);
    w.u64(executed);
    w.u64(evs.size());
    for (const sim::SavedEvent &e : evs) {
        w.u64(e.when);
        w.u64(e.seq);
        w.u32(e.kind);
        w.u64(e.arg0);
        w.u64(e.arg1);
    }
    return w.take();
}

TEST(CraftedCkpt, MemsysCoreCountMismatchRefused)
{
    expectCraftedSectionRefused("memsys", "core count",
                                [](const std::string &p) {
        // Eleven counters and the table-wait SampleStat precede the
        // per-core QoS count; one more is not this machine's count.
        ckpt::StateReader r(p);
        ckpt::StateWriter w;
        for (int i = 0; i < 12; ++i)
            w.u64(r.u64());
        for (int i = 0; i < 5; ++i)
            w.f64(r.f64());
        w.u64(r.u64() + 1);
        return w.take() + p.substr(p.size() - r.remaining());
    });
}

TEST(CraftedCkpt, EventBeforeTheSnapshotClockRefused)
{
    expectCraftedSectionRefused("events", "snapshot bounds",
                                [](const std::string &p) {
        return editEvents(p, [](std::uint64_t &now, std::uint64_t &,
                                sim::SavedEvent &e) {
            ASSERT_GT(now, 0u);
            e.when = now - 1;
        });
    });
}

TEST(CraftedCkpt, EventSeqAtTheCounterRefused)
{
    expectCraftedSectionRefused("events", "snapshot bounds",
                                [](const std::string &p) {
        return editEvents(p, [](std::uint64_t &, std::uint64_t &next_seq,
                                sim::SavedEvent &e) { e.seq = next_seq; });
    });
}

TEST(CraftedCkpt, SeqCounterBeyondItsBudgetRefused)
{
    expectCraftedSectionRefused("events", "40-bit budget",
                                [](const std::string &p) {
        return editEvents(p, [](std::uint64_t &, std::uint64_t &next_seq,
                                sim::SavedEvent &e) {
            next_seq = sim::EventQueue::seqLimit * 2;
            e.seq = sim::EventQueue::seqLimit;
        });
    });
}

/** Refuse a copy of mst_repl.ulmtckp whose first pending event is
 *  retagged (@p kind, @p arg0, @p arg1); the refusal must name
 *  @p why. */
void
expectRetaggedEventRefused(std::uint32_t kind, std::uint64_t arg0,
                           std::uint64_t arg1, const std::string &why)
{
    expectCraftedSectionRefused("events", why, [&](const std::string &p) {
        return editEvents(p, [&](std::uint64_t &, std::uint64_t &,
                                 sim::SavedEvent &e) {
            e.kind = kind;
            e.arg0 = arg0;
            e.arg1 = arg1;
        });
    });
}

/** A line MST never touches, so nothing is in flight for it. */
constexpr sim::Addr idleLine = 0xdeadbee00;

TEST(CraftedCkpt, EventKindOutsideItsRangeRefused)
{
    for (std::uint32_t kind : {0u, 7u})
        expectRetaggedEventRefused(kind, 0, 0, "corrupt event kind");
}

TEST(CraftedCkpt, DemandDoneWithNoFetchInFlightRefused)
{
    expectRetaggedEventRefused(
        static_cast<std::uint32_t>(sim::EventKind::MemDemandDone),
        idleLine, 0,
        "queue-1 demand completion event pending for " +
            check::hex(idleLine) + " with no in-flight entry");
}

TEST(CraftedCkpt, CpuPrefetchDoneWithNoFetchInFlightRefused)
{
    expectRetaggedEventRefused(
        static_cast<std::uint32_t>(sim::EventKind::MemCpuPfDone),
        idleLine, 0,
        "queue-1 cpu-prefetch completion event pending for " +
            check::hex(idleLine) + " with no in-flight entry");
}

TEST(CraftedCkpt, PrefetchArrivalWithNoQueue3EntryRefused)
{
    expectRetaggedEventRefused(
        static_cast<std::uint32_t>(sim::EventKind::MemPfArrival),
        idleLine, 1u << 30,
        "MemPfArrival pending for " + check::hex(idleLine) +
            " with no queue-3 entry");
}

TEST(CraftedCkpt, StepEventForAMissingCoreRefused)
{
    expectRetaggedEventRefused(
        static_cast<std::uint32_t>(sim::EventKind::ProcStep), 5, 0,
        "names a core this machine does not have");
}

TEST(CraftedCkpt, UlmtEventForAMissingEngineRefused)
{
    expectRetaggedEventRefused(
        static_cast<std::uint32_t>(sim::EventKind::UlmtProcess), 3, 0,
        "no matching engine");
}

TEST(CraftedCkpt, RemapEventWithNoVmLayerRefused)
{
    expectRetaggedEventRefused(
        static_cast<std::uint32_t>(sim::EventKind::VmRemap), 0, 0,
        "machine has no VM layer");
}

/**
 * A fresh prefetcher's snapshot ends in three zero varints: the empty
 * miss history's count and the two counters.  Splice in a history of
 * @p n lines in their place.
 */
std::string
withMissHistory(std::string payload, std::uint64_t n)
{
    EXPECT_EQ(payload.substr(payload.size() - 3), std::string(3, '\0'));
    payload.resize(payload.size() - 3);
    ckpt::StateWriter w;
    w.u64(n);
    for (std::uint64_t i = 0; i < n; ++i)
        w.u64(0x100 + 7 * i);
    w.u64(0);
    w.u64(0);
    return payload + w.take();
}

/** A miss history up to its depth restores; one line more is refused
 *  naming the depth. */
template <typename Prefetcher, typename Params>
void
expectOverlongMissHistoryRefused(const Params &p, const std::string &who)
{
    ckpt::StateWriter w;
    ckpt::save(w, Prefetcher(p));
    {
        const std::string full = withMissHistory(w.buffer(), p.historyDepth);
        Prefetcher back(p);
        ckpt::StateReader r(full);
        ckpt::restore(r, back);
        r.finish();
        ckpt::StateWriter again;
        ckpt::save(again, back);
        EXPECT_EQ(again.buffer(), full);
    }
    const std::string crafted =
        withMissHistory(w.buffer(), p.historyDepth + 1);
    Prefetcher back(p);
    ckpt::StateReader r(crafted);
    try {
        ckpt::restore(r, back);
        ADD_FAILURE() << "crafted " << who << " history accepted";
    } catch (const ckpt::CkptError &e) {
        EXPECT_EQ(std::string(e.what()),
                  who + " miss history in checkpoint is longer than its "
                        "depth " +
                      std::to_string(p.historyDepth));
    }
}

TEST(CraftedCkpt, StreamPrefetcherHistoryPastItsDepthRefused)
{
    expectOverlongMissHistoryRefused<cpu::StreamPrefetcher>(
        cpu::StreamPrefetcherParams{4, 6, 32, 16}, "stream-prefetcher");
}

TEST(CraftedCkpt, SeqPrefetcherHistoryPastItsDepthRefused)
{
    core::SeqParams p;
    p.historyDepth = 5;
    expectOverlongMissHistoryRefused<core::SeqPrefetcher>(
        p, "seq-prefetcher");
}

// ---------------------------------------------------------------------
// The committed golden corpus: on-disk format-drift guard.  Each
// snapshot is self-describing (workload/seed/scale/label in the
// header), so the test reconstructs the exact configuration it was
// taken under and compares against a live straight-through run.

/** Parameter: "<file> [--conven4] [machine flags...]".  The flags
 *  rebuild the machine the snapshot was taken on (--conven4 as
 *  ulmt-ckpt create takes it, the rest driver::parseMachineFlag), as
 *  the corpus README's ulmt-ckpt create commands give them. */
class GoldenCkptCorpus : public ::testing::TestWithParam<const char *>
{
};

/** A corpus file and the machine it was taken on. */
struct CorpusCase
{
    std::string path;
    ckpt::CkptHeader header;
    driver::ExperimentOptions opt;
    driver::SystemConfig cfg;
};

CorpusCase
corpusCase(const char *param)
{
    std::istringstream words(param);
    std::string file;
    words >> file;
    CorpusCase c;
    c.path = std::string(ULMT_SOURCE_DIR) + "/corpus/ckpt/" + file;
    c.header = ckpt::CheckpointImage::readHeader(c.path);
    c.opt.scale = c.header.scale;
    c.opt.seed = c.header.seed;
    bool conven4 = false;
    for (std::string flag; words >> flag;) {
        if (flag == "--conven4")
            conven4 = true;
        else
            EXPECT_TRUE(driver::parseMachineFlag(flag, c.opt.machine))
                << flag;
    }
    if (conven4) {
        // The label is "Conven4+<algo>".
        const std::string prefix = "Conven4+";
        EXPECT_EQ(c.header.label.rfind(prefix, 0), 0u) << c.header.label;
        c.cfg = driver::conven4PlusUlmtConfig(
            c.opt, core::parseUlmtAlgo(c.header.label.substr(prefix.size())),
            c.header.workload);
    } else {
        c.cfg = driver::ulmtConfig(
            c.opt, core::parseUlmtAlgo(c.header.label), c.header.workload);
    }
    return c;
}

std::string
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST_P(GoldenCkptCorpus, RestoreFingerprintMatchesStraightRun)
{
    const CorpusCase c = corpusCase(GetParam());
    const driver::RunResult straight =
        driver::runOne(c.header.workload, c.cfg, c.opt);
    const driver::RunResult resumed = driver::runSampled(c.cfg, c.path);
    EXPECT_EQ(driver::resultFingerprint(resumed),
              driver::resultFingerprint(straight));
}

/** Restoring a file and saving again at once gives the file's bytes:
 *  every section's walk reads exactly what it writes. */
TEST_P(GoldenCkptCorpus, SaveAfterRestoreIsIdentity)
{
    const CorpusCase c = corpusCase(GetParam());
    const ckpt::CkptHeader &h = c.header;
    std::unique_ptr<workloads::Workload> wl;
    std::unique_ptr<driver::System> sys;
    if (c.cfg.cores > 1) {
        sys = std::make_unique<driver::System>(
            c.cfg,
            driver::makeCoreWorkloads(h.workload, h.seed, h.scale,
                                      c.cfg.cores),
            h.workload);
    } else {
        workloads::WorkloadParams wp;
        wp.seed = h.seed;
        wp.scale = h.scale;
        wl = workloads::makeWorkload(h.workload, wp);
        sys = std::make_unique<driver::System>(c.cfg, *wl);
    }
    sys->setCheckpointMeta(h.workload, h.seed, h.scale);
    sys->restoreCheckpoint(c.path);
    const std::string again =
        tmpPath("identity_" + c.path.substr(c.path.rfind('/') + 1));
    sys->saveCheckpoint(again);
    EXPECT_TRUE(readBytes(again) == readBytes(c.path));
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, GoldenCkptCorpus,
    ::testing::Values(
        "mst_base.ulmtckp", "mst_chain.ulmtckp", "mst_repl.ulmtckp",
        "tree_base.ulmtckp", "tree_chain.ulmtckp", "tree_repl.ulmtckp",
        "mst_chain_2c_vm_tc.ulmtckp --cores=2 --vm=on "
        "--remap-rate=100 --table-cache=256,4",
        "mst_repl_2c_vm_tc.ulmtckp --cores=2 --vm=on "
        "--remap-rate=100 --table-cache=256,4",
        "cg_conven4_seq1repl.ulmtckp --conven4"),
    [](const auto &info) {
        std::string n(info.param);
        n = n.substr(0, n.find(' '));
        for (char &c : n)
            if (c == '.')
                c = '_';
        return n;
    });

} // namespace
