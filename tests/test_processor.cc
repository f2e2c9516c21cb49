/**
 * @file
 * Tests for the main-processor window model: busy accounting,
 * dependence serialization, load-window and ROB limits, stall
 * attribution, and the end-of-trace drain.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cpu/main_processor.hh"

namespace {

/** A trace source fed from a vector. */
class VectorTrace : public cpu::TraceSource
{
  public:
    explicit VectorTrace(std::vector<cpu::TraceRecord> recs)
        : recs_(std::move(recs))
    {
    }

    bool
    next(cpu::TraceRecord &rec) override
    {
        if (pos_ >= recs_.size())
            return false;
        rec = recs_[pos_++];
        return true;
    }

  private:
    std::vector<cpu::TraceRecord> recs_;
    std::size_t pos_ = 0;
};

cpu::TraceRecord
load(sim::Addr addr, std::uint32_t ops = 0, bool dep = false)
{
    return cpu::TraceRecord{addr, ops, false, dep};
}

cpu::TraceRecord
compute(std::uint32_t ops)
{
    return cpu::TraceRecord{sim::invalidAddr, ops, false, false};
}

struct Harness
{
    explicit Harness(std::vector<cpu::TraceRecord> recs)
        : trace(std::move(recs)), ms(eq, tp),
          hier(eq, tp, ms, false), proc(eq, tp, hier, trace)
    {
        ms.setPushCallback([this](sim::Cycle when, sim::Addr line, unsigned) {
            hier.acceptPush(when, line);
        });
    }

    const cpu::ProcessorStats &
    run()
    {
        proc.start();
        EXPECT_TRUE(eq.run());
        EXPECT_TRUE(proc.finished());
        return proc.stats();
    }

    sim::EventQueue eq;
    mem::TimingParams tp;
    VectorTrace trace;
    mem::MemorySystem ms;
    cpu::Hierarchy hier;
    cpu::MainProcessor proc;
};

TEST(Processor, PureComputeTime)
{
    // 10 records of 60 ops at 6-wide issue: 10 cycles each.
    std::vector<cpu::TraceRecord> recs(10, compute(60));
    Harness h(std::move(recs));
    const auto &s = h.run();
    EXPECT_EQ(s.busyCycles, 100u);
    EXPECT_EQ(s.totalCycles, 100u);
    EXPECT_EQ(s.uptoL2Stall, 0u);
    EXPECT_EQ(s.beyondL2Stall, 0u);
    EXPECT_EQ(s.records, 10u);
}

TEST(Processor, MinimumOneCyclePerRecord)
{
    std::vector<cpu::TraceRecord> recs(5, compute(0));
    Harness h(std::move(recs));
    EXPECT_EQ(h.run().busyCycles, 5u);
}

TEST(Processor, SingleMissDrainsAtFullLatency)
{
    Harness h({load(0x1000)});
    const auto &s = h.run();
    // Issue at cycle 1 (one busy slot), complete 243 later.
    EXPECT_EQ(s.totalCycles, 1u + h.tp.memRowMissRt());
    EXPECT_EQ(s.beyondL2Stall + s.busyCycles, s.totalCycles);
    EXPECT_GT(s.stallDrain, 0u);
}

TEST(Processor, DependentMissesSerialize)
{
    // Two dependent misses: the second waits for the first.
    Harness h({load(0x100000, 0, false), load(0x200000, 0, true),
               load(0x300000, 0, true)});
    const auto &s = h.run();
    // Roughly 3 serialized round trips.
    EXPECT_GT(s.totalCycles, 3 * h.tp.memRowHitRt());
    EXPECT_GT(s.stallDependence, h.tp.memRowHitRt());
}

TEST(Processor, IndependentMissesOverlap)
{
    std::vector<cpu::TraceRecord> recs;
    for (int i = 0; i < 8; ++i)
        recs.push_back(load(0x100000 + i * 4096));
    Harness h(std::move(recs));
    const auto &s = h.run();
    // All eight fit in the load window: far less than 8 round trips.
    EXPECT_LT(s.totalCycles, 3 * h.tp.memRowMissRt());
}

TEST(Processor, LoadWindowLimitsOverlap)
{
    // More outstanding misses than maxPendingLoads: the window stalls.
    std::vector<cpu::TraceRecord> recs;
    for (int i = 0; i < 24; ++i)
        recs.push_back(load(0x100000 + i * 4096));
    Harness h(std::move(recs));
    const auto &s = h.run();
    EXPECT_GT(s.stallLoadWindow, 0u);
}

TEST(Processor, RobLimitsRunahead)
{
    // A miss followed by a long run of compute: issue must stop when
    // the ROB fills behind the incomplete load.
    std::vector<cpu::TraceRecord> recs{load(0x100000)};
    for (int i = 0; i < 100; ++i)
        recs.push_back(load(0x100000 + (i % 2) * 8, 60));  // L1 traffic
    Harness h(std::move(recs));
    const auto &s = h.run();
    // With robSize=128 and ~61 ops per record, issue stops ~2 records
    // after the miss; most of the miss latency is exposed.
    EXPECT_GT(s.beyondL2Stall, h.tp.memRowMissRt() / 2);
}

TEST(Processor, StallAttributionUptoVsBeyond)
{
    // First populate the L2 (memory stall), then thrash only L1 -> L2
    // hits (upto stall via dependence).
    std::vector<cpu::TraceRecord> recs;
    recs.push_back(load(0x1000));
    recs.push_back(load(0x1000 + 8 * 1024, 0, true));
    recs.push_back(load(0x1000, 0, true));           // L1 evicted? no:
    recs.push_back(load(0x1000 + 16 * 1024, 0, true));
    Harness h(std::move(recs));
    const auto &s = h.run();
    EXPECT_GT(s.beyondL2Stall, 0u);
}

TEST(Processor, OpsAccounting)
{
    Harness h({compute(12), load(0x40, 6)});
    const auto &s = h.run();
    EXPECT_EQ(s.ops, 12u + 6u + 1u);  // the reference costs one op
}

TEST(Processor, DeterministicAcrossRuns)
{
    auto make = [] {
        std::vector<cpu::TraceRecord> recs;
        for (int i = 0; i < 200; ++i)
            recs.push_back(load(0x100000 + (i * 7919) % 65536,
                                i % 5, i % 3 == 0));
        return recs;
    };
    Harness a(make()), b(make());
    EXPECT_EQ(a.run().totalCycles, b.run().totalCycles);
}

} // namespace
