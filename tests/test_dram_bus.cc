/**
 * @file
 * Tests for the DRAM model, the front-side bus, and the priority
 * timeline, including the paper's contention-free latency targets
 * (Table 3).
 */

#include <gtest/gtest.h>

#include "mem/bus.hh"
#include "mem/dram.hh"
#include "mem/timing_params.hh"
#include "sim/event_queue.hh"

namespace {

TEST(TimingParams, Table3RoundTrips)
{
    mem::TimingParams tp;
    EXPECT_EQ(tp.memRowHitRt(), 208u);
    EXPECT_EQ(tp.memRowMissRt(), 243u);
    EXPECT_EQ(tp.busDataOccupancy(64), 32u);  // 8 beats * 4 cycles
    EXPECT_EQ(tp.busDataOccupancy(8), 4u);
    EXPECT_EQ(tp.busRequestOccupancy(), 4u);
}

TEST(Dram, RowHitVsMiss)
{
    mem::TimingParams tp;
    mem::Dram dram(tp);
    // Cold access: row miss.
    auto r1 = dram.accessLine(0, 0x1000, true);
    EXPECT_FALSE(r1.rowHit);
    EXPECT_EQ(r1.done, tp.bankRowMissCycles + tp.channelXferCycles);
    // Same row, later: row hit.
    auto r2 = dram.accessLine(10000, 0x1040, true);
    EXPECT_TRUE(r2.rowHit);
    EXPECT_EQ(r2.done, 10000 + tp.bankRowHitCycles +
                           tp.channelXferCycles);
    EXPECT_EQ(dram.stats().accesses, 2u);
    EXPECT_EQ(dram.stats().rowHits, 1u);
}

TEST(Dram, TableAccessLatencies)
{
    mem::TimingParams tp;
    mem::Dram dram(tp);
    // In-DRAM: no channel crossing; cold = row miss.
    auto r = dram.accessTable(0, 0x2000, /*through_channel=*/false);
    EXPECT_EQ(r.done, tp.tableBankRowMissCycles);
    // With the fixed overhead this gives the paper's 56-cycle RT.
    EXPECT_EQ(r.done + tp.tableAccessFixedDram, 56u);
    auto r2 = dram.accessTable(1000, 0x2020, false);
    EXPECT_EQ(r2.done + tp.tableAccessFixedDram - 1000, 21u);

    // North Bridge: channel crossing; 100/65-cycle RTs.
    mem::Dram dram2(tp);
    auto n1 = dram2.accessTable(0, 0x2000, true);
    EXPECT_EQ(n1.done + tp.tableAccessFixedNorthBridge, 100u);
    auto n2 = dram2.accessTable(1000, 0x2020, true);
    EXPECT_EQ(n2.done + tp.tableAccessFixedNorthBridge - 1000, 65u);
}

TEST(Dram, BankConflictsSerialize)
{
    mem::TimingParams tp;
    mem::Dram dram(tp);
    // Two accesses to different rows of the same bank at the same time
    // serialize at the bank.
    const sim::Addr a = 0x0;
    const sim::Addr b =
        static_cast<sim::Addr>(tp.dramRowBytes) * tp.dramChannels *
        tp.dramBanksPerChannel;  // same channel+bank, different row
    auto r1 = dram.accessLine(0, a, true);
    auto r2 = dram.accessLine(0, b, true);
    EXPECT_FALSE(r2.rowHit);
    EXPECT_GE(r2.done, r1.done);
    EXPECT_GE(r2.done, 2 * tp.bankRowMissCycles);
}

TEST(Dram, ChannelsAreParallel)
{
    mem::TimingParams tp;
    mem::Dram dram(tp);
    // Adjacent rows go to different channels; simultaneous accesses
    // don't serialize at a shared channel.
    auto r1 = dram.accessLine(0, 0, true);
    auto r2 = dram.accessLine(0, tp.dramRowBytes, true);
    EXPECT_EQ(r1.done, r2.done);
}

TEST(Bus, UtilizationByClass)
{
    mem::Bus bus;
    bus.transfer(0, 4, mem::BusTraffic::DemandRequest);
    bus.transfer(0, 32, mem::BusTraffic::DemandData);
    bus.transfer(0, 32, mem::BusTraffic::UlmtPrefetchData);
    bus.transfer(0, 32, mem::BusTraffic::Writeback);
    EXPECT_EQ(bus.busyTotal(), 100u);
    EXPECT_EQ(bus.busy(mem::BusTraffic::DemandData), 32u);
    EXPECT_EQ(bus.busy(mem::BusTraffic::UlmtPrefetchData), 32u);
}

TEST(Bus, DemandOutranksPrefetchData)
{
    mem::Bus bus;
    // A queued prefetch burst must not delay demand data.
    for (int i = 0; i < 8; ++i)
        bus.transfer(0, 32, mem::BusTraffic::UlmtPrefetchData);
    const sim::Cycle done =
        bus.transfer(40, 32, mem::BusTraffic::DemandData);
    // At most one in-progress low transfer can block it.
    EXPECT_LE(done, 40u + 32u + 32u);
}

TEST(PriorityTimeline, FcfsWithinClass)
{
    sim::PriorityTimeline tl;
    EXPECT_EQ(tl.acquire(0, 10, true), 0u);
    EXPECT_EQ(tl.acquire(0, 10, true), 10u);
    EXPECT_EQ(tl.acquire(5, 10, true), 20u);
    EXPECT_EQ(tl.busyTotal(), 30u);
}

TEST(PriorityTimeline, EarlierReadyUsesIdleGap)
{
    sim::PriorityTimeline tl;
    // A booking far in the future must not delay an earlier request.
    EXPECT_EQ(tl.acquire(1000, 10, true), 1000u);
    EXPECT_EQ(tl.acquire(0, 10, true), 0u);
    // And a gap between bookings is usable if it fits.
    EXPECT_EQ(tl.acquire(0, 10, true), 10u);
    EXPECT_EQ(tl.acquire(0, 2000, true), 1010u);  // doesn't fit gap
}

TEST(PriorityTimeline, HighDisplacesQueuedLow)
{
    sim::PriorityTimeline tl;
    // Lows queued into the future...
    EXPECT_EQ(tl.acquire(100, 50, false), 100u);
    EXPECT_EQ(tl.acquire(100, 50, false), 150u);
    // ...do not delay a high that becomes ready before they start.
    EXPECT_EQ(tl.acquire(50, 20, true), 50u);
}

TEST(PriorityTimeline, HighWaitsForStartedLow)
{
    sim::PriorityTimeline tl;
    EXPECT_EQ(tl.acquire(0, 50, false), 0u);  // starts immediately
    // High becomes ready mid-transfer: waits for it to finish.
    EXPECT_EQ(tl.acquire(20, 10, true), 50u);
}

TEST(PriorityTimeline, LowRespectsBookingsButUsesIdleGaps)
{
    sim::PriorityTimeline tl;
    tl.acquire(0, 100, true);
    EXPECT_EQ(tl.acquire(0, 10, false), 100u);
    tl.acquire(200, 100, true);
    // Work-conserving: the low slots into the idle gap before the
    // future high booking, but never overlaps any booking.
    EXPECT_EQ(tl.acquire(0, 10, false), 110u);
    // No gap large enough before the high: it lands after.
    EXPECT_EQ(tl.acquire(0, 100, false), 300u);
}

} // namespace
