/**
 * @file
 * Dual-channel DRAM with per-bank open-row state.
 *
 * Lines are interleaved across channels and banks.  Each access
 * reserves its bank for the row-access time (open-row hits are cheap)
 * and then its channel for the data transfer.  Both the application's
 * demand stream and the ULMT's correlation-table traffic go through
 * the same banks, reproducing the contention the paper models.
 */

#ifndef MEM_DRAM_HH
#define MEM_DRAM_HH

#include <cstdint>
#include <vector>

#include "ckpt/sim_state.hh"
#include "mem/timing_params.hh"
#include "sim/event_queue.hh"
#include "sim/stat_registry.hh"
#include "sim/trace_event.hh"
#include "sim/types.hh"

namespace mem {

/** Outcome of one DRAM access. */
struct DramAccessResult
{
    sim::Cycle done;   //!< data fully transferred out of the channel
    bool rowHit;       //!< the bank's open row matched
};

/** Running DRAM statistics. */
struct DramStats
{
    std::uint64_t accesses = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
};

/** The main-memory DRAM array. */
class Dram
{
  public:
    /** @param clock bounds the timelines' prune horizon */
    explicit Dram(const TimingParams &tp,
                  const sim::EventQueue *clock = nullptr)
        : tp_(tp),
          banks_(static_cast<std::size_t>(tp.dramChannels) *
                     tp.dramBanksPerChannel,
                 Bank{sim::PriorityTimeline(clock)}),
          channels_(tp.dramChannels, sim::PriorityTimeline(clock))
    {
    }

    /**
     * Access a full cache line (64 B) for the main processor or for a
     * ULMT push prefetch.
     *
     * @param ready earliest start cycle
     * @param addr  target address
     * @return completion cycle (data has left the channel) + row info
     */
    DramAccessResult
    accessLine(sim::Cycle ready, sim::Addr addr, bool high_priority)
    {
        return access(ready, addr, tp_.bankRowHitCycles,
                      tp_.bankRowMissCycles, tp_.channelXferCycles,
                      /*use_channel=*/true, high_priority);
    }

    /**
     * Access 32 bytes of correlation-table state for the memory
     * processor.  When the memory processor sits inside the DRAM chip
     * it bypasses the external channel (25.6 GB/s internal bus);
     * from the North Bridge the data crosses the channel.
     *
     * Table accesses are latency-critical for the ULMT (they gate its
     * response time) and tiny, so the controller services them ahead
     * of queued line prefetches; only queue-3 prefetch fetches are
     * the explicitly low-priority class.
     */
    DramAccessResult
    accessTable(sim::Cycle ready, sim::Addr addr, bool through_channel)
    {
        return access(ready, addr, tp_.tableBankRowHitCycles,
                      tp_.tableBankRowMissCycles,
                      tp_.tableChannelXferCycles, through_channel,
                      /*high_priority=*/true);
    }

    /** Write a line back to memory (bank occupancy only). */
    DramAccessResult
    writeLine(sim::Cycle ready, sim::Addr addr)
    {
        return access(ready, addr, tp_.bankRowHitCycles,
                      tp_.bankRowMissCycles, tp_.channelXferCycles,
                      /*use_channel=*/true, /*high_priority=*/false);
    }

    const DramStats &stats() const { return stats_; }

    // Pure address-mapping helpers (the same interleave access() uses)
    // so observers can attribute contention per bank/channel without
    // widening the access interface.

    /** Channel index of @p addr. */
    std::size_t
    channelOf(sim::Addr addr) const
    {
        const sim::Addr row = addr / tp_.dramRowBytes;
        return static_cast<std::size_t>(row % tp_.dramChannels);
    }

    /** Global bank index of @p addr. */
    std::size_t
    bankOf(sim::Addr addr) const
    {
        const sim::Addr row = addr / tp_.dramRowBytes;
        return channelOf(addr) * tp_.dramBanksPerChannel +
               static_cast<std::size_t>((row / tp_.dramChannels) %
                                        tp_.dramBanksPerChannel);
    }

    std::size_t numBanks() const { return banks_.size(); }
    std::size_t numChannels() const { return channels_.size(); }

    /** Register access/row-hit counters under "dram.*". */
    void
    registerStats(sim::StatRegistry &reg) const
    {
        reg.addCounter("dram.accesses", &stats_.accesses);
        reg.addCounter("dram.row_hits", &stats_.rowHits);
        reg.addCounter("dram.row_misses", &stats_.rowMisses);
    }

    /** Emit bank/channel spans into @p t (nullptr disables). */
    void setTrace(sim::TraceEventBuffer *t) { trace_ = t; }

    void
    reset()
    {
        for (auto &b : banks_) {
            b.timeline.reset();
            b.openRow = sim::invalidAddr;
        }
        for (auto &c : channels_)
            c.reset();
        stats_ = DramStats{};
    }

    /** Checkpoint walk: every bank's open row + timeline, the
     *  channels, the stats. */
    void
    walk(ckpt::Stream &s)
    {
        s.expect(banks_.size(), "DRAM bank count in checkpoint does not "
                                "match the configuration");
        for (Bank &b : banks_) {
            s.u64(b.openRow);
            ckpt::walk(s, b.timeline);
        }
        s.expect(channels_.size(), "DRAM channel count in checkpoint "
                                   "does not match the configuration");
        for (sim::PriorityTimeline &c : channels_)
            ckpt::walk(s, c);
        s.u64(stats_.accesses, stats_.rowHits, stats_.rowMisses);
    }

  private:
    struct Bank
    {
        sim::PriorityTimeline timeline;
        sim::Addr openRow = sim::invalidAddr;
    };

    DramAccessResult
    access(sim::Cycle ready, sim::Addr addr, sim::Cycle row_hit_cycles,
           sim::Cycle row_miss_cycles, sim::Cycle xfer_cycles,
           bool use_channel, bool high_priority)
    {
        const sim::Addr row = addr / tp_.dramRowBytes;
        const std::size_t chan = channelOf(addr);
        const std::size_t bank_idx = bankOf(addr);

        Bank &bank = banks_[bank_idx];
        const bool row_hit = bank.openRow == row;
        bank.openRow = row;
        const sim::Cycle occ = row_hit ? row_hit_cycles : row_miss_cycles;
        const sim::Cycle bank_done =
            bank.timeline.acquire(ready, occ, high_priority) + occ;

        ++stats_.accesses;
        if (row_hit)
            ++stats_.rowHits;
        else
            ++stats_.rowMisses;
        if (trace_)
            trace_->complete(row_hit ? "row_hit" : "row_miss", "dram",
                             bank_done - occ, occ, sim::traceTidDram);

        if (!use_channel)
            return {bank_done, row_hit};
        const sim::Cycle xfer_start =
            channels_[chan].acquire(bank_done, xfer_cycles,
                                    high_priority);
        if (trace_)
            trace_->complete("xfer", "dram", xfer_start, xfer_cycles,
                             sim::traceTidDram);
        return {xfer_start + xfer_cycles, row_hit};
    }

    const TimingParams &tp_;
    std::vector<Bank> banks_;
    std::vector<sim::PriorityTimeline> channels_;
    DramStats stats_;
    sim::TraceEventBuffer *trace_ = nullptr;
};

} // namespace mem

#endif // MEM_DRAM_HH
