#include "mem/memory_system.hh"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "ckpt/sim_state.hh"
#include "sim/logging.hh"

namespace mem {

namespace {

/** Fixed (non-bus, non-DRAM) pipeline latencies on the two paths. */
constexpr sim::Cycle reqPathFixed = 44;   //!< decode/queue at controller
constexpr sim::Cycle respPathFixed = 32;  //!< fill after bus transfer

} // namespace

sim::Cycle
MemorySystem::fetchLine(sim::Cycle issue, sim::Addr line_addr,
                        sim::RequestKind kind, unsigned core)
{
    SIM_ASSERT(kind != sim::RequestKind::UlmtPrefetch,
               "ULMT prefetches use ulmtPrefetch()");
    const bool demand = kind == sim::RequestKind::Demand;
    const sim::Addr key = sim::packCoreLine(core, line_addr);
    if (demand)
        ++stats_.demandFetches;
    else
        ++stats_.cpuPrefetchFetches;

    // Address phase on the front-side bus, then the controller's fixed
    // request-path latency.
    const BusTraffic req_cls = demand ? BusTraffic::DemandRequest
                                      : BusTraffic::CpuPrefetchRequest;
    const TrafficSplit split =
        demand ? TrafficSplit::Demand : TrafficSplit::Prefetch;
    const sim::Cycle req_occ = tp_.busRequestOccupancy();
    const sim::Cycle req_done = bus_.transfer(issue, req_occ, req_cls);
    if (audit_)
        audit_->busPhase(core, split, issue, req_done - req_occ,
                         req_occ);
    const sim::Cycle at_controller = req_done + reqPathFixed;

    // The request is now visible in queue 2.  In Non-Verbose mode the
    // ULMT only sees demand misses (Section 3.2).  Per-core observers
    // (percore serving mode) take precedence over the shared one.
    MissObserver *obs =
        core < coreObservers_.size() && coreObservers_[core]
            ? coreObservers_[core]
            : observer_;
    if (obs && (demand || verbose_)) {
        if (trace_ && demand) {
            observedFlowId_ = trace_->newFlowId();
            trace_->flow(sim::TracePhase::FlowStart, observedFlowId_,
                         at_controller, sim::traceTidMemsys);
        }
        observedCore_ = core;
        obs->observeMiss(at_controller, line_addr, kind);
        observedFlowId_ = 0;
        observedCore_ = 0;
    }

    // Track queue-1 occupancy for the prefetch cross-match.  Demand
    // and CPU-prefetch entries live in separate maps so a later
    // cross-match drop is attributed to the right cause (Figure 3)
    // and completions carry the matching event tag.
    if (demand)
        ++inflightDemand_[key];
    else
        ++inflightCpuPf_[key];

    // Demand fetches outrank all prefetch traffic at the DRAM.
    const DramAccessResult dram =
        dram_.accessLine(at_controller, line_addr,
                         /*high_priority=*/demand);
    if (audit_) {
        audit_->dramAccess(core, split, dram_.bankOf(line_addr),
                           dram_.channelOf(line_addr), at_controller,
                           dram.done,
                           (dram.rowHit ? tp_.bankRowHitCycles
                                        : tp_.bankRowMissCycles) +
                               tp_.channelXferCycles);
    }
    const BusTraffic data_cls = demand ? BusTraffic::DemandData
                                       : BusTraffic::CpuPrefetchData;
    const sim::Cycle data_occ = tp_.busDataOccupancy(tp_.l2.lineBytes);
    const sim::Cycle data_done =
        bus_.transfer(dram.done, data_occ, data_cls);
    if (audit_)
        audit_->busPhase(core, split, dram.done, data_done - data_occ,
                         data_occ);
    const sim::Cycle complete = data_done + respPathFixed;
    if (trace_)
        trace_->complete(demand ? "demand_fetch" : "cpu_pf_fetch",
                         "memsys", issue, complete - issue,
                         sim::traceTidMemsys);

    if (demand && core < coreQos_.size()) {
        ++coreQos_[core].demandFetches;
        coreQos_[core].q1Wait.sample(
            static_cast<double>(complete - issue));
    }

    eq_.schedule(complete, *this,
                 demand ? sim::EventKind::MemDemandDone
                        : sim::EventKind::MemCpuPfDone,
                 key);
    return complete;
}

void
MemorySystem::fire(sim::EventKind kind, std::uint64_t key,
                   std::uint64_t arrival)
{
    switch (kind) {
      case sim::EventKind::MemDemandDone: {
        auto it = inflightDemand_.find(key);
        SIM_ASSERT(it != inflightDemand_.end(),
                   "in-flight demand entry vanished");
        if (--it->second == 0)
            inflightDemand_.erase(it);
        break;
      }
      case sim::EventKind::MemCpuPfDone: {
        auto it = inflightCpuPf_.find(key);
        SIM_ASSERT(it != inflightCpuPf_.end(),
                   "in-flight CPU-prefetch entry vanished");
        if (--it->second == 0)
            inflightCpuPf_.erase(it);
        break;
      }
      case sim::EventKind::MemPfArrival:
        inflightPf_.erase(key);
        if (push_)
            push_(arrival, sim::lineOfKey(key), sim::coreOfKey(key));
        break;
      default:
        sim::panic("memory system fired a foreign event kind %u",
                   static_cast<unsigned>(kind));
    }
}

bool
MemorySystem::ulmtPrefetch(sim::Cycle ready, sim::Addr line_addr,
                           std::uint64_t flow, unsigned core,
                           unsigned engine, sim::Addr trigger)
{
    const sim::Addr key = sim::packCoreLine(core, line_addr);
    // With the VM layer on, a push whose line lies on a different
    // physical page than its trigger is meaningless: physical
    // contiguity across a page boundary says nothing about virtual
    // adjacency once pages can remap, so the controller refuses it
    // before spending any queue capacity.
    if (pageShift_ != 0 && trigger != noPfTrigger &&
        (line_addr >> pageShift_) != (trigger >> pageShift_)) {
        ++stats_.ulmtPrefetchesDroppedPageCross;
        if (trace_)
            trace_->instant("pf_drop_page_cross", "memsys", ready,
                            sim::traceTidMemsys);
        if (audit_)
            audit_->pushDropped(core, engine,
                                PushOutcome::DroppedPageCross, flow,
                                ready);
        return false;
    }
    // Queue 3 capacity: bounded number of prefetches in flight.  The
    // depth limit is shared by all tenants (one physical queue).
    if (inflightPf_.size() >= tp_.queueDepth) {
        ++stats_.ulmtPrefetchesDroppedQueueFull;
        if (trace_)
            trace_->instant("pf_drop_queue_full", "memsys", ready,
                            sim::traceTidMemsys);
        if (audit_)
            audit_->pushDropped(core, engine,
                                PushOutcome::DroppedQueueFull, flow,
                                ready);
        return false;
    }
    // Cross-match against queue 1: a higher-priority demand fetch for
    // the same line (from the same core) is already in flight, so the
    // prefetch is redundant.
    if (inflightDemand_.count(key)) {
        ++stats_.ulmtPrefetchesDroppedDemandMatch;
        if (trace_)
            trace_->instant("pf_drop_demand_match", "memsys", ready,
                            sim::traceTidMemsys);
        if (audit_)
            audit_->pushDropped(core, engine,
                                PushOutcome::DroppedDemandMatch, flow,
                                ready);
        return false;
    }
    // The same cross-match against an in-flight CPU prefetch: equally
    // redundant, but attributed to its own cause.
    if (inflightCpuPf_.count(key)) {
        ++stats_.ulmtPrefetchesDroppedCpuPfMatch;
        if (trace_)
            trace_->instant("pf_drop_cpu_pf_match", "memsys", ready,
                            sim::traceTidMemsys);
        if (audit_)
            audit_->pushDropped(core, engine,
                                PushOutcome::DroppedCpuPfMatch, flow,
                                ready);
        return false;
    }
    // A prefetch for this line is already in flight to the same core.
    if (inflightPf_.count(key)) {
        ++stats_.ulmtPrefetchesDroppedFilter;
        if (trace_)
            trace_->instant("pf_drop_filter", "memsys", ready,
                            sim::traceTidMemsys);
        if (audit_)
            audit_->pushDropped(core, engine,
                                PushOutcome::DroppedFilter, flow,
                                ready);
        return false;
    }
    // Filter module: drop addresses prefetched very recently.  Only
    // requests that actually issue are recorded in the FIFO.  Keyed by
    // (core, line): the same line pushed to two different L2s is two
    // useful prefetches, not a repeat.
    if (!filter_.admit(key)) {
        ++stats_.ulmtPrefetchesDroppedFilter;
        if (trace_)
            trace_->instant("pf_drop_filter", "memsys", ready,
                            sim::traceTidMemsys);
        if (audit_)
            audit_->pushDropped(core, engine,
                                PushOutcome::DroppedFilter, flow,
                                ready);
        return false;
    }

    ++stats_.ulmtPrefetchesIssued;
    if (core < coreQos_.size())
        ++coreQos_[core].ulmtPrefetchesIssued;

    sim::Cycle start = ready;
    if (tp_.placement == MemProcPlacement::NorthBridge)
        start += tp_.prefetchInjectDelay;

    const DramAccessResult dram =
        dram_.accessLine(start, line_addr, /*high_priority=*/false);
    if (audit_) {
        audit_->dramAccess(core, TrafficSplit::Prefetch,
                           dram_.bankOf(line_addr),
                           dram_.channelOf(line_addr), start, dram.done,
                           (dram.rowHit ? tp_.bankRowHitCycles
                                        : tp_.bankRowMissCycles) +
                               tp_.channelXferCycles);
    }
    const sim::Cycle data_occ = tp_.busDataOccupancy(tp_.l2.lineBytes);
    const sim::Cycle data_done =
        bus_.transfer(dram.done, data_occ,
                      BusTraffic::UlmtPrefetchData);
    if (audit_)
        audit_->busPhase(core, TrafficSplit::Prefetch, dram.done,
                         data_done - data_occ, data_occ);
    const sim::Cycle arrival = data_done + respPathFixed;
    if (trace_) {
        trace_->complete("ulmt_prefetch", "memsys", start,
                         arrival - start, sim::traceTidMemsys);
        // With the auditor attached the flow arrow ends at the push's
        // terminal outcome instead of its issue.
        if (flow)
            trace_->flow(audit_ ? sim::TracePhase::FlowStep
                                : sim::TracePhase::FlowEnd,
                         flow, start, sim::traceTidMemsys);
    }
    if (audit_)
        audit_->pushIssued(core, engine, flow, key, ready, arrival);

    inflightPf_[key] = arrival;
    eq_.schedule(arrival, *this, sim::EventKind::MemPfArrival, key,
                 arrival);
    return true;
}

sim::Cycle
MemorySystem::tableAccess(sim::Cycle ready, sim::Addr addr, bool is_write)
{
    if (is_write)
        ++stats_.tableWrites;
    else
        ++stats_.tableReads;

    if (!tcache_.enabled())
        return dramTableAccess(ready, addr, is_write);

    // MSCache path: probe the SRAM tag array first.  Only misses and
    // the write-backs the access displaced reach the DRAM banks; the
    // displaced lines drain fire-and-forget after the access itself,
    // back-to-back so same-row lines ride open-row hits.
    tcacheWbs_.clear();
    const bool hit = tcache_.access(addr, is_write, tcacheWbs_);
    sim::Cycle done;
    if (hit) {
        done = ready + tableCacheHitCycles;
        if (trace_)
            trace_->complete(is_write ? "tcache_write_hit"
                                      : "tcache_read_hit",
                             "memsys", ready, done - ready,
                             sim::traceTidMemsys);
    } else {
        done = dramTableAccess(ready, addr, is_write);
    }
    sim::Cycle t = done;
    for (sim::Addr wb : tcacheWbs_)
        t = dramTableAccess(t, wb, /*is_write=*/true);
    return done;
}

void
MemorySystem::configureTableCache(const TableCacheSpec &spec)
{
    tcache_.configure(spec, tp_.memProcL1.lineBytes, tp_.dramRowBytes);
}

void
MemorySystem::tableInvalidate(sim::Cycle when, sim::Addr addr,
                              std::uint32_t bytes)
{
    if (!tcache_.enabled() || bytes == 0)
        return;
    tcacheWbs_.clear();
    tcache_.invalidateRange(addr - addr % tcache_.lineBytes(),
                            addr + bytes, tcacheWbs_);
    sim::Cycle t = when;
    for (sim::Addr wb : tcacheWbs_)
        t = dramTableAccess(t, wb, /*is_write=*/true);
}

sim::Cycle
MemorySystem::dramTableAccess(sim::Cycle ready, sim::Addr addr,
                              bool is_write)
{
    sim::Cycle done;
    if (tp_.placement == MemProcPlacement::InDram) {
        // Internal access: bank contention applies, but the 25.6 GB/s
        // on-chip bus makes the transfer itself nearly free.
        const DramAccessResult r =
            dram_.accessTable(ready, addr, /*through_channel=*/false);
        tableWait_.sample(static_cast<double>(
            r.done - ready -
            (r.rowHit ? tp_.tableBankRowHitCycles
                      : tp_.tableBankRowMissCycles)));
        if (audit_) {
            audit_->dramAccess(audit_->ulmtTenant(),
                               TrafficSplit::Other, dram_.bankOf(addr),
                               static_cast<std::size_t>(-1), ready,
                               r.done,
                               r.rowHit ? tp_.tableBankRowHitCycles
                                        : tp_.tableBankRowMissCycles);
        }
        done = r.done + tp_.tableAccessFixedDram;
    } else {
        // From the North Bridge the table data crosses the DRAM channel.
        const DramAccessResult r =
            dram_.accessTable(ready, addr, /*through_channel=*/true);
        if (audit_) {
            audit_->dramAccess(audit_->ulmtTenant(),
                               TrafficSplit::Other, dram_.bankOf(addr),
                               dram_.channelOf(addr), ready, r.done,
                               (r.rowHit ? tp_.tableBankRowHitCycles
                                         : tp_.tableBankRowMissCycles) +
                                   tp_.tableChannelXferCycles);
        }
        done = r.done + tp_.tableAccessFixedNorthBridge;
    }
    if (trace_)
        trace_->complete(is_write ? "table_write" : "table_read",
                         "memsys", ready, done - ready,
                         sim::traceTidMemsys);
    return done;
}

void
MemorySystem::writeback(sim::Cycle when, sim::Addr line_addr,
                        unsigned core)
{
    ++stats_.writebacks;
    const sim::Cycle wb_occ = tp_.busDataOccupancy(tp_.l2.lineBytes);
    const sim::Cycle on_bus =
        bus_.transfer(when, wb_occ, BusTraffic::Writeback);
    if (audit_)
        audit_->busPhase(core, TrafficSplit::Other, when,
                         on_bus - wb_occ, wb_occ);
    const DramAccessResult wr = dram_.writeLine(on_bus, line_addr);
    if (audit_) {
        audit_->dramAccess(core, TrafficSplit::Other,
                           dram_.bankOf(line_addr),
                           dram_.channelOf(line_addr), on_bus, wr.done,
                           (wr.rowHit ? tp_.bankRowHitCycles
                                      : tp_.bankRowMissCycles) +
                               tp_.channelXferCycles);
    }
    if (trace_)
        trace_->complete("writeback", "memsys", when, on_bus - when,
                         sim::traceTidMemsys);
}

void
MemorySystem::registerStats(sim::StatRegistry &reg) const
{
    reg.addCounter("memsys.demand_fetches", &stats_.demandFetches);
    reg.addCounter("memsys.cpu_pf_fetches", &stats_.cpuPrefetchFetches);
    reg.addCounter("memsys.writebacks", &stats_.writebacks);
    reg.addCounter("memsys.queue3.issued",
                   &stats_.ulmtPrefetchesIssued);
    reg.addCounter("memsys.queue3.drops.filter",
                   &stats_.ulmtPrefetchesDroppedFilter);
    reg.addCounter("memsys.queue3.drops.queue_full",
                   &stats_.ulmtPrefetchesDroppedQueueFull);
    reg.addCounter("memsys.queue3.drops.demand_match",
                   &stats_.ulmtPrefetchesDroppedDemandMatch);
    reg.addCounter("memsys.queue3.drops.cpu_pf_match",
                   &stats_.ulmtPrefetchesDroppedCpuPfMatch);
    reg.addCounter("memsys.queue3.drops.page_cross",
                   &stats_.ulmtPrefetchesDroppedPageCross);
    reg.addCounter("memsys.table.reads", &stats_.tableReads);
    reg.addCounter("memsys.table.writes", &stats_.tableWrites);
    reg.addSample("memsys.table.wait_cycles", &tableWait_);
    reg.addGauge("memsys.filter.admits",
                 [this] { return double(filter_.admits()); });
    reg.addGauge("memsys.filter.drops",
                 [this] { return double(filter_.drops()); });
    // Table-cache counters only exist when --table-cache is on so the
    // default stat namespace (and BENCH JSON) is unchanged.
    if (tcache_.enabled())
        tcache_.registerStats(reg);
    // Per-tenant QoS counters only appear on multicore machines so the
    // single-core stat namespace is unchanged.  setNumCores() must run
    // before registration (resizing would invalidate the pointers).
    if (numCores_ > 1) {
        for (unsigned c = 0; c < coreQos_.size(); ++c) {
            const std::string p =
                "memsys.core." + std::to_string(c) + ".";
            reg.addCounter(p + "demand_fetches",
                           &coreQos_[c].demandFetches);
            reg.addCounter(p + "pf_issued",
                           &coreQos_[c].ulmtPrefetchesIssued);
            reg.addSample(p + "q1_wait_cycles", &coreQos_[c].q1Wait);
        }
    }
    bus_.registerStats(reg);
    dram_.registerStats(reg);
}

void
MemorySystem::walk(ckpt::Stream &s)
{
    s.u64(stats_.demandFetches, stats_.cpuPrefetchFetches,
          stats_.writebacks, stats_.ulmtPrefetchesIssued,
          stats_.ulmtPrefetchesDroppedFilter,
          stats_.ulmtPrefetchesDroppedQueueFull,
          stats_.ulmtPrefetchesDroppedDemandMatch,
          stats_.ulmtPrefetchesDroppedCpuPfMatch,
          stats_.ulmtPrefetchesDroppedPageCross, stats_.tableReads,
          stats_.tableWrites);
    ckpt::walk(s, tableWait_);
    s.expect(coreQos_.size(),
             "checkpoint core count does not match this machine");
    for (CoreQos &q : coreQos_) {
        s.u64(q.demandFetches, q.ulmtPrefetchesIssued);
        ckpt::walk(s, q.q1Wait);
    }
    filter_.walk(s);

    // The in-flight maps iterate in unspecified order; sortedMap
    // writes them by key, so identical state yields identical bytes.
    const auto counted = [&s](sim::Addr &line, std::uint32_t &n) {
        s.u64(line);
        s.u32(n);
    };
    s.sortedMap(inflightDemand_, counted);
    s.sortedMap(inflightCpuPf_, counted);
    s.sortedMap(inflightPf_, [&s](sim::Addr &line, sim::Cycle &arrival) {
        s.u64(line, arrival);
    });

    bus_.walk(s);
    dram_.walk(s);
}

void
MemorySystem::checkInvariants(
    check::CheckContext &ctx,
    const std::vector<sim::SavedEvent> &pending) const
{
    // Recount the pending completion events by kind.
    std::unordered_map<sim::Addr, std::uint32_t> demand_events;
    std::unordered_map<sim::Addr, std::uint32_t> cpu_pf_events;
    std::unordered_map<sim::Addr, sim::Cycle> pf_events;
    for (const sim::SavedEvent &e : pending) {
        switch (static_cast<sim::EventKind>(e.kind)) {
          case sim::EventKind::MemDemandDone:
            ++demand_events[e.arg0];
            break;
          case sim::EventKind::MemCpuPfDone:
            ++cpu_pf_events[e.arg0];
            break;
          case sim::EventKind::MemPfArrival:
            if (!ctx.require(pf_events.count(e.arg0) == 0, "memsys",
                             "two MemPfArrival events pending for " +
                                 check::hex(e.arg0)))
                break;
            pf_events[e.arg0] = e.arg1;
            break;
          default:
            break;
        }
    }

    const auto diffCounts =
        [&ctx](const sim::FlatMap<std::uint32_t> &map,
               const std::unordered_map<sim::Addr, std::uint32_t> &evs,
               const std::string &what) {
            for (const auto &[line, count] : map) {
                auto it = evs.find(line);
                const std::uint32_t have =
                    it == evs.end() ? 0 : it->second;
                ctx.require(count > 0, "memsys",
                            what + " map holds a zero count for " +
                                check::hex(line));
                ctx.require(have == count, "memsys",
                            what + " entry " + check::hex(line) +
                                " has " + std::to_string(count) +
                                " in flight but " +
                                std::to_string(have) +
                                " pending completion event(s)");
            }
            for (const auto &[line, have] : evs) {
                (void)have;
                ctx.require(map.count(line) != 0, "memsys",
                            what + " completion event pending for " +
                                check::hex(line) +
                                " with no in-flight entry");
            }
        };
    diffCounts(inflightDemand_, demand_events, "queue-1 demand");
    diffCounts(inflightCpuPf_, cpu_pf_events, "queue-1 cpu-prefetch");

    ctx.require(inflightPf_.size() <= tp_.queueDepth, "memsys",
                "queue 3 holds " + std::to_string(inflightPf_.size()) +
                    " prefetches, depth limit " +
                    std::to_string(tp_.queueDepth));
    for (const auto &[line, arrival] : inflightPf_) {
        auto it = pf_events.find(line);
        if (!ctx.require(it != pf_events.end(), "memsys",
                         "queue-3 entry " + check::hex(line) +
                             " has no pending MemPfArrival event"))
            continue;
        ctx.require(it->second == arrival, "memsys",
                    "queue-3 entry " + check::hex(line) +
                        " records arrival " + std::to_string(arrival) +
                        " but the event says " +
                        std::to_string(it->second));
    }
    for (const auto &[line, arrival] : pf_events) {
        (void)arrival;
        ctx.require(inflightPf_.count(line) != 0, "memsys",
                    "MemPfArrival pending for " + check::hex(line) +
                        " with no queue-3 entry");
    }

    filter_.checkInvariants(ctx);
    if (tcache_.enabled())
        tcache_.checkInvariants(ctx);
}

} // namespace mem
