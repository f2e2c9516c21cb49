#include "mem/prefetch_audit.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace mem {

namespace {

/** Lead-time bin edges (cycles).  The row-miss round trip is ~300
 *  cycles, so the bins resolve "barely ahead" through "resident for a
 *  long time before the touch". */
const std::vector<double> leadTimeEdges{0.0,    256.0,   1024.0,
                                        4096.0, 16384.0, 65536.0};

constexpr std::size_t
splitIdx(TrafficSplit cls)
{
    return static_cast<std::size_t>(cls);
}

} // namespace

const char *
pushOutcomeName(PushOutcome o)
{
    switch (o) {
      case PushOutcome::UsefulTimely: return "useful_timely";
      case PushOutcome::UsefulLate: return "useful_late";
      case PushOutcome::EvictedUnused: return "evicted_unused";
      case PushOutcome::Redundant: return "redundant";
      case PushOutcome::DroppedFilter: return "dropped_filter";
      case PushOutcome::DroppedQueueFull: return "dropped_queue_full";
      case PushOutcome::DroppedDemandMatch:
        return "dropped_demand_match";
      case PushOutcome::DroppedCpuPfMatch:
        return "dropped_cpu_pf_match";
      case PushOutcome::DroppedPageCross:
        return "dropped_page_cross";
    }
    return "unknown";
}

PrefetchAudit::PrefetchAudit(unsigned cores, unsigned engines,
                             std::size_t banks, std::size_t channels)
    : numCores_(cores), numEngines_(engines ? engines : 1),
      engines_(numEngines_), bankOwner_(banks), chanOwner_(channels)
{
    SIM_ASSERT(cores >= 1, "PrefetchAudit needs at least one core");
    cores_.reserve(cores);
    for (unsigned c = 0; c < cores; ++c)
        cores_.emplace_back(leadTimeEdges, cores + 1);
}

void
PrefetchAudit::countOutcome(AuditOutcomeCounts &c, PushOutcome o)
{
    switch (o) {
      case PushOutcome::UsefulTimely: ++c.usefulTimely; break;
      case PushOutcome::UsefulLate: ++c.usefulLate; break;
      case PushOutcome::EvictedUnused: ++c.evictedUnused; break;
      case PushOutcome::Redundant: ++c.redundant; break;
      case PushOutcome::DroppedFilter: ++c.droppedFilter; break;
      case PushOutcome::DroppedQueueFull: ++c.droppedQueueFull; break;
      case PushOutcome::DroppedDemandMatch:
        ++c.droppedDemandMatch;
        break;
      case PushOutcome::DroppedCpuPfMatch:
        ++c.droppedCpuPfMatch;
        break;
      case PushOutcome::DroppedPageCross:
        ++c.droppedPageCross;
        break;
    }
}

void
PrefetchAudit::terminal(unsigned core, const PushRecord *rec,
                        PushOutcome o, sim::Cycle when)
{
    countOutcome(cores_[core].push, o);
    if (rec && rec->engine < numEngines_)
        countOutcome(engines_[rec->engine], o);
    if (trace_) {
        if (rec && rec->flow) {
            trace_->flow(sim::TracePhase::FlowEnd, rec->flow, when,
                         sim::traceTidMemsys);
        }
        trace_->instant(std::string("pf_outcome_") + pushOutcomeName(o),
                        "audit", when, sim::traceTidMemsys);
    }
}

void
PrefetchAudit::pushDropped(unsigned core, unsigned engine,
                           PushOutcome reason, std::uint64_t flow,
                           sim::Cycle when)
{
    // Drops never entered the in-flight map; synthesize the record so
    // the engine attribution and flow end still happen.  The memory
    // system already emitted a pf_drop_* instant, so only the flow arrow
    // is annotated here.
    countOutcome(cores_[core].push, reason);
    if (engine < numEngines_)
        countOutcome(engines_[engine], reason);
    if (trace_ && flow) {
        trace_->flow(sim::TracePhase::FlowEnd, flow, when,
                     sim::traceTidMemsys);
    }
}

void
PrefetchAudit::pushIssued(unsigned core, unsigned engine,
                          std::uint64_t flow, sim::Addr key,
                          sim::Cycle ready, sim::Cycle arrival)
{
    ++cores_[core].push.issued;
    if (engine < numEngines_)
        ++engines_[engine].issued;
    cores_[core].issueToFill.sample(
        static_cast<double>(arrival - ready));
    PushRecord rec;
    rec.engine = engine;
    rec.flow = flow;
    inflight_[key] = rec;
}

void
PrefetchAudit::pushInstalled(unsigned core, sim::Addr line_addr,
                             sim::Cycle when)
{
    const sim::Addr key = sim::packCoreLine(core, line_addr);
    auto it = inflight_.find(key);
    if (it == inflight_.end())
        return;  // restored run: the push predates the audit window
    PushRecord rec = it->second;
    inflight_.erase(it);
    rec.fill = when;
    installed_[key] = rec;
}

void
PrefetchAudit::pushUsedTimely(unsigned core, sim::Addr line_addr,
                              sim::Cycle when)
{
    const sim::Addr key = sim::packCoreLine(core, line_addr);
    auto it = installed_.find(key);
    if (it == installed_.end()) {
        terminal(core, nullptr, PushOutcome::UsefulTimely, when);
        return;
    }
    const PushRecord rec = it->second;
    installed_.erase(it);
    cores_[core].leadTime.sample(static_cast<double>(when - rec.fill));
    terminal(core, &rec, PushOutcome::UsefulTimely, when);
}

void
PrefetchAudit::pushUsedLate(unsigned core, sim::Addr line_addr,
                            sim::Cycle when, sim::Cycle arrival)
{
    const sim::Addr key = sim::packCoreLine(core, line_addr);
    cores_[core].lateCycles.sample(
        arrival > when ? static_cast<double>(arrival - when) : 0.0);
    auto it = inflight_.find(key);
    if (it == inflight_.end()) {
        terminal(core, nullptr, PushOutcome::UsefulLate, arrival);
        return;
    }
    const PushRecord rec = it->second;
    inflight_.erase(it);
    terminal(core, &rec, PushOutcome::UsefulLate, arrival);
}

void
PrefetchAudit::pushRedundant(unsigned core, sim::Addr line_addr,
                             sim::Cycle when)
{
    const sim::Addr key = sim::packCoreLine(core, line_addr);
    auto it = inflight_.find(key);
    if (it == inflight_.end()) {
        terminal(core, nullptr, PushOutcome::Redundant, when);
        return;
    }
    const PushRecord rec = it->second;
    inflight_.erase(it);
    terminal(core, &rec, PushOutcome::Redundant, when);
}

void
PrefetchAudit::pushEvicted(unsigned core, sim::Addr line_addr,
                           sim::Cycle when)
{
    const sim::Addr key = sim::packCoreLine(core, line_addr);
    auto it = installed_.find(key);
    if (it == installed_.end()) {
        terminal(core, nullptr, PushOutcome::EvictedUnused, when);
        return;
    }
    const PushRecord rec = it->second;
    installed_.erase(it);
    terminal(core, &rec, PushOutcome::EvictedUnused, when);
}

void
PrefetchAudit::chargeWait(unsigned victim, const ResOwner &owner,
                          sim::Cycle ready, sim::Cycle wait)
{
    if (wait == 0)
        return;
    // Last-owner approximation: blame whoever most recently held the
    // resource past our ready cycle; with no such owner (start of run,
    // post-restore) the wait is self-inflicted queueing.
    const unsigned blame =
        owner.valid && owner.end > ready ? owner.tenant : victim;
    cores_[victim].blockedBy[blame] += wait;
    blockedTotal_ += wait;
}

void
PrefetchAudit::updateOwner(ResOwner &owner, unsigned tenant,
                           sim::Cycle end)
{
    if (!owner.valid || end >= owner.end) {
        owner.tenant = tenant;
        owner.end = end;
        owner.valid = true;
    }
}

void
PrefetchAudit::busPhase(unsigned tenant, TrafficSplit cls,
                        sim::Cycle ready, sim::Cycle start,
                        sim::Cycle duration)
{
    if (tenant < numCores_) {
        cores_[tenant].busCycles[splitIdx(cls)] += duration;
        if (cls == TrafficSplit::Demand && start > ready)
            chargeWait(tenant, busOwner_, ready, start - ready);
    }
    updateOwner(busOwner_, tenant, start + duration);
}

void
PrefetchAudit::dramAccess(unsigned tenant, TrafficSplit cls,
                          std::size_t bank, std::size_t channel,
                          sim::Cycle ready, sim::Cycle done,
                          sim::Cycle occupancy)
{
    if (tenant < numCores_) {
        cores_[tenant].dramCycles[splitIdx(cls)] += occupancy;
        const sim::Cycle busy = done - ready;
        if (cls == TrafficSplit::Demand && busy > occupancy) {
            // Queueing happened at the bank or the channel; the bank's
            // owner is the more specific culprit.
            static const ResOwner none{};
            const ResOwner &bank_o =
                bank < bankOwner_.size() ? bankOwner_[bank] : none;
            const ResOwner &chan_o = channel < chanOwner_.size()
                                         ? chanOwner_[channel]
                                         : none;
            const bool bank_owned = bank_o.valid && bank_o.end > ready;
            chargeWait(tenant, bank_owned ? bank_o : chan_o, ready,
                       busy - occupancy);
        }
    } else {
        tableDramCycles_ += occupancy;
    }
    if (bank < bankOwner_.size())
        updateOwner(bankOwner_[bank], tenant, done);
    if (channel < chanOwner_.size())
        updateOwner(chanOwner_[channel], tenant, done);
}

void
PrefetchAudit::registerStats(
    sim::StatRegistry &reg,
    std::function<std::uint64_t(unsigned)> non_pref_misses)
{
    // The audit only observes the run: every leaf it publishes,
    // including the interference matrix, is passive.
    const sim::StatRegistry::PassiveScope passive(reg);
    for (unsigned c = 0; c < numCores_; ++c) {
        CoreAudit &a = cores_[c];
        const std::string p = "audit.core." + std::to_string(c) + ".";
        reg.addCounter(p + "issued", &a.push.issued);
        reg.addCounter(p + "useful_timely", &a.push.usefulTimely);
        reg.addCounter(p + "useful_late", &a.push.usefulLate);
        reg.addCounter(p + "evicted_unused", &a.push.evictedUnused);
        reg.addCounter(p + "redundant", &a.push.redundant);
        reg.addCounter(p + "dropped_filter", &a.push.droppedFilter);
        reg.addCounter(p + "dropped_queue_full",
                       &a.push.droppedQueueFull);
        reg.addCounter(p + "dropped_demand_match",
                       &a.push.droppedDemandMatch);
        reg.addCounter(p + "dropped_cpu_pf_match",
                       &a.push.droppedCpuPfMatch);
        reg.addCounter(p + "dropped_page_cross",
                       &a.push.droppedPageCross);
        reg.addGauge(p + "triggered", [&a] {
            return static_cast<double>(a.push.triggered());
        });
        reg.addGauge(p + "coverage", [&a, non_pref_misses, c] {
            return a.push.coverage(non_pref_misses(c));
        });
        reg.addGauge(p + "accuracy",
                     [&a] { return a.push.accuracy(); });
        reg.addGauge(p + "timeliness",
                     [&a] { return a.push.timeliness(); });
        reg.addHistogram(p + "lead_time_cycles", &a.leadTime);
        reg.addSample(p + "late_fill_cycles", &a.lateCycles);
        reg.addSample(p + "issue_to_fill_cycles", &a.issueToFill);
        reg.addCounter(p + "bus.demand_cycles", &a.busCycles[0]);
        reg.addCounter(p + "bus.prefetch_cycles", &a.busCycles[1]);
        reg.addCounter(p + "bus.other_cycles", &a.busCycles[2]);
        reg.addCounter(p + "dram.demand_cycles", &a.dramCycles[0]);
        reg.addCounter(p + "dram.prefetch_cycles", &a.dramCycles[1]);
        reg.addCounter(p + "dram.other_cycles", &a.dramCycles[2]);

        // The interference matrix lives in the controller's namespace
        // (it is a property of the shared memory system).
        const std::string b =
            "memsys.core." + std::to_string(c) + ".blocked_by.";
        for (unsigned j = 0; j < numCores_; ++j)
            reg.addCounter(b + std::to_string(j), &a.blockedBy[j]);
        reg.addCounter(b + "ulmt", &a.blockedBy[numCores_]);
    }
    for (unsigned e = 0; e < numEngines_; ++e) {
        AuditOutcomeCounts &ec = engines_[e];
        const std::string p =
            "audit.engine." + std::to_string(e) + ".";
        reg.addCounter(p + "issued", &ec.issued);
        reg.addCounter(p + "useful_timely", &ec.usefulTimely);
        reg.addCounter(p + "useful_late", &ec.usefulLate);
        reg.addCounter(p + "evicted_unused", &ec.evictedUnused);
        reg.addCounter(p + "redundant", &ec.redundant);
        reg.addCounter(p + "dropped_filter", &ec.droppedFilter);
        reg.addCounter(p + "dropped_queue_full",
                       &ec.droppedQueueFull);
        reg.addCounter(p + "dropped_demand_match",
                       &ec.droppedDemandMatch);
        reg.addCounter(p + "dropped_cpu_pf_match",
                       &ec.droppedCpuPfMatch);
        reg.addCounter(p + "dropped_page_cross",
                       &ec.droppedPageCross);
    }
    reg.addCounter("audit.ulmt.table_dram_cycles", &tableDramCycles_);
    reg.addCounter("audit.blocked_cycles_total", &blockedTotal_);
}

AuditOutcomeCounts
PrefetchAudit::totals() const
{
    AuditOutcomeCounts t;
    for (const CoreAudit &a : cores_) {
        t.issued += a.push.issued;
        t.usefulTimely += a.push.usefulTimely;
        t.usefulLate += a.push.usefulLate;
        t.evictedUnused += a.push.evictedUnused;
        t.redundant += a.push.redundant;
        t.droppedFilter += a.push.droppedFilter;
        t.droppedQueueFull += a.push.droppedQueueFull;
        t.droppedDemandMatch += a.push.droppedDemandMatch;
        t.droppedCpuPfMatch += a.push.droppedCpuPfMatch;
        t.droppedPageCross += a.push.droppedPageCross;
    }
    return t;
}

AuditReport
PrefetchAudit::report() const
{
    AuditReport r;
    r.enabled = true;
    for (const CoreAudit &a : cores_)
        r.cores.push_back({a.push});
    r.openInflight = inflight_.size();
    r.openInstalled = installed_.size();
    return r;
}

} // namespace mem
