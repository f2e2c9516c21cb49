#include "cpu/hierarchy.hh"

#include <algorithm>
#include <vector>

#include "ckpt/sim_state.hh"
#include "vm/vm.hh"

namespace cpu {

namespace {

/** How long an evicted dirty line stays visible in the WB queue. */
constexpr sim::Cycle wbQueueResidency = 96;

} // namespace

Hierarchy::Hierarchy(sim::EventQueue &eq, const mem::TimingParams &tp,
                     mem::MemorySystem &ms, bool enable_stream_pf,
                     unsigned core)
    : eq_(eq), tp_(tp), ms_(ms), core_(core), l1_("L1", tp.l1),
      l2_("L2", tp.l2),
      l2Mshrs_(tp.l2Mshrs), streamPfEnabled_(enable_stream_pf),
      streamPf_(StreamPrefetcherParams{tp.streamNumSeq,
                                       tp.streamNumPref,
                                       tp.l1.lineBytes, 16}),
      missGaps_({0.0, 80.0, 200.0, 280.0})
{
}

void
Hierarchy::setVm(vm::Vm *v)
{
    vm_ = v;
    pageShift_ = v ? v->pageShift() : 0;
}

void
Hierarchy::recordMissAtMemory(sim::Cycle at_memory)
{
    if (lastMissAtMemory_ != sim::neverCycle &&
        at_memory >= lastMissAtMemory_) {
        missGaps_.sample(
            static_cast<double>(at_memory - lastMissAtMemory_));
    }
    lastMissAtMemory_ = at_memory;
}

AccessOutcome
Hierarchy::access(sim::Cycle when, sim::Addr addr, bool is_write)
{
    if (is_write)
        ++stats_.stores;
    else
        ++stats_.loads;

    // With the VM layer attached the processor issues virtual
    // addresses; translate before the L1 index (a TLB miss charges the
    // page walk onto the issue cycle).
    if (vm_)
        addr = vm_->translate(core_, addr, when);

    if (mem::CacheLine *line = l1_.access(addr)) {
        ++stats_.l1Hits;
        AccessOutcome out;
        if (line->readyAt > when) {
            // Delayed hit on an in-flight L1 fill (MSHR merge).
            out.complete = line->readyAt;
            out.served = line->fillOrigin;
        } else {
            out.complete = when + tp_.l1HitRt;
            out.served = sim::ServedBy::L1;
        }
        if (line->cpuPrefetched) {
            // First demand touch of a stream-prefetched line.
            line->cpuPrefetched = false;
            ++stats_.cpuPfUseful;
            const bool late = line->readyAt > when;
            if (!late)
                ++stats_.cpuPfTimely;
            if (streamPfEnabled_) {
                pfScratch_.clear();
                streamPf_.observePrefetchedTouch(addr, pfScratch_);
                issueCpuPrefetches(when, addr);
            }
        }
        if (is_write)
            line->dirty = true;
        return out;
    }

    ++stats_.l1Misses;
    AccessOutcome out = accessL2(when, addr, /*count_demand=*/true);
    mem::CacheLine *line =
        fillL1(when, addr, out.complete, out.served, false);
    if (is_write)
        line->dirty = true;

    if (streamPfEnabled_) {
        pfScratch_.clear();
        streamPf_.observeMiss(addr, pfScratch_);
        issueCpuPrefetches(when, addr);
    }
    return out;
}

AccessOutcome
Hierarchy::accessL2(sim::Cycle when, sim::Addr addr, bool count_demand)
{
    const sim::Addr line_addr = l2_.lineAddr(addr);

    if (mem::CacheLine *line = l2_.access(line_addr)) {
        AccessOutcome out;
        if (line->readyAt > when) {
            // The line is being filled already: merge into the MSHR.
            if (count_demand)
                ++stats_.l2MshrMerges;
            out.complete = std::max(when + tp_.l2HitRt, line->readyAt);
            out.served = line->fillOrigin;
        } else {
            if (count_demand)
                ++stats_.l2Hits;
            out.complete = when + tp_.l2HitRt;
            out.served = sim::ServedBy::L2;
        }
        if (line->prefetched) {
            // Demand reference to a ULMT-pushed line: a full hit.
            line->prefetched = false;
            if (count_demand) {
                ++stats_.ulmtHits;
                if (audit_)
                    audit_->pushUsedTimely(core_, line_addr, when);
            }
        }
        line->cpuPrefetched = false;
        return out;
    }

    if (count_demand) {
        ++stats_.l2Misses;
        if (onDemandL2Miss)
            onDemandL2Miss(when, line_addr);
    }

    // A ULMT prefetch for this line is in flight: the reply will steal
    // the MSHR and service this miss (a DelayedHit, Section 2.1).
    const sim::Cycle pf_arrival =
        ms_.inflightPrefetchArrival(line_addr, core_);
    if (pf_arrival != sim::neverCycle) {
        if (count_demand)
            ++stats_.ulmtDelayedHits;
        AccessOutcome out;
        out.complete = std::max(when + tp_.l2HitRt, pf_arrival);
        out.served = sim::ServedBy::Memory;
        const sim::Cycle nominal = tp_.memRowHitRt();
        const sim::Cycle paid = out.complete - when;
        if (count_demand && nominal > paid)
            stats_.delayedHitSavedCycles += nominal - paid;
        claimedPush_.insert(line_addr);
        if (audit_)
            audit_->pushUsedLate(core_, line_addr, when, pf_arrival);
        l2Mshrs_.add(out.complete);
        fillL2(when, line_addr, out.complete, sim::ServedBy::Memory,
               /*ulmt_pushed=*/false, false);
        return out;
    }

    // Genuine memory fetch.
    const sim::Cycle start = l2Mshrs_.acquire(when);
    recordMissAtMemory(start);
    const sim::Cycle complete =
        ms_.fetchLine(start, line_addr, sim::RequestKind::Demand, core_);
    l2Mshrs_.add(complete);
    if (count_demand)
        ++stats_.nonPrefMisses;
    fillL2(when, line_addr, complete, sim::ServedBy::Memory, false,
           false);
    return {complete, sim::ServedBy::Memory};
}

void
Hierarchy::issueCpuPrefetches(sim::Cycle when, sim::Addr addr)
{
    for (sim::Addr pf : pfScratch_) {
        if (pageShift_ != 0 && (pf >> pageShift_) != (addr >> pageShift_))
            ++stats_.cpuPfDroppedPageCross;
        else
            issueCpuPrefetch(when, pf);
    }
}

void
Hierarchy::issueCpuPrefetch(sim::Cycle when, sim::Addr addr)
{
    ++stats_.cpuPfIssued;
    if (l1_.find(addr))
        return;

    const sim::Addr line_addr = l2_.lineAddr(addr);
    if (mem::CacheLine *line = l2_.find(line_addr)) {
        l2_.touch(line);
        const sim::Cycle ready =
            std::max(when + tp_.l2HitRt, line->readyAt);
        fillL1(when, addr, ready, sim::ServedBy::L2, true);
        return;
    }

    // A ULMT push in flight covers the L2 fill; just stage the L1 copy.
    const sim::Cycle pf_arrival =
        ms_.inflightPrefetchArrival(line_addr, core_);
    if (pf_arrival != sim::neverCycle) {
        fillL1(when, addr, pf_arrival, sim::ServedBy::Memory, true);
        return;
    }

    l2Mshrs_.expire(when);
    if (l2Mshrs_.full())
        return;  // no MSHR: drop the prefetch

    ++stats_.cpuPfToMemory;
    const sim::Cycle complete =
        ms_.fetchLine(when, line_addr, sim::RequestKind::CpuPrefetch,
                      core_);
    l2Mshrs_.add(complete);
    fillL2(when, line_addr, complete, sim::ServedBy::Memory, false,
           false);
    fillL1(when, addr, complete, sim::ServedBy::Memory, true);
}

mem::CacheLine *
Hierarchy::fillL1(sim::Cycle now, sim::Addr addr, sim::Cycle ready_at,
                  sim::ServedBy origin, bool cpu_prefetched)
{
    mem::Eviction ev;
    mem::CacheLine *line = l1_.insert(addr, now, ready_at, ev);
    line->fillOrigin = origin;
    line->cpuPrefetched = cpu_prefetched;
    if (ev.valid) {
        if (ev.cpuPrefetched)
            ++stats_.cpuPfReplaced;
        if (ev.dirty) {
            // Write the L1 victim down into the L2 (non-inclusive: if
            // the L2 no longer holds it, it goes to memory).
            if (mem::CacheLine *l2line = l2_.find(ev.lineAddr))
                l2line->dirty = true;
            else
                ms_.writeback(now, l2_.lineAddr(ev.lineAddr), core_);
        }
    }
    return line;
}

mem::CacheLine *
Hierarchy::fillL2(sim::Cycle now, sim::Addr addr, sim::Cycle ready_at,
                  sim::ServedBy origin, bool ulmt_pushed,
                  bool cpu_prefetched)
{
    mem::Eviction ev;
    mem::CacheLine *line = l2_.insert(addr, now, ready_at, ev);
    line->fillOrigin = origin;
    line->prefetched = ulmt_pushed;
    line->cpuPrefetched = cpu_prefetched;
    if (ev.valid) {
        if (ev.prefetched) {
            ++stats_.ulmtReplaced;
            if (audit_)
                audit_->pushEvicted(core_, ev.lineAddr, now);
        }
        if (ev.dirty) {
            ms_.writeback(now, ev.lineAddr, core_);
            wbQueue_[ev.lineAddr] = now + wbQueueResidency;
        }
    }
    if (wbQueue_.size() > 128)
        wbQueue_.eraseIf([now](const auto &e) { return e.second <= now; });
    return line;
}

void
Hierarchy::acceptPush(sim::Cycle when, sim::Addr line_addr)
{
    // A matching demand miss already claimed this reply (DelayedHit);
    // the line was installed when the claim was made.
    if (claimedPush_.erase(line_addr))
        return;

    // Drop rule 1: the L2 already has a copy.
    if (l2_.find(line_addr)) {
        ++stats_.pushRedundantPresent;
        if (audit_)
            audit_->pushRedundant(core_, line_addr, when);
        return;
    }
    // Drop rule 2: the line sits in the write-back queue.
    auto wb = wbQueue_.find(line_addr);
    if (wb != wbQueue_.end()) {
        if (wb->second > when) {
            ++stats_.pushRedundantWb;
            if (audit_)
                audit_->pushRedundant(core_, line_addr, when);
            return;
        }
        wbQueue_.erase(wb);
    }
    // Drop rule 3: all MSHRs busy.
    l2Mshrs_.expire(when);
    if (l2Mshrs_.full()) {
        ++stats_.pushDroppedMshrFull;
        if (audit_)
            audit_->pushRedundant(core_, line_addr, when);
        return;
    }
    // Drop rule 4: the whole target set is transaction-pending.
    if (l2_.setAllPending(line_addr, when)) {
        ++stats_.pushDroppedSetPending;
        if (audit_)
            audit_->pushRedundant(core_, line_addr, when);
        return;
    }

    fillL2(when, line_addr, when, sim::ServedBy::Memory,
           /*ulmt_pushed=*/true, false);
    ++stats_.pushInstalled;
    if (audit_)
        audit_->pushInstalled(core_, line_addr, when);
}

void
Hierarchy::registerStats(sim::StatRegistry &reg,
                         const std::string &prefix) const
{
    const auto n = [&prefix](const char *name) {
        return prefix + name;
    };
    reg.addCounter(n("proc.loads"), &stats_.loads);
    reg.addCounter(n("proc.stores"), &stats_.stores);
    reg.addCounter(n("l1.hits"), &stats_.l1Hits);
    reg.addCounter(n("l1.misses"), &stats_.l1Misses);
    reg.addCounter(n("l2.hits"), &stats_.l2Hits);
    reg.addCounter(n("l2.misses"), &stats_.l2Misses);
    reg.addCounter(n("l2.mshr.merges"), &stats_.l2MshrMerges);
    reg.addCounter(n("l2.push.hits"), &stats_.ulmtHits);
    reg.addCounter(n("l2.push.delayed_hits"), &stats_.ulmtDelayedHits);
    reg.addCounter(n("l2.push.non_pref_misses"), &stats_.nonPrefMisses);
    reg.addCounter(n("l2.push.replaced"), &stats_.ulmtReplaced);
    reg.addCounter(n("l2.push.redundant_present"),
                   &stats_.pushRedundantPresent);
    reg.addCounter(n("l2.push.redundant_wb"), &stats_.pushRedundantWb);
    reg.addCounter(n("l2.push.dropped_mshr_full"),
                   &stats_.pushDroppedMshrFull);
    reg.addCounter(n("l2.push.dropped_set_pending"),
                   &stats_.pushDroppedSetPending);
    reg.addCounter(n("l2.push.installed"), &stats_.pushInstalled);
    reg.addCounter(n("l2.push.delayed_hit_saved_cycles"),
                   &stats_.delayedHitSavedCycles);
    reg.addCounter(n("cpu_pf.issued"), &stats_.cpuPfIssued);
    reg.addCounter(n("cpu_pf.to_memory"), &stats_.cpuPfToMemory);
    reg.addCounter(n("cpu_pf.useful"), &stats_.cpuPfUseful);
    reg.addCounter(n("cpu_pf.timely"), &stats_.cpuPfTimely);
    reg.addCounter(n("cpu_pf.replaced"), &stats_.cpuPfReplaced);
    reg.addCounter(n("cpu_pf.dropped_page_cross"),
                   &stats_.cpuPfDroppedPageCross);
    reg.addHistogram(n("l2.miss_gap_cycles"), &missGaps_);
}

void
Hierarchy::walk(ckpt::Stream &s)
{
    l1_.walk(s);
    l2_.walk(s);
    l2Mshrs_.walk(s);
    if (streamPfEnabled_)
        streamPf_.walk(s);
    s.sortedSet(claimedPush_);
    s.sortedMap(wbQueue_, [&s](sim::Addr &line, sim::Cycle &retire) {
        s.u64(line, retire);
    });

    s.u64(stats_.loads, stats_.stores, stats_.l1Hits, stats_.l1Misses,
          stats_.l2Hits, stats_.l2Misses, stats_.l2MshrMerges,
          stats_.ulmtHits, stats_.ulmtDelayedHits, stats_.nonPrefMisses,
          stats_.ulmtReplaced, stats_.pushRedundantPresent,
          stats_.pushRedundantWb, stats_.pushDroppedMshrFull,
          stats_.pushDroppedSetPending, stats_.pushInstalled,
          stats_.delayedHitSavedCycles, stats_.cpuPfIssued,
          stats_.cpuPfToMemory, stats_.cpuPfUseful, stats_.cpuPfTimely,
          stats_.cpuPfReplaced, stats_.cpuPfDroppedPageCross);

    ckpt::walk(s, missGaps_);
    s.u64(lastMissAtMemory_);
}

} // namespace cpu
