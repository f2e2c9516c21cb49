#include "core/ulmt_engine.hh"

#include <algorithm>

#include "ckpt/sim_state.hh"
#include "sim/logging.hh"

namespace core {

namespace {

/** Main cycles charged per memory-processor L1 hit (pipelined). */
constexpr sim::Cycle mpCacheHitCharge = 2;

} // namespace

namespace {

std::vector<std::unique_ptr<CorrelationPrefetcher>>
oneShard(std::unique_ptr<CorrelationPrefetcher> algo)
{
    std::vector<std::unique_ptr<CorrelationPrefetcher>> shards;
    shards.push_back(std::move(algo));
    return shards;
}

} // namespace

UlmtEngine::UlmtEngine(sim::EventQueue &eq, const mem::TimingParams &tp,
                       mem::MemorySystem &ms,
                       std::unique_ptr<CorrelationPrefetcher> algo)
    : UlmtEngine(eq, tp, ms, oneShard(std::move(algo)),
                 /*num_cores=*/1, /*base_core=*/0, /*engine_id=*/0)
{
}

UlmtEngine::UlmtEngine(
    sim::EventQueue &eq, const mem::TimingParams &tp,
    mem::MemorySystem &ms,
    std::vector<std::unique_ptr<CorrelationPrefetcher>> shards,
    unsigned num_cores, unsigned base_core, unsigned engine_id)
    : eq_(eq), tp_(tp), ms_(ms), shards_(std::move(shards)),
      numCores_(num_cores), baseCore_(base_core), engineId_(engine_id),
      queues2_(num_cores), servedPerCore_(num_cores, 0),
      mpCache_("MemProcL1", tp.memProcL1)
{
    SIM_ASSERT(!shards_.empty(), "UlmtEngine needs an algorithm");
    SIM_ASSERT(num_cores >= 1, "UlmtEngine must serve a core");
    SIM_ASSERT(shards_.size() == 1 || shards_.size() == num_cores,
               "shard count must be 1 or one per served core");
    for (const auto &s : shards_)
        SIM_ASSERT(s != nullptr, "UlmtEngine shard is null");
}

std::uint32_t
UlmtEngine::traceTid() const
{
    // Engine 0 keeps the classic ULMT track; extra engines (percore
    // mode) get tids above the fixed component tracks.
    return engineId_ == 0 ? sim::traceTidUlmt
                          : sim::traceTidSampler + engineId_;
}

void
UlmtEngine::ExecCost::instr(std::uint32_t n)
{
    instructions_ += n;
    // 2-issue at 800 MHz: n/2 memory-processor cycles = n main cycles.
    const std::uint32_t width = engine_.tp_.memProcIssueWidth;
    busy_ += (static_cast<sim::Cycle>(n) *
                  sim::mainCyclesPerMemProcCycle +
              width - 1) /
             width;
}

void
UlmtEngine::ExecCost::touch(sim::Addr addr, std::uint32_t bytes,
                            bool is_write)
{
    const std::uint32_t line_bytes = engine_.mpCache_.lineBytes();
    const sim::Addr first = engine_.mpCache_.lineAddr(addr);
    const sim::Addr last = engine_.mpCache_.lineAddr(addr + bytes - 1);
    for (sim::Addr line = first; line <= last; line += line_bytes) {
        mem::CacheLine *cl = engine_.mpCache_.access(line);
        if (cl) {
            busy_ += mpCacheHitCharge;
        } else {
            // Miss: fetch the table line from DRAM (placement-
            // dependent latency, real bank contention).
            const sim::Cycle ready = start_ + busy_ + memStall_;
            const sim::Cycle done =
                engine_.ms_.tableAccess(ready, line, is_write);
            memStall_ += done - ready;

            mem::Eviction ev;
            cl = engine_.mpCache_.insert(line, 0, 0, ev);
            if (ev.valid && ev.dirty) {
                // Victim write-back drains through a write buffer: it
                // occupies the DRAM bank but does not stall the thread.
                engine_.ms_.tableAccess(done, ev.lineAddr, true);
            }
        }
        if (is_write)
            cl->dirty = true;
    }
}

void
UlmtEngine::ExecCost::memRead(sim::Addr addr, std::uint32_t bytes)
{
    touch(addr, bytes, false);
}

void
UlmtEngine::ExecCost::memWrite(sim::Addr addr, std::uint32_t bytes)
{
    touch(addr, bytes, true);
}

void
UlmtEngine::ExecCost::memInvalidate(sim::Addr addr, std::uint32_t bytes)
{
    // Remapped table bytes: the memory-side table cache must drop its
    // copies (dirty ones drain fire-and-forget).  Free of engine time
    // and a no-op without --table-cache, so pre-cache remap timing is
    // untouched.  Deliberately leaves the memory processor's own L1
    // alone: its lines are keyed by the same addresses the sweep
    // rewrites through memWrite(), the pre-existing behavior.
    engine_.ms_.tableInvalidate(start_ + busy_ + memStall_, addr,
                                bytes);
}

void
UlmtEngine::observeMiss(sim::Cycle when, sim::Addr line_addr,
                        sim::RequestKind /*kind*/)
{
    ++stats_.missesObserved;
    // Queue 2 overflow: the memory processor simply drops the request
    // (Section 3.2).  The depth limit is the single physical queue's,
    // shared by all per-core sub-queues.
    if (queue2Depth() >= tp_.queueDepth) {
        ++stats_.missesDroppedQueueFull;
        return;
    }
    const unsigned core = ms_.observedCore();
    SIM_ASSERT(core >= baseCore_ && core - baseCore_ < numCores_,
               "miss from a core this engine does not serve");
    queues2_[core - baseCore_].push_back(
        {when, line_addr, ms_.observedFlowId(), core});
    kick(when);
}

void
UlmtEngine::kick(sim::Cycle earliest)
{
    if (processingScheduled_)
        return;
    processingScheduled_ = true;
    sim::Cycle at = std::max(earliest, busyUntil_);
    at = std::max(at, eq_.now());
    eq_.schedule(at, *this, sim::EventKind::UlmtProcess, engineId_);
}

void
UlmtEngine::processNext()
{
    processingScheduled_ = false;
    // Round-robin over the per-core sub-queues: the first non-empty
    // queue at or after the cursor supplies the next miss, so no
    // tenant can monopolize the thread.
    unsigned idx = rrCursor_;
    bool found = false;
    for (unsigned i = 0; i < numCores_; ++i) {
        const unsigned cand = (rrCursor_ + i) % numCores_;
        if (!queues2_[cand].empty()) {
            idx = cand;
            found = true;
            break;
        }
    }
    if (!found)
        return;
    const Observation obs = queues2_[idx].front();
    queues2_[idx].pop_front();
    rrCursor_ = (idx + 1) % numCores_;
    ++servedPerCore_[idx];

    const sim::Cycle start =
        std::max({eq_.now(), obs.when, busyUntil_});
    ExecCost cost(*this, start);
    CorrelationPrefetcher &algo = algoFor(obs.core);

    // ---- Prefetching step (executed first: it is the critical one).
    cost.instr(cost::loopOverhead);
    scratch_.clear();
    algo.prefetchStep(obs.line, scratch_, cost);
    const sim::Cycle response = cost.elapsed();
    stats_.responseTime.sample(static_cast<double>(response));
    stats_.responseBusy.sample(static_cast<double>(cost.busy()));
    stats_.responseMem.sample(static_cast<double>(cost.memStall()));

    // Issue the generated addresses to queue 3, de-duplicated and
    // aligned to L2 lines; never prefetch the observed miss itself.
    const sim::Cycle issue_at = start + response;
    std::size_t emitted = 0;
    for (std::size_t i = 0; i < scratch_.size(); ++i) {
        const sim::Addr line =
            scratch_[i] & ~static_cast<sim::Addr>(tp_.l2.lineBytes - 1);
        if (line == obs.line)
            continue;
        bool dup = false;
        for (std::size_t j = 0; j < emitted && !dup; ++j)
            dup = scratch_[j] == line;
        if (dup)
            continue;
        scratch_[emitted++] = line;
        ++stats_.prefetchesGenerated;
        ms_.ulmtPrefetch(issue_at, line, obs.flow, obs.core,
                         engineId_, obs.line);
    }

    // ---- Learning step.
    algo.learnStep(obs.line, cost);
    if (missHook_)
        missHook_(obs.line);
    const sim::Cycle occupancy = cost.elapsed();
    stats_.occupancyTime.sample(static_cast<double>(occupancy));
    stats_.occupancyBusy.sample(static_cast<double>(cost.busy()));
    stats_.occupancyMem.sample(static_cast<double>(cost.memStall()));
    stats_.busyCycles += cost.busy();
    stats_.memStallCycles += cost.memStall();
    stats_.instructions += cost.instructions();
    ++stats_.missesProcessed;

    if (trace_) {
        // One episode span per observed miss, with the response-time
        // (prefetch) and learning portions nested inside it.
        const std::uint32_t tid = traceTid();
        trace_->complete("miss_episode", "ulmt", start, occupancy, tid);
        trace_->complete("prefetch_step", "ulmt", start, response, tid);
        if (occupancy > response)
            trace_->complete("learn_step", "ulmt", start + response,
                             occupancy - response, tid);
        if (obs.flow)
            trace_->flow(sim::TracePhase::FlowStep, obs.flow, start,
                         tid);
    }

    busyUntil_ = start + occupancy;
    if (queue2Depth() > 0)
        kick(busyUntil_);
}

void
UlmtEngine::pageRemap(sim::Addr old_page, sim::Addr new_page,
                      std::uint32_t page_bytes)
{
    const sim::Cycle start = std::max(eq_.now(), busyUntil_);
    ExecCost cost(*this, start);
    for (const auto &s : shards_)
        s->onPageRemap(old_page, new_page, page_bytes, cost);
    stats_.busyCycles += cost.busy();
    stats_.memStallCycles += cost.memStall();
    stats_.instructions += cost.instructions();
    busyUntil_ = start + cost.elapsed();
    if (trace_ && cost.elapsed() > 0)
        trace_->complete("page_remap", "ulmt", start, cost.elapsed(),
                         traceTid());
}

void
UlmtEngine::walk(ckpt::Stream &s)
{
    // Sub-queue count is configuration-derived (numCores_), so it is
    // implied; each sub-queue is walked in order, all of them within
    // the one queue-2 depth.
    std::uint64_t room = tp_.queueDepth;
    for (auto &q : queues2_) {
        s.seq(
            q,
            [&s](Observation &o) {
                s.u64(o.when, o.line, o.flow);
                s.u32(o.core);
            },
            room, "queue-2 depth exceeds the configuration");
        room -= q.size();
    }
    s.u32(rrCursor_);
    if (rrCursor_ >= numCores_)
        throw ckpt::CkptError("round-robin cursor out of range");
    for (std::uint64_t &served : servedPerCore_)
        s.u64(served);
    mpCache_.walk(s);
    s.u64(busyUntil_);
    s.b(processingScheduled_);

    s.u64(stats_.missesObserved, stats_.missesProcessed,
          stats_.missesDroppedQueueFull, stats_.prefetchesGenerated);
    for (sim::SampleStat *st :
         {&stats_.responseTime, &stats_.occupancyTime,
          &stats_.responseBusy, &stats_.responseMem,
          &stats_.occupancyBusy, &stats_.occupancyMem})
        ckpt::walk(s, *st);
    s.u64(stats_.busyCycles, stats_.memStallCycles, stats_.instructions);

    for (const auto &shard : shards_)
        shard->walk(s);
}

void
UlmtEngine::registerStats(sim::StatRegistry &reg,
                          const std::string &prefix) const
{
    const auto n = [&prefix](const char *name) {
        return prefix + name;
    };
    reg.addCounter(n("misses_observed"), &stats_.missesObserved);
    reg.addCounter(n("misses_processed"), &stats_.missesProcessed);
    reg.addCounter(n("queue2.drops"), &stats_.missesDroppedQueueFull);
    reg.addCounter(n("prefetches_generated"),
                   &stats_.prefetchesGenerated);
    reg.addCounter(n("busy_cycles"), &stats_.busyCycles);
    reg.addCounter(n("mem_stall_cycles"), &stats_.memStallCycles);
    reg.addCounter(n("instructions"), &stats_.instructions);
    reg.addSample(n("response_cycles"), &stats_.responseTime);
    reg.addSample(n("occupancy_cycles"), &stats_.occupancyTime);
    reg.addSample(n("response_busy"), &stats_.responseBusy);
    reg.addSample(n("response_mem"), &stats_.responseMem);
    reg.addSample(n("occupancy_busy"), &stats_.occupancyBusy);
    reg.addSample(n("occupancy_mem"), &stats_.occupancyMem);
    reg.addGauge(n("ipc"), [this] { return stats_.ipc(); });
    // Table gauges aggregate across shards (one shard = that table).
    reg.addGauge(n("table.bytes"), [this] {
        double b = 0;
        for (const auto &s : shards_)
            b += double(s->tableBytes());
        return b;
    });
    reg.addGauge(n("table.insertions"), [this] {
        double v = 0;
        for (const auto &s : shards_)
            v += double(s->insertions());
        return v;
    });
    reg.addGauge(n("table.replacements"), [this] {
        double v = 0;
        for (const auto &s : shards_)
            v += double(s->replacements());
        return v;
    });
    // Per-tenant fairness: misses served per core, only on multi-core
    // engines so single-core stat output is unchanged.
    if (numCores_ > 1) {
        for (unsigned c = 0; c < numCores_; ++c) {
            reg.addCounter(prefix + "core." +
                               std::to_string(baseCore_ + c) +
                               ".served",
                           &servedPerCore_[c]);
        }
    }
}

} // namespace core
