#include "cpu/main_processor.hh"

namespace cpu {

namespace {

/**
 * How far (in cycles) the core's local clock may run ahead of the
 * event clock before it must yield.  Keeping this small bounds the
 * window in which the core could observe cache state that a concurrent
 * ULMT event is about to change.
 */
constexpr sim::Cycle maxSkew = 8;

} // namespace

void
MainProcessor::finish(sim::Cycle c)
{
    while (!pendingLoads_.empty()) {
        const Pending p = pendingLoads_.front();
        pendingLoads_.pop_front();
        if (p.complete > c)
            stats_.stallDrain += p.complete - c;
        stallUntil(c, p.complete, p.served);
    }
    while (!pendingStores_.empty()) {
        const Pending p = pendingStores_.front();
        pendingStores_.pop_front();
        if (p.complete > c)
            stats_.stallDrain += p.complete - c;
        stallUntil(c, p.complete, p.served);
    }
    finished_ = true;
    stats_.totalCycles = c;
    if (onFinish)
        onFinish(c);
}

void
MainProcessor::retireCompleted(sim::Cycle c)
{
    // In-order retirement: the queues are in program order, so only a
    // completed prefix can leave.
    while (!pendingLoads_.empty() && pendingLoads_.front().complete <= c)
        pendingLoads_.pop_front();
    while (!pendingStores_.empty() &&
           pendingStores_.front().complete <= c)
        pendingStores_.pop_front();
}

void
MainProcessor::step()
{
    sim::Cycle now = eq_.now();
    sim::Cycle c = now;

    // Yield to resume at the local clock c.  If that resume is the
    // queue's very next event, become it instead: restart the loop
    // exactly as a freshly popped step() would, and return true.
    const auto resumeInline = [&] {
        stats_.totalCycles = c;
        if (!eq_.continueAt(c)) {
            eq_.schedule(c, *this, sim::EventKind::ProcStep, core_);
            return false;
        }
        now = c;
        return true;
    };

    while (true) {
        if (!haveRec_) {
            if (!source_.next(rec_)) {
                finish(c);
                return;
            }
            haveRec_ = true;
            ++stats_.records;
            const std::uint32_t rec_ops =
                rec_.computeOps + (rec_.hasRef() ? 1 : 0);
            stats_.ops += rec_ops;
            opsIssued_ += rec_ops;
            // Compute phase: issueWidth ops per cycle, minimum one
            // cycle per record (the reference's own issue slot).
            sim::Cycle busy =
                (rec_.computeOps + tp_.issueWidth - 1) / tp_.issueWidth;
            if (busy == 0)
                busy = 1;
            stats_.busyCycles += busy;
            c += busy;
        }

        retireCompleted(c);

        // Reorder-buffer limit: issue may not run more than robSize
        // ops past the oldest incomplete load.  Stalls are charged as
        // discovered; on resumption the deadline has passed, so
        // nothing is charged twice.
        while (!pendingLoads_.empty() &&
               opsIssued_ - pendingLoads_.front().opStamp >
                   tp_.robSize) {
            const Pending oldest = pendingLoads_.front();
            pendingLoads_.pop_front();
            if (oldest.complete > c)
                stats_.stallLoadWindow += oldest.complete - c;
            stallUntil(c, oldest.complete, oldest.served);
        }

        if (rec_.hasRef()) {
            // Address dependence on the previous load (pointer chase).
            if (rec_.dependsOnPrev && lastLoadValid_) {
                if (lastLoad_.complete > c)
                    stats_.stallDependence += lastLoad_.complete - c;
                stallUntil(c, lastLoad_.complete, lastLoad_.served);
            }

            auto &q = rec_.isWrite ? pendingStores_ : pendingLoads_;
            const std::uint32_t cap = rec_.isWrite
                                          ? tp_.maxPendingStores
                                          : tp_.maxPendingLoads;
            retireCompleted(c);
            if (q.size() >= cap) {
                const Pending oldest = q.front();
                q.pop_front();
                if (oldest.complete > c) {
                    if (rec_.isWrite)
                        stats_.stallStoreWindow += oldest.complete - c;
                    else
                        stats_.stallLoadWindow += oldest.complete - c;
                }
                stallUntil(c, oldest.complete, oldest.served);
            }

            // Never touch the hierarchy far ahead of the event clock:
            // yield and resume at the access's issue cycle.
            if (c > now + maxSkew) {
                if (resumeInline())
                    continue;
                return;
            }

            AccessOutcome out =
                hierarchy_.access(c, rec_.addr, rec_.isWrite);
            q.push_back({out.complete, out.served, opsIssued_});
            if (!rec_.isWrite) {
                lastLoad_ = {out.complete, out.served, opsIssued_};
                lastLoadValid_ = true;
            }
        }
        haveRec_ = false;

        // Each record costs a cycle: this yields within maxSkew + 1.
        if (c > now + maxSkew) {
            if (resumeInline())
                continue;
            return;
        }
    }
}

void
MainProcessor::walk(ckpt::Stream &s)
{
    const auto pending = [&s](Pending &p) {
        s.u64(p.complete);
        s.enumU8(p.served, sim::ServedBy::Memory,
                 "corrupt ServedBy in processor state");
        s.u64(p.opStamp);
    };
    for (PendingQueue *q : {&pendingLoads_, &pendingStores_}) {
        const std::uint64_t n = s.count(q->size());
        if (n > q->window())
            throw ckpt::CkptError(sim::strformat(
                "processor state holds %llu pending references, more "
                "than the window of %u",
                (unsigned long long)n, q->window()));
        if (s.saving()) {
            for (std::uint32_t i = 0; i < n; ++i) {
                Pending p = (*q)[i];
                pending(p);
            }
            continue;
        }
        q->clear();
        for (std::uint64_t i = 0; i < n; ++i) {
            Pending p{};
            pending(p);
            q->push_back(p);
        }
    }
    pending(lastLoad_);
    s.b(lastLoadValid_);
    s.u64(opsIssued_);

    s.b(haveRec_);
    s.u32(rec_.computeOps);
    s.u64(rec_.addr);
    s.b(rec_.isWrite, rec_.dependsOnPrev, finished_);

    s.u64(stats_.totalCycles, stats_.busyCycles, stats_.uptoL2Stall,
          stats_.beyondL2Stall, stats_.records, stats_.ops,
          stats_.stallDependence, stats_.stallLoadWindow,
          stats_.stallStoreWindow, stats_.stallDrain);
    ckpt::walk(s, stats_.beyondWaits);
    ckpt::walk(s, stats_.uptoWaits);
}

} // namespace cpu
