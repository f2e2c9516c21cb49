#include "core/seq_prefetcher.hh"

#include <bit>

#include "sim/logging.hh"

namespace core {

SeqPrefetcher::SeqPrefetcher(const SeqParams &p)
    : p_(p),
      lineShift_(static_cast<std::uint32_t>(std::countr_zero(p.lineBytes))),
      streams_(p.numSeq), history_(p.historyDepth)
{
    SIM_ASSERT(std::has_single_bit(p_.lineBytes),
               "seq prefetcher: line size must be a power of two");
    SIM_ASSERT(p_.historyDepth >= 1,
               "seq prefetcher: miss history depth must be at least 1");
}

SeqPrefetcher::Stream *
SeqPrefetcher::match(sim::Addr line)
{
    for (auto &s : streams_) {
        if (!s.valid)
            continue;
        const std::int64_t dist =
            (static_cast<std::int64_t>(s.nextExpected) -
             static_cast<std::int64_t>(line)) *
            s.stride;
        if (dist >= 0 &&
            dist <= static_cast<std::int64_t>(p_.lookahead()))
            return &s;
    }
    return nullptr;
}

const SeqPrefetcher::Stream *
SeqPrefetcher::match(sim::Addr line) const
{
    return const_cast<SeqPrefetcher *>(this)->match(line);
}

SeqPrefetcher::Stream *
SeqPrefetcher::allocStream()
{
    Stream *victim = &streams_[0];
    for (auto &s : streams_) {
        if (!s.valid)
            return &s;
        if (s.stamp < victim->stamp)
            victim = &s;
    }
    return victim;
}

void
SeqPrefetcher::emitAhead(Stream &s, sim::Addr from_line,
                         std::vector<sim::Addr> &out, CostTracker &cost)
{
    // Keep the stream lookahead() lines ahead of the observed miss.
    const std::int64_t target =
        static_cast<std::int64_t>(from_line) +
        s.stride * static_cast<std::int64_t>(p_.lookahead());
    while (true) {
        const std::int64_t next =
            static_cast<std::int64_t>(s.nextExpected) + s.stride;
        if (next < 0 || (target - next) * s.stride < 0)
            break;
        s.nextExpected = static_cast<sim::Addr>(next);
        cost.instr(cost::emitPrefetch);
        out.push_back(addrOf(s.nextExpected));
    }
    s.stamp = ++stampCounter_;
}

void
SeqPrefetcher::prefetchStep(sim::Addr miss_line,
                            std::vector<sim::Addr> &out,
                            CostTracker &cost)
{
    const sim::Addr line = lineOf(miss_line);
    cost.instr(cost::seqCheck * p_.numSeq);

    if (Stream *s = match(line)) {
        s->lastMiss = line;
        emitAhead(*s, line, out, cost);
        return;
    }

    // Detection: the third miss of a +/-1 line sequence.
    if (const std::int64_t stride = history_.sequenceStride(line)) {
        cost.instr(cost::seqCheck);
        Stream *s = allocStream();
        s->valid = true;
        s->stride = stride;
        s->nextExpected = line;
        s->lastMiss = line;
        ++streamsDetected_;
        emitAhead(*s, line, out, cost);
    }
}

void
SeqPrefetcher::learnStep(sim::Addr miss_line, CostTracker &cost)
{
    cost.instr(2);
    history_.push(lineOf(miss_line));
}

void
SeqPrefetcher::predict(sim::Addr miss_line, LevelPredictions &out) const
{
    // The paper scores a sequential prediction as correct when the
    // upcoming miss "matches the next address predicted by one of the
    // streams identified" -- so every active stream contributes its
    // upcoming lines, not just the stream the current miss belongs to.
    out.assign(p_.numPref, {});
    const sim::Addr line = lineOf(miss_line);
    for (const Stream &s : streams_) {
        if (!s.valid)
            continue;
        // Next expected line of this stream: continue from the current
        // miss if it belongs to the stream, else from the last miss
        // observed on it.
        const std::int64_t dist =
            (static_cast<std::int64_t>(s.nextExpected) -
             static_cast<std::int64_t>(line)) *
            s.stride;
        const sim::Addr from =
            (dist >= -1 &&
             dist <= 4 * static_cast<std::int64_t>(p_.numPref))
                ? line
                : s.lastMiss;
        for (std::uint32_t lvl = 0; lvl < p_.numPref; ++lvl) {
            const std::int64_t pred =
                static_cast<std::int64_t>(from) +
                s.stride * static_cast<std::int64_t>(lvl + 1);
            if (pred >= 0) {
                out[lvl].push_back(
                    addrOf(static_cast<sim::Addr>(pred)));
            }
        }
    }
}

} // namespace core
