/**
 * @file
 * Serialization adapters for the sim/ layer's value types.
 *
 * The sim/ layer stays checkpoint-agnostic: its classes expose plain
 * snapshot()/restore() state structs and know nothing about the
 * on-disk encoding.  These walks map those structs onto a ckpt::Stream
 * so every component (mem, cpu, core, driver) encodes a SampleStat,
 * timeline or RNG identically.
 */

#ifndef CKPT_SIM_STATE_HH
#define CKPT_SIM_STATE_HH

#include "ckpt/state.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/stats.hh"

namespace ckpt {

inline void
walk(Stream &s, sim::SampleStat &stat)
{
    sim::SampleStat::State st = stat.snapshot();
    s.u64(st.count);
    s.f64(st.sum, st.min, st.max, st.welfordMean, st.m2);
    if (s.restoring())
        stat.restore(st);
}

inline void
walk(Stream &s, sim::BinnedHistogram &h)
{
    s.expect(std::uint64_t(h.numBins()),
             "histogram bin count in checkpoint does not match the "
             "configuration");
    std::vector<std::uint64_t> counts(h.numBins());
    for (std::size_t i = 0; i < counts.size(); ++i)
        counts[i] = h.binCount(i);
    std::uint64_t total = h.total();
    std::uint64_t below = h.below();
    for (std::uint64_t &c : counts)
        s.u64(c);
    s.u64(total, below);
    if (s.restoring())
        h.restoreCounts(counts, total, below);
}

inline void
walk(Stream &s, sim::PriorityTimeline &t)
{
    sim::PriorityTimeline::State st = t.snapshot();
    s.u64(st.pruneBefore, st.busyTotal);
    s.seq(st.bookings, [&s](sim::PriorityTimeline::Interval &iv) {
        s.u64(iv.start, iv.end);
        s.b(iv.high);
    });
    if (s.restoring())
        t.restore(st);
}

inline void
walk(Stream &s, sim::Rng &rng)
{
    sim::Rng::State st = rng.state();
    for (std::uint64_t &word : st.s)
        s.u64(word);
    if (s.restoring())
        rng.setState(st);
}

} // namespace ckpt

#endif // CKPT_SIM_STATE_HH
