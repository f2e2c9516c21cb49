#include "cpu/stream_prefetcher.hh"

namespace cpu {

// Out of line, so Hierarchy::access, the per-reference path, stays small.

void
StreamPrefetcher::observeMiss(sim::Addr addr, std::vector<sim::Addr> &out)
{
    const sim::Addr line = table_.lineOf(addr);
    if (sim::StreamTable::Stream *s = table_.match(line, -1, window_)) {
        table_.emitAhead(*s, line, numPref_, out);
        return;
    }
    if (sim::StreamTable::Stream *s = table_.detect(line))
        table_.emitAhead(*s, line, numPref_, out);
    table_.remember(line);
}

void
StreamPrefetcher::observePrefetchedTouch(sim::Addr addr,
                                         std::vector<sim::Addr> &out)
{
    const sim::Addr line = table_.lineOf(addr);
    if (sim::StreamTable::Stream *s = table_.match(line, -1, window_))
        table_.emitAhead(*s, line, numPref_, out);
}

} // namespace cpu
