#include "mem/cache.hh"

#include <bit>

namespace mem {

Cache::Cache(std::string name, const CacheGeometry &geom)
    : name_(std::move(name)), geom_(geom),
      ways_(geom.numSets(), geom.assoc)
{
    SIM_ASSERT(geom_.lineBytes > 0 &&
               std::has_single_bit(geom_.lineBytes),
               "%s: line size must be a power of two", name_.c_str());
    SIM_ASSERT(ways_.sets() > 0 && std::has_single_bit(ways_.sets()),
               "%s: set count must be a power of two", name_.c_str());
    SIM_ASSERT(geom_.assoc > 0, "%s: zero associativity", name_.c_str());
    lineShift_ = static_cast<std::uint32_t>(std::countr_zero(geom_.lineBytes));
    setMask_ = ways_.sets() - 1;
    lineMask_ = ~static_cast<sim::Addr>(geom_.lineBytes - 1);
}

CacheLine *
Cache::insert(sim::Addr addr, sim::Cycle now, sim::Cycle ready_at,
              Eviction &evicted)
{
    const sim::Addr line_addr = lineAddr(addr);
    // Prefer to displace a line whose fill already completed; fall back
    // to a pending one only when the whole set is in flight.  The same
    // scan of the set proves the line is not resident yet.
    const std::size_t v = ways_.victimFor(
        setIndex(addr), line_addr,
        [&](std::size_t i) { return ways_.data(i).readyAt <= now; });
    SIM_ASSERT(v != Ways::npos, "%s: inserting already-resident line",
               name_.c_str());
    CacheLine &line = ways_.data(v);

    evicted = Eviction{};
    if (ways_.valid(v)) {
        evicted.valid = true;
        evicted.lineAddr = ways_.tag(v);
        evicted.dirty = line.dirty;
        evicted.prefetched = line.prefetched;
        evicted.cpuPrefetched = line.cpuPrefetched;
        ++stats_.evictions;
        if (line.dirty)
            ++stats_.dirtyEvictions;
    }

    // A reused way must not inherit the evicted line's origin: callers
    // that never set fillOrigin themselves (the memory-thread cache)
    // would otherwise report stale attribution.  All fills ultimately
    // come from memory; hierarchy paths that know better overwrite it.
    line = CacheLine{};
    line.fillOrigin = sim::ServedBy::Memory;
    line.readyAt = ready_at;
    ways_.install(v, line_addr);
    if (shadow_)
        shadow_->onInsert(line_addr, now, ready_at);
    return &line;
}

bool
Cache::setAllPending(sim::Addr addr, sim::Cycle now) const
{
    const std::size_t base = ways_.index(setIndex(addr), 0);
    for (std::size_t i = base; i < base + geom_.assoc; ++i) {
        if (!ways_.valid(i) || ways_.data(i).readyAt <= now)
            return false;
    }
    return true;
}

void
Cache::invalidate(sim::Addr addr)
{
    const std::size_t i = ways_.find(setIndex(addr), lineAddr(addr));
    if (i == Ways::npos)
        return;
    ways_.invalidate(i);
    if (shadow_)
        shadow_->onInvalidate(ways_.tag(i));
}

void
Cache::reset()
{
    ways_.reset();
    stats_ = CacheStats{};
    if (shadow_)
        shadow_->onReset();
}

void
Cache::checkInvariants(check::CheckContext &ctx,
                       std::optional<sim::ServedBy> expected_origin) const
{
    const std::string who = "cache." + name_;
    ways_.checkStructure(ctx, who,
                         [&](sim::Addr tag) { return setIndex(tag); });
    forEachLine([&](const Ways::Entry &e, const CacheLine &line) {
        if (lineAddr(e.tag) != e.tag)
            ctx.fail(who, "set " + std::to_string(e.set) + " way " +
                              std::to_string(e.way) + " tag " +
                              check::hex(e.tag) + " is not line-aligned");
        if (expected_origin && line.fillOrigin != *expected_origin)
            ctx.fail(who, "tag " + check::hex(e.tag) +
                              " carries a stale fillOrigin (" +
                              std::to_string(static_cast<int>(
                                  line.fillOrigin)) +
                              ")");
    });
}

void
Cache::walk(ckpt::Stream &s)
{
    // Geometry guard: sets * assoc * lineBytes pins the shape.
    const std::string shape =
        "cache '" + name_ +
        "': checkpoint geometry does not match this configuration";
    s.expect(ways_.sets(), shape);
    s.expect(geom_.assoc, shape);
    s.expect(geom_.lineBytes, shape);
    ways_.walkClock(s);
    s.u64(stats_.hits, stats_.misses, stats_.evictions,
          stats_.dirtyEvictions);
    const std::string corrupt = "cache '" + name_ + "': corrupt fillOrigin";
    ways_.walkSparse(
        s, "cache '" + name_ + "': line index out of range",
        [&](std::size_t i) {
            CacheLine &line = ways_.data(i);
            s.b(line.dirty, line.prefetched, line.cpuPrefetched);
            s.enumU8(line.fillOrigin, sim::ServedBy::Memory, corrupt);
            s.u64(line.readyAt);
            ways_.walkStamp(s, i);
        });
}

} // namespace mem
