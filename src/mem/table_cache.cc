#include "mem/table_cache.hh"

#include <algorithm>

namespace mem {

void
TableCache::configure(const TableCacheSpec &spec,
                      std::uint32_t line_bytes,
                      std::uint32_t dram_row_bytes)
{
    SIM_ASSERT(spec.on(), "table cache configured with zero entries");
    SIM_ASSERT(!enabled(), "table cache configured twice");
    SIM_ASSERT(spec.assoc > 0, "table cache: zero associativity");
    SIM_ASSERT(spec.entries % spec.assoc == 0,
               "table cache: %u entries not divisible by assoc %u",
               spec.entries, spec.assoc);
    SIM_ASSERT(line_bytes > 0, "table cache: zero line size");
    SIM_ASSERT(dram_row_bytes >= line_bytes,
               "table cache: DRAM row smaller than a line");
    lineBytes_ = line_bytes;
    rowBytes_ = dram_row_bytes;
    ways_ = Ways(spec.entries / spec.assoc, spec.assoc);
    dirtyBuf_.clear();
    dirtyBuf_.reserve(tableCacheDirtyBufEntries + 1);
}

bool
TableCache::access(sim::Addr addr, bool is_write,
                   std::vector<sim::Addr> &writebacks)
{
    SIM_ASSERT(enabled(), "access on a disabled table cache");
    const sim::Addr line = lineAddr(addr);
    if (shadow_)
        shadow_->onAccess(line, is_write);

    if (const std::size_t hit = find(line); hit != Ways::npos) {
        ++stats_.hits;
        ways_.touch(hit);
        ways_.data(hit).dirty |= is_write;
        return true;
    }

    // A line sitting in the dirty buffer has not reached DRAM yet; a
    // new access to it pulls it back in (still dirty) without any
    // DRAM traffic, exactly like an MSHR-style merge.
    const auto buffered =
        std::find(dirtyBuf_.begin(), dirtyBuf_.end(), line);
    if (buffered != dirtyBuf_.end()) {
        dirtyBuf_.erase(buffered);
        ++stats_.hits;
        install(line, /*dirty=*/true, writebacks);
        return true;
    }

    ++stats_.misses;
    ++stats_.dramAccesses;
    install(line, /*dirty=*/is_write, writebacks);
    return false;
}

void
TableCache::install(sim::Addr line_addr, bool dirty,
                    std::vector<sim::Addr> &writebacks)
{
    const std::size_t v = ways_.victim(setIndex(line_addr));
    if (ways_.valid(v) && ways_.data(v).dirty)
        pushDirty(ways_.tag(v), writebacks);
    ways_.install(v, line_addr);
    ways_.data(v).dirty = dirty;
}

void
TableCache::pushDirty(sim::Addr line_addr,
                      std::vector<sim::Addr> &writebacks)
{
    dirtyBuf_.push_back(line_addr);
    // High water is recorded after the push so the overflow instant
    // (capacity + 1, the state that forces a drain) is visible.
    stats_.dirtyBufHighWater =
        std::max(stats_.dirtyBufHighWater,
                 static_cast<std::uint64_t>(dirtyBuf_.size()));
    if (dirtyBuf_.size() > tableCacheDirtyBufEntries)
        drainRow(dirtyBuf_.front() / rowBytes_, writebacks);
}

void
TableCache::drainRow(sim::Addr row, std::vector<sim::Addr> &writebacks)
{
    std::uint64_t batch = 0;
    for (std::size_t i = 0; i < dirtyBuf_.size();) {
        if (dirtyBuf_[i] / rowBytes_ == row) {
            writebacks.push_back(dirtyBuf_[i]);
            dirtyBuf_.erase(dirtyBuf_.begin() +
                            static_cast<std::ptrdiff_t>(i));
            ++batch;
        } else {
            ++i;
        }
    }
    stats_.writebacks += batch;
    stats_.dramAccesses += batch;
    if (batch > 0)
        stats_.rowBatchedWritebacks += batch - 1;
}

void
TableCache::invalidateRange(sim::Addr lo, sim::Addr hi,
                            std::vector<sim::Addr> &writebacks)
{
    if (!enabled() || lo >= hi)
        return;
    if (shadow_)
        shadow_->onInvalidateRange(lo, hi);
    ways_.forEach([&](const Ways::Entry &e) {
        if (e.tag < lo || e.tag >= hi)
            return;
        if (ways_.data(e.index).dirty) {
            writebacks.push_back(e.tag);
            ++stats_.writebacks;
            ++stats_.dramAccesses;
        }
        ways_.invalidate(e.index);
    });
    for (std::size_t i = 0; i < dirtyBuf_.size();) {
        if (dirtyBuf_[i] >= lo && dirtyBuf_[i] < hi) {
            writebacks.push_back(dirtyBuf_[i]);
            ++stats_.writebacks;
            ++stats_.dramAccesses;
            dirtyBuf_.erase(dirtyBuf_.begin() +
                            static_cast<std::ptrdiff_t>(i));
        } else {
            ++i;
        }
    }
}

void
TableCache::reset()
{
    ways_.reset();
    dirtyBuf_.clear();
    stats_ = TableCacheStats{};
    if (shadow_)
        shadow_->onReset();
}

void
TableCache::registerStats(sim::StatRegistry &reg,
                          const std::string &prefix) const
{
    reg.addCounter(prefix + "hits", &stats_.hits);
    reg.addCounter(prefix + "misses", &stats_.misses);
    reg.addCounter(prefix + "writebacks", &stats_.writebacks);
    reg.addCounter(prefix + "row_batched_writebacks",
                   &stats_.rowBatchedWritebacks);
    reg.addCounter(prefix + "dirty_buf_high_water",
                   &stats_.dirtyBufHighWater);
    reg.addCounter(prefix + "dram_accesses", &stats_.dramAccesses);
}

void
TableCache::walk(ckpt::Stream &s)
{
    // Geometry guard: sets * assoc * lineBytes pins the shape.
    const std::string shape = "table cache: checkpoint geometry does not "
                              "match this --table-cache configuration";
    s.expect(ways_.sets(), shape);
    s.expect(ways_.ways(), shape);
    s.expect(lineBytes_, shape);
    s.expect(rowBytes_, shape);
    ways_.walkClock(s);
    s.u64(stats_.hits, stats_.misses, stats_.writebacks,
          stats_.rowBatchedWritebacks, stats_.dirtyBufHighWater,
          stats_.dramAccesses);
    ways_.walkSparse(s, "table cache: line index out of range",
                     [&](std::size_t i) {
                         s.b(ways_.data(i).dirty);
                         ways_.walkStamp(s, i);
                     });
    s.u64s(dirtyBuf_, tableCacheDirtyBufEntries,
           "table cache: dirty buffer beyond capacity");
}

void
TableCache::checkInvariants(check::CheckContext &ctx) const
{
    const std::string who = "memsys.tcache";
    ways_.checkStructure(ctx, who,
                         [&](sim::Addr tag) { return setIndex(tag); });
    ways_.forEach([&](const Ways::Entry &e) {
        if (lineAddr(e.tag) != e.tag)
            ctx.fail(who, "set " + std::to_string(e.set) + " way " +
                              std::to_string(e.way) + " tag " +
                              check::hex(e.tag) + " is not line-aligned");
    });
    ctx.require(dirtyBuf_.size() <= tableCacheDirtyBufEntries, who,
                "dirty buffer holds " +
                    std::to_string(dirtyBuf_.size()) +
                    " lines, beyond its capacity of " +
                    std::to_string(tableCacheDirtyBufEntries));
    for (std::size_t i = 0; i < dirtyBuf_.size(); ++i) {
        const sim::Addr addr = dirtyBuf_[i];
        ctx.require(lineAddr(addr) == addr, who,
                    "buffered write-back " + check::hex(addr) +
                        " is not line-aligned");
        ctx.require(find(addr) == Ways::npos, who,
            "buffered write-back " + check::hex(addr) +
                " is also resident in the tag array");
        for (std::size_t j = i + 1; j < dirtyBuf_.size(); ++j) {
            ctx.require(dirtyBuf_[j] != addr, who,
                        "duplicate write-back " + check::hex(addr) +
                            " in the dirty buffer");
        }
    }
    ctx.require(stats_.dramAccesses ==
                    stats_.misses + stats_.writebacks,
                who,
                "write-back conservation violated: " +
                    std::to_string(stats_.dramAccesses) +
                    " DRAM accesses != " +
                    std::to_string(stats_.misses) + " misses + " +
                    std::to_string(stats_.writebacks) +
                    " writebacks");
}

} // namespace mem
