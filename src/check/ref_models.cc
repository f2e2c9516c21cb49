#include "check/ref_models.hh"

#include <algorithm>

namespace check {

// ---------------------------------------------------------------- cache

RefLruCache::RefLruCache(const mem::Cache &real, std::string label)
    : label_(std::move(label)), lineBytes_(real.lineBytes()),
      numSets_(real.numSets()), assoc_(real.assoc()), sets_(numSets_)
{
}

std::uint32_t
RefLruCache::setOf(sim::Addr line_addr) const
{
    return static_cast<std::uint32_t>((line_addr / lineBytes_) &
                                      (numSets_ - 1));
}

void
RefLruCache::onTouch(sim::Addr line_addr)
{
    auto &set = sets_[setOf(line_addr)];
    for (std::size_t i = 0; i < set.size(); ++i) {
        if (set[i].tag == line_addr) {
            Entry e = set[i];
            set.erase(set.begin() + static_cast<std::ptrdiff_t>(i));
            set.push_back(e);
            return;
        }
    }
    // Unknown line: the touch inside insert() fires before onInsert
    // delivers the new line; ignore it.
}

void
RefLruCache::onInsert(sim::Addr line_addr, sim::Cycle now,
                      sim::Cycle ready_at)
{
    auto &set = sets_[setOf(line_addr)];
    if (set.size() >= assoc_) {
        // The real cache displaces the least-recently-used *settled*
        // line (fill complete), falling back to the overall LRU when
        // the whole set is still in flight.
        std::size_t victim = 0;
        bool found = false;
        for (std::size_t i = 0; i < set.size(); ++i) {
            if (set[i].readyAt <= now) {
                victim = i;
                found = true;
                break;
            }
        }
        if (!found)
            victim = 0;
        set.erase(set.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    set.push_back(Entry{line_addr, ready_at});
}

void
RefLruCache::onInvalidate(sim::Addr line_addr)
{
    auto &set = sets_[setOf(line_addr)];
    for (std::size_t i = 0; i < set.size(); ++i) {
        if (set[i].tag == line_addr) {
            set.erase(set.begin() + static_cast<std::ptrdiff_t>(i));
            return;
        }
    }
}

void
RefLruCache::onReset()
{
    for (auto &set : sets_)
        set.clear();
}

void
RefLruCache::resync(const mem::Cache &real)
{
    onReset();
    // Collect valid lines per set with their stamps, then order each
    // set oldest-first: that is exactly this model's recency order.
    std::vector<std::vector<std::pair<std::uint64_t, Entry>>> stamped(
        numSets_);
    real.forEachLine([&](const auto &e, const mem::CacheLine &line) {
        stamped[e.set].push_back({e.stamp, Entry{e.tag, line.readyAt}});
    });
    for (std::uint32_t set = 0; set < numSets_; ++set) {
        std::sort(stamped[set].begin(), stamped[set].end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
        for (const auto &[stamp, entry] : stamped[set]) {
            (void)stamp;
            sets_[set].push_back(entry);
        }
    }
}

void
RefLruCache::diff(const mem::Cache &real, CheckContext &ctx) const
{
    const std::string who = "deep." + label_;
    std::vector<std::vector<std::pair<std::uint64_t, Entry>>> stamped(
        numSets_);
    real.forEachLine([&](const auto &e, const mem::CacheLine &line) {
        stamped[e.set].push_back({e.stamp, Entry{e.tag, line.readyAt}});
    });
    for (std::uint32_t set = 0; set < numSets_; ++set) {
        auto &lines = stamped[set];
        std::sort(lines.begin(), lines.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
        const auto &ref = sets_[set];
        if (!ctx.require(lines.size() == ref.size(), who,
                         "set " + std::to_string(set) + " holds " +
                             std::to_string(lines.size()) +
                             " lines, reference model " +
                             std::to_string(ref.size())))
            continue;
        for (std::size_t i = 0; i < ref.size(); ++i) {
            const Entry &want = ref[i];
            const Entry &have = lines[i].second;
            ctx.require(have.tag == want.tag, who,
                        "set " + std::to_string(set) +
                            " recency position " + std::to_string(i) +
                            " holds " + check::hex(have.tag) +
                            ", reference model " +
                            check::hex(want.tag));
            ctx.require(have.tag != want.tag ||
                            have.readyAt == want.readyAt,
                        who,
                        "line " + check::hex(have.tag) +
                            " readyAt " +
                            std::to_string(have.readyAt) +
                            " disagrees with the reference model's " +
                            std::to_string(want.readyAt));
        }
    }
}

// ----------------------------------------------------------- pair table

RefPairTable::RefPairTable(const core::PairTable &table,
                           std::uint32_t chain_levels)
    : numSets_(table.params().numRows / table.params().assoc),
      assoc_(table.params().assoc), numSucc_(table.params().numSucc),
      chainLevels_(chain_levels), sets_(numSets_)
{
}

std::uint32_t
RefPairTable::setOf(sim::Addr miss_line) const
{
    return static_cast<std::uint32_t>((miss_line / 64) % numSets_);
}

RefPairTable::RefRow *
RefPairTable::find(sim::Addr miss_line)
{
    auto &set = sets_[setOf(miss_line)];
    for (std::size_t i = 0; i < set.size(); ++i) {
        if (set[i].tag == miss_line) {
            RefRow row = std::move(set[i]);
            set.erase(set.begin() + static_cast<std::ptrdiff_t>(i));
            set.push_back(std::move(row));
            return &set.back();
        }
    }
    return nullptr;
}

RefPairTable::RefRow &
RefPairTable::findOrAlloc(sim::Addr miss_line)
{
    if (RefRow *row = find(miss_line))
        return *row;
    auto &set = sets_[setOf(miss_line)];
    if (set.size() >= assoc_)
        set.erase(set.begin());  // evict the set's LRU row
    set.push_back(RefRow{miss_line, {}});
    return set.back();
}

void
RefPairTable::observeMiss(sim::Addr miss_line)
{
    // Prefetching step first (Fig. 2): its lookups promote rows.
    if (chainLevels_ == 0) {
        find(miss_line);  // Base: one lookup
    } else {
        sim::Addr cur = miss_line;
        for (std::uint32_t lvl = 0; lvl < chainLevels_; ++lvl) {
            RefRow *row = find(cur);
            if (!row || row->succ.empty())
                break;
            cur = row->succ.front();  // follow the MRU link
        }
    }

    // Learning step (PairLearner semantics).
    if (lastValid_) {
        RefRow &row = findOrAlloc(lastMiss_);
        auto it =
            std::find(row.succ.begin(), row.succ.end(), miss_line);
        if (it != row.succ.end()) {
            std::rotate(row.succ.begin(), it, it + 1);
        } else {
            row.succ.insert(row.succ.begin(), miss_line);
            if (row.succ.size() > numSucc_)
                row.succ.pop_back();
        }
    }
    findOrAlloc(miss_line);
    lastMiss_ = miss_line;
    lastValid_ = true;
}

void
RefPairTable::resync(const core::PairTable &table,
                     const core::PairLearner &learner)
{
    for (auto &set : sets_)
        set.clear();
    std::vector<std::vector<std::pair<std::uint64_t, RefRow>>> stamped(
        numSets_);
    table.forEachRow([&](const auto &row) {
        const auto succ = table.successors(core::RowIndex(row.index));
        stamped[setOf(row.tag)].push_back(
            {row.stamp, RefRow{row.tag, {succ.begin(), succ.end()}}});
    });
    for (std::uint32_t set = 0; set < numSets_; ++set) {
        std::sort(stamped[set].begin(), stamped[set].end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
        for (auto &[stamp, row] : stamped[set]) {
            (void)stamp;
            sets_[set].push_back(std::move(row));
        }
    }
    lastMiss_ = learner.lastMiss();
    lastValid_ = learner.lastValid();
}

void
RefPairTable::diff(const core::PairTable &table,
                   CheckContext &ctx) const
{
    const std::string who = "deep.pair_table";
    std::vector<std::vector<std::pair<std::uint64_t, RefRow>>> stamped(
        numSets_);
    table.forEachRow([&](const auto &row) {
        const auto succ = table.successors(core::RowIndex(row.index));
        stamped[setOf(row.tag)].push_back(
            {row.stamp, RefRow{row.tag, {succ.begin(), succ.end()}}});
    });
    for (std::uint32_t set = 0; set < numSets_; ++set) {
        auto &rows = stamped[set];
        std::sort(rows.begin(), rows.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
        const auto &ref = sets_[set];
        if (rows.size() != ref.size()) {
            std::string detail = "set " + std::to_string(set) +
                " holds " + std::to_string(rows.size()) +
                " rows, reference model " + std::to_string(ref.size()) +
                " [real:";
            for (const auto &[st, rr] : rows) {
                detail += ' ';
                detail += check::hex(rr.tag);
            }
            detail += " | ref:";
            for (const RefRow &rr : ref) {
                detail += ' ';
                detail += check::hex(rr.tag);
            }
            detail += "]";
            ctx.require(false, who, detail);
            continue;
        }
        for (std::size_t i = 0; i < ref.size(); ++i) {
            const RefRow &want = ref[i];
            const RefRow &have = rows[i].second;
            if (!ctx.require(have.tag == want.tag, who,
                             "set " + std::to_string(set) +
                                 " recency position " +
                                 std::to_string(i) + " holds " +
                                 check::hex(have.tag) +
                                 ", reference model " +
                                 check::hex(want.tag)))
                continue;
            ctx.require(have.succ == want.succ, who,
                        "row " + check::hex(have.tag) +
                            " successor list disagrees with the "
                            "reference model");
        }
    }
}

// ---------------------------------------------------------- table cache

RefTableCache::RefTableCache(const mem::TableCache &real)
    : lineBytes_(real.lineBytes()), rowBytes_(real.rowBytes()),
      numSets_(real.numSets()), assoc_(real.assoc()), sets_(numSets_)
{
}

std::uint32_t
RefTableCache::setOf(sim::Addr line_addr) const
{
    return static_cast<std::uint32_t>((line_addr / lineBytes_) %
                                      numSets_);
}

void
RefTableCache::onAccess(sim::Addr line_addr, bool is_write)
{
    auto &set = sets_[setOf(line_addr)];
    for (std::size_t i = 0; i < set.size(); ++i) {
        if (set[i].tag == line_addr) {
            Entry e = set[i];
            e.dirty = e.dirty || is_write;
            set.erase(set.begin() + static_cast<std::ptrdiff_t>(i));
            set.push_back(e);
            return;
        }
    }
    const auto buffered =
        std::find(dirtyBuf_.begin(), dirtyBuf_.end(), line_addr);
    if (buffered != dirtyBuf_.end()) {
        // A buffered line never reached DRAM: the access pulls it
        // back in, still dirty.
        dirtyBuf_.erase(buffered);
        install(line_addr, true);
        return;
    }
    install(line_addr, is_write);
}

void
RefTableCache::install(sim::Addr line_addr, bool dirty)
{
    auto &set = sets_[setOf(line_addr)];
    if (set.size() >= assoc_) {
        const Entry victim = set.front();
        set.erase(set.begin());
        if (victim.dirty)
            pushDirty(victim.tag);
    }
    set.push_back(Entry{line_addr, dirty});
}

void
RefTableCache::pushDirty(sim::Addr line_addr)
{
    dirtyBuf_.push_back(line_addr);
    if (dirtyBuf_.size() > mem::tableCacheDirtyBufEntries) {
        // Drain every buffered line sharing the oldest entry's DRAM
        // row, in FIFO order.
        const sim::Addr row = dirtyBuf_.front() / rowBytes_;
        dirtyBuf_.erase(
            std::remove_if(dirtyBuf_.begin(), dirtyBuf_.end(),
                           [&](sim::Addr a) {
                               return a / rowBytes_ == row;
                           }),
            dirtyBuf_.end());
    }
}

void
RefTableCache::onInvalidateRange(sim::Addr lo, sim::Addr hi)
{
    for (auto &set : sets_) {
        set.erase(std::remove_if(set.begin(), set.end(),
                                 [&](const Entry &e) {
                                     return e.tag >= lo && e.tag < hi;
                                 }),
                  set.end());
    }
    dirtyBuf_.erase(std::remove_if(dirtyBuf_.begin(), dirtyBuf_.end(),
                                   [&](sim::Addr a) {
                                       return a >= lo && a < hi;
                                   }),
                    dirtyBuf_.end());
}

void
RefTableCache::onReset()
{
    for (auto &set : sets_)
        set.clear();
    dirtyBuf_.clear();
}

void
RefTableCache::resync(const mem::TableCache &real)
{
    onReset();
    std::vector<std::vector<std::pair<std::uint64_t, Entry>>> stamped(
        numSets_);
    real.forEachLine([&](const auto &e, const mem::TableCacheLine &line) {
        stamped[e.set].push_back({e.stamp, Entry{e.tag, line.dirty}});
    });
    for (std::uint32_t set = 0; set < numSets_; ++set) {
        std::sort(stamped[set].begin(), stamped[set].end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
        for (const auto &[stamp, entry] : stamped[set]) {
            (void)stamp;
            sets_[set].push_back(entry);
        }
    }
    dirtyBuf_ = real.dirtyBuffer();
}

void
RefTableCache::diff(const mem::TableCache &real, CheckContext &ctx) const
{
    const std::string who = "deep.tcache";
    std::vector<std::vector<std::pair<std::uint64_t, Entry>>> stamped(
        numSets_);
    real.forEachLine([&](const auto &e, const mem::TableCacheLine &line) {
        stamped[e.set].push_back({e.stamp, Entry{e.tag, line.dirty}});
    });
    for (std::uint32_t set = 0; set < numSets_; ++set) {
        auto &lines = stamped[set];
        std::sort(lines.begin(), lines.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
        const auto &ref = sets_[set];
        if (!ctx.require(lines.size() == ref.size(), who,
                         "set " + std::to_string(set) + " holds " +
                             std::to_string(lines.size()) +
                             " lines, reference model " +
                             std::to_string(ref.size())))
            continue;
        for (std::size_t i = 0; i < ref.size(); ++i) {
            const Entry &want = ref[i];
            const Entry &have = lines[i].second;
            if (!ctx.require(have.tag == want.tag, who,
                             "set " + std::to_string(set) +
                                 " recency position " +
                                 std::to_string(i) + " holds " +
                                 check::hex(have.tag) +
                                 ", reference model " +
                                 check::hex(want.tag)))
                continue;
            ctx.require(have.dirty == want.dirty, who,
                        "line " + check::hex(have.tag) + " is " +
                            (have.dirty ? "dirty" : "clean") +
                            ", reference model says " +
                            (want.dirty ? "dirty" : "clean"));
        }
    }
    const auto &buf = real.dirtyBuffer();
    if (ctx.require(buf.size() == dirtyBuf_.size(), who,
                    "dirty buffer holds " + std::to_string(buf.size()) +
                        " lines, reference model " +
                        std::to_string(dirtyBuf_.size()))) {
        for (std::size_t i = 0; i < buf.size(); ++i) {
            ctx.require(buf[i] == dirtyBuf_[i], who,
                        "dirty buffer position " + std::to_string(i) +
                            " holds " + check::hex(buf[i]) +
                            ", reference model " +
                            check::hex(dirtyBuf_[i]));
        }
    }
    const mem::TableCacheStats &s = real.stats();
    ctx.require(s.dramAccesses == s.misses + s.writebacks, who,
                "write-back conservation violated: " +
                    std::to_string(s.dramAccesses) +
                    " DRAM accesses != " + std::to_string(s.misses) +
                    " misses + " + std::to_string(s.writebacks) +
                    " writebacks");
}

} // namespace check
