#include "vm/vm.hh"

#include <algorithm>
#include <cctype>
#include <iterator>
#include <stdexcept>

#include "sim/logging.hh"

namespace vm {

namespace {

/** TLB geometry per page-size class (Virtuoso-style: the base-page
 *  array is the big one; the huge-page array is small because each
 *  entry already covers 2 MB). */
constexpr std::uint32_t tlb4kSets = 16;
constexpr std::uint32_t tlb4kWays = 4;
constexpr std::uint32_t tlb2mSets = 4;
constexpr std::uint32_t tlb2mWays = 4;

constexpr std::uint32_t shift4k = 12;
constexpr std::uint32_t shift2m = 21;

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

} // namespace

std::uint32_t
parsePageSize(const std::string &s)
{
    std::string t;
    t.reserve(s.size());
    for (char c : s)
        t.push_back(static_cast<char>(std::tolower(
            static_cast<unsigned char>(c))));
    if (t == "4k" || t == "4096")
        return 4096u;
    if (t == "2m" || t == "2097152")
        return 2u << 20;
    throw std::invalid_argument("bad page size (want 4k or 2m): " + s);
}

std::string
pageSizeName(std::uint32_t page_bytes)
{
    if (page_bytes == 4096u)
        return "4k";
    if (page_bytes == (2u << 20))
        return "2m";
    return std::to_string(page_bytes) + "b";
}

std::string
sectionSummary(const std::string &payload, unsigned cores,
               std::uint32_t page_bytes)
{
    if (cores == 0 || cores > sim::maxCores ||
        (page_bytes != (1u << shift4k) && page_bytes != (1u << shift2m)))
        throw ckpt::CkptError("vm section with a malformed header");
    sim::EventQueue eq;
    VmSpec spec;
    spec.enabled = true;
    spec.pageBytes = page_bytes;
    Vm scratch(eq, spec, cores);
    ckpt::StateReader r(payload);
    ckpt::restore(r, scratch);
    r.finish();

    std::string out = pageSizeName(page_bytes) + " pages, " +
                      std::to_string(scratch.remaps()) + " remaps, " +
                      std::to_string(scratch.framesAllocated()) +
                      " frames";
    out += "; pages/core";
    for (unsigned c = 0; c < cores; ++c) {
        out += ' ';
        out += std::to_string(scratch.pagesMapped(c));
    }
    out += "; tlb valid/core";
    for (unsigned c = 0; c < cores; ++c) {
        out += ' ';
        out += std::to_string(scratch.tlbValid(c));
    }
    return out;
}

std::uint32_t
VmSpec::pageShift() const
{
    SIM_ASSERT(pageBytes != 0 && (pageBytes & (pageBytes - 1)) == 0,
               "page size must be a power of two");
    std::uint32_t shift = 0;
    while ((1u << shift) != pageBytes)
        ++shift;
    return shift;
}

Vm::Vm(sim::EventQueue &eq, const VmSpec &spec, unsigned cores)
    : eq_(eq), spec_(spec), pageShift_(spec.pageShift()),
      spaces_(cores), tlbs_(cores), stats_(cores),
      nextFrame_(physFrameBase >> pageShift_), rng_(spec.seed)
{
    SIM_ASSERT(cores >= 1, "Vm needs at least one core");
    SIM_ASSERT(pageShift_ == shift4k || pageShift_ == shift2m,
               "supported page sizes are 4 KB and 2 MB");
    if (spec_.remapRate > 0.0) {
        const double period = 1e6 / spec_.remapRate;
        remapPeriod_ = std::max<sim::Cycle>(
            1, static_cast<sim::Cycle>(period + 0.5));
    }
    for (Tlb &tlb : tlbs_) {
        tlb.classes.push_back(
            {sim::SetAssoc<std::uint64_t>(tlb4kSets, tlb4kWays)});
        tlb.classes.push_back(
            {sim::SetAssoc<std::uint64_t>(tlb2mSets, tlb2mWays)});
    }
}

std::uint64_t
Vm::allocFrame()
{
    return nextFrame_++;
}

sim::Addr
Vm::translate(unsigned core, sim::Addr vaddr, sim::Cycle &when)
{
    SIM_ASSERT(core < spaces_.size(), "translate from unknown core");
    SIM_ASSERT(vaddr < physFrameBase,
               "virtual address collides with the physical range");
    VmCoreStats &st = stats_[core];
    ++st.accesses;

    const std::uint64_t vpage = vaddr >> pageShift_;
    const sim::Addr offset =
        vaddr & ((sim::Addr(1) << pageShift_) - 1);

    // ULB-style lookup: only the class matching this machine's page
    // size ever holds entries, so it is the only one probed.
    TlbSizeClass &cls = tlbs_[core].classes[activeClass()];
    sim::SetAssoc<std::uint64_t> &tlb = cls.entries;
    const std::uint32_t set = cls.setOf(vpage);
    if (const std::size_t hit = tlb.find(set, vpage);
        hit != tlb.npos) {
        ++st.tlbHits;
        tlb.touch(hit);
        return (sim::Addr(tlb.data(hit)) << pageShift_) | offset;
    }

    // Miss: walk the page table (allocate-on-touch) and refill.
    ++st.tlbMisses;
    st.walkCycles += pageWalkCycles;
    when += pageWalkCycles;

    auto [it, inserted] =
        spaces_[core].pages.try_emplace(vpage, PageEntry{});
    if (inserted)
        it->second.frame = allocFrame();
    ++it->second.touches;
    const std::size_t fill = tlb.victim(set);
    tlb.install(fill, vpage);
    tlb.data(fill) = it->second.frame;
    return (sim::Addr(it->second.frame) << pageShift_) | offset;
}

std::size_t
Vm::tlbValid(unsigned core) const
{
    std::size_t n = 0;
    for (const TlbSizeClass &cls : tlbs_[core].classes)
        cls.entries.forEach([&n](const auto &) { ++n; });
    return n;
}

std::size_t
Vm::activeClass() const
{
    return pageShift_ == shift4k ? 0 : 1;
}

void
Vm::tlbInvalidate(Tlb &tlb, std::uint64_t vpage)
{
    for (TlbSizeClass &cls : tlb.classes) {
        const std::size_t i = cls.entries.find(cls.setOf(vpage), vpage);
        if (i != cls.entries.npos)
            cls.entries.invalidate(i);
    }
}

void
Vm::start()
{
    if (remapPeriod_ == 0)
        return;
    eq_.schedule(eq_.now() + remapPeriod_, *this, sim::EventKind::VmRemap);
}

void
Vm::doRemap()
{
    // The OS migrates pages that are being used.  A tick with no
    // translations since the previous one means the machine is idle
    // (or draining): nothing is hot, so nothing moves.  Without this
    // gate the relocation cost charged to the ULMT per migration can
    // exceed the remap period, and churn against an idle machine
    // extends the run's drain tail without bound.
    std::uint64_t total_accesses = 0;
    for (const VmCoreStats &st : stats_)
        total_accesses += st.accesses;
    const bool active = total_accesses != accessesAtLastTick_;
    accessesAtLastTick_ = total_accesses;

    // Pick the next core (round-robin) that has mapped pages at all.
    unsigned core = remapCursor_;
    bool found = false;
    for (unsigned i = 0; active && i < spaces_.size(); ++i) {
        const unsigned cand =
            (remapCursor_ + i) % static_cast<unsigned>(spaces_.size());
        if (!spaces_[cand].pages.empty()) {
            core = cand;
            found = true;
            break;
        }
    }
    if (found) {
        remapCursor_ =
            (core + 1) % static_cast<unsigned>(spaces_.size());
        AddressSpace &as = spaces_[core];

        // Victim: the hottest page since the last remap (the OS
        // migrates hot pages); lowest vpage breaks ties.  With no
        // touches recorded yet, pick pseudo-randomly so a cold space
        // still churns.
        auto victim = as.pages.begin();
        std::uint64_t best = 0;
        for (auto it = as.pages.begin(); it != as.pages.end(); ++it) {
            if (it->second.touches > best) {
                best = it->second.touches;
                victim = it;
            }
        }
        if (best == 0) {
            auto idx = splitmix64(rng_) % as.pages.size();
            victim = as.pages.begin();
            std::advance(victim, static_cast<std::ptrdiff_t>(idx));
        }

        const std::uint64_t old_frame = victim->second.frame;
        const std::uint64_t new_frame = allocFrame();
        victim->second.frame = new_frame;
        for (auto &p : as.pages)
            p.second.touches = 0;
        tlbInvalidate(tlbs_[core], victim->first);
        ++remaps_;
        ++stats_[core].remaps;
        if (remapCb_)
            remapCb_(old_frame, new_frame, spec_.pageBytes);
    }
    // The firing event was already popped, so pending() counts only
    // other work.  An empty queue means the machine has quiesced:
    // rescheduling would keep the run alive forever on remap ticks.
    if (eq_.pending() > 0)
        eq_.schedule(eq_.now() + remapPeriod_, *this,
                     sim::EventKind::VmRemap);
}

void
Vm::registerStats(sim::StatRegistry &reg) const
{
    for (unsigned c = 0; c < stats_.size(); ++c) {
        const std::string p = "vm.core." + std::to_string(c) + ".";
        const VmCoreStats &st = stats_[c];
        reg.addCounter(p + "tlb.accesses", &st.accesses);
        reg.addCounter(p + "tlb.hits", &st.tlbHits);
        reg.addCounter(p + "tlb.misses", &st.tlbMisses);
        reg.addCounter(p + "walk_cycles", &st.walkCycles);
        reg.addCounter(p + "remaps", &st.remaps);
        reg.addGauge(p + "pages", [this, c] {
            return static_cast<double>(spaces_[c].pages.size());
        });
    }
    reg.addCounter("vm.remaps", &remaps_);
    reg.addGauge("vm.frames_allocated", [this] {
        return static_cast<double>(framesAllocated());
    });
}

void
Vm::walk(ckpt::Stream &s)
{
    s.u64(nextFrame_);
    if (nextFrame_ < (physFrameBase >> pageShift_))
        throw ckpt::CkptError("vm frame allocator before its base");
    s.u64(rng_);
    s.u32(remapCursor_);
    if (remapCursor_ >= spaces_.size())
        throw ckpt::CkptError("vm remap cursor out of range");
    s.u64(remaps_, accessesAtLastTick_);
    for (AddressSpace &as : spaces_) {
        s.sortedMap(as.pages, [&](std::uint64_t &vpage, PageEntry &e) {
            s.u64(vpage, e.frame, e.touches);
            if (e.frame >= nextFrame_)
                throw ckpt::CkptError(
                    "vm page table names an unallocated frame");
        });
    }
    // Dense: every entry of both classes, after the one LRU tick.
    for (Tlb &tlb : tlbs_) {
        std::uint64_t tick = tlb.classes[activeClass()].entries.clock();
        s.u64(tick);
        for (TlbSizeClass &cls : tlb.classes) {
            sim::SetAssoc<std::uint64_t> &e = cls.entries;
            if (s.restoring())
                e.setClock(tick);
            e.walkDense(s, [&](std::size_t i) { s.u64(e.data(i)); });
        }
    }
    for (VmCoreStats &st : stats_)
        s.u64(st.accesses, st.tlbHits, st.tlbMisses, st.walkCycles,
              st.remaps);
}

} // namespace vm
