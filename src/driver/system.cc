#include "driver/system.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <stdexcept>

#include "ckpt/sim_state.hh"
#include "driver/experiment.hh"
#include "sim/logging.hh"

namespace driver {

namespace {

/** Safety valve: no run should need more events than this. */
constexpr std::uint64_t maxEvents = 4'000'000'000ULL;

/**
 * The config's check options, unless the config leaves checking off
 * and the ULMT_CHECK environment variable (1/basic/deep) asks for it
 * process-wide (the CI hook for a checker-enabled test pass).
 */
check::CheckOptions
effectiveCheckOptions(const SystemConfig &cfg)
{
    check::CheckOptions opts = cfg.check;
    if (opts.enabled())
        return opts;
    if (const char *env = std::getenv("ULMT_CHECK")) {
        const std::string v(env);
        if (v == "deep")
            opts.mode = check::CheckMode::Deep;
        else if (v == "1" || v == "basic")
            opts.mode = check::CheckMode::Basic;
    }
    return opts;
}

/** Section name of core/engine @p i: instance 0 keeps the
 *  pre-multicore unsuffixed name. */
std::string
sectionName(const char *base, std::size_t i)
{
    return i ? base + std::to_string(i) : base;
}

} // namespace

std::size_t
numEngines(const SystemConfig &cfg)
{
    if (!cfg.ulmt.enabled())
        return 0;
    return cfg.ulmtMode == core::UlmtMode::PerCore ? cfg.cores : 1;
}

std::string
RunResult::engineStat(const std::string &leaf, unsigned e) const
{
    return sim::enginePrefix(e, numEngines(config)) + leaf;
}

double
RunResult::busUtilization() const
{
    return cycles ? stats.value("bus.busy.total") / double(cycles) : 0.0;
}

double
RunResult::busUtilizationPrefetch() const
{
    if (!cycles)
        return 0.0;
    const std::uint64_t busy = stats.counter("bus.busy.cpu_pf_request") +
                               stats.counter("bus.busy.cpu_pf_data") +
                               stats.counter("bus.busy.ulmt_pf_data");
    return double(busy) / double(cycles);
}

System::System(const SystemConfig &cfg, workloads::Workload &workload)
    : System(cfg, workload, workload.name())
{
    workloadSource_ = workload.source();
    coreWorkloads_[0] = &workload;
    ckptApp_ = workload.name();
}

System::System(const SystemConfig &cfg, cpu::TraceSource &source,
               std::string name)
    : cfg_(cfg), workloadName_(std::move(name))
{
    if (cfg_.cores != 1) {
        throw std::invalid_argument(
            "System: a multicore machine needs one workload per core "
            "(use the vector-of-workloads constructor)");
    }
    sources_.push_back(&source);
    coreWorkloads_.assign(1, nullptr);
    init();
}

System::System(const SystemConfig &cfg,
               std::vector<std::unique_ptr<workloads::Workload>> workloads,
               std::string name)
    : cfg_(cfg), workloadName_(std::move(name))
{
    if (workloads.size() != cfg_.cores) {
        throw std::invalid_argument(
            "System: got " + std::to_string(workloads.size()) +
            " workloads for " + std::to_string(cfg_.cores) + " cores");
    }
    ownedWorkloads_ = std::move(workloads);
    for (auto &w : ownedWorkloads_) {
        sources_.push_back(w.get());
        coreWorkloads_.push_back(w.get());
    }
    workloadSource_ = ownedWorkloads_[0]->source();
    ckptApp_ = ownedWorkloads_[0]->name();
    init();
}

void
System::init()
{
    if (cfg_.cores < 1 || cfg_.cores > sim::maxCores) {
        throw std::invalid_argument(
            "System: cores must be in [1, " +
            std::to_string(sim::maxCores) + "]");
    }
    SIM_ASSERT(sources_.size() == cfg_.cores,
               "one trace source per core");

    ms_ = std::make_unique<mem::MemorySystem>(eq_, cfg_.timing);
    // Size the per-tenant QoS counters before registerStats() runs:
    // the registry keeps raw pointers into the vector.
    ms_->setNumCores(cfg_.cores);
    if (cfg_.tableCache.on())
        ms_->configureTableCache(cfg_.tableCache);

    for (unsigned c = 0; c < cfg_.cores; ++c) {
        hiers_.push_back(std::make_unique<cpu::Hierarchy>(
            eq_, cfg_.timing, *ms_, cfg_.conven4, c));
    }
    ms_->setPushCallback(
        [this](sim::Cycle when, sim::Addr line, unsigned core) {
            hiers_[core]->acceptPush(when, line);
        });

    if (cfg_.vm.on()) {
        vm_ = std::make_unique<vm::Vm>(eq_, cfg_.vm, cfg_.cores);
        for (auto &h : hiers_)
            h->setVm(vm_.get());
        // The controller enforces the page-cross drop rule on pushes.
        ms_->setPageShift(vm_->pageShift());
        // A migration is an OS event: notify the ULMT (Sec 3.4) and
        // resync the checker's reference models, exactly as an
        // externally injected System::pageRemap would.
        vm_->setRemapCallback([this](sim::Addr old_page,
                                     sim::Addr new_page,
                                     std::uint32_t page_bytes) {
            pageRemap(old_page, new_page, page_bytes);
        });
    }

    if (cfg_.ulmt.enabled()) {
        using Shards =
            std::vector<std::unique_ptr<core::CorrelationPrefetcher>>;
        switch (cfg_.ulmtMode) {
          case core::UlmtMode::Shared: {
            // One thread, one table, every tenant round-robin.
            Shards shards;
            shards.push_back(core::makeAlgorithm(cfg_.ulmt));
            engines_.push_back(std::make_unique<core::UlmtEngine>(
                eq_, cfg_.timing, *ms_, std::move(shards), cfg_.cores,
                /*base_core=*/0, /*engine_id=*/0));
            ms_->setObserver(engines_[0].get(), cfg_.ulmt.verbose);
            break;
          }
          case core::UlmtMode::Sharded: {
            // One thread, one table shard per tenant (disjoint table
            // address ranges so shards never alias in DRAM).
            Shards shards;
            for (unsigned c = 0; c < cfg_.cores; ++c) {
                shards.push_back(core::makeAlgorithm(
                    cfg_.ulmt, core::shardTableBase(c)));
            }
            engines_.push_back(std::make_unique<core::UlmtEngine>(
                eq_, cfg_.timing, *ms_, std::move(shards), cfg_.cores,
                /*base_core=*/0, /*engine_id=*/0));
            ms_->setObserver(engines_[0].get(), cfg_.ulmt.verbose);
            break;
          }
          case core::UlmtMode::PerCore: {
            // One thread (and table) per tenant; each observes only
            // its own core's misses.
            for (unsigned c = 0; c < cfg_.cores; ++c) {
                Shards shards;
                shards.push_back(core::makeAlgorithm(
                    cfg_.ulmt, core::shardTableBase(c)));
                engines_.push_back(std::make_unique<core::UlmtEngine>(
                    eq_, cfg_.timing, *ms_, std::move(shards),
                    /*num_cores=*/1, /*base_core=*/c,
                    /*engine_id=*/c));
                ms_->setCoreObserver(c, engines_[c].get(),
                                     cfg_.ulmt.verbose);
            }
            break;
          }
        }
    }

    SIM_ASSERT(engines_.size() == driver::numEngines(cfg_),
               "numEngines() disagrees with the engines built");

    if (cfg_.audit) {
        audit_ = std::make_unique<mem::PrefetchAudit>(
            cfg_.cores,
            static_cast<unsigned>(std::max<std::size_t>(
                engines_.size(), 1)),
            ms_->dram().numBanks(), ms_->dram().numChannels());
        ms_->setAudit(audit_.get());
        for (auto &h : hiers_)
            h->setAudit(audit_.get());
    }

    if (cfg_.hwCorrSramBytes > 0) {
        if (cfg_.cores > 1) {
            throw std::invalid_argument(
                "the hardware correlation baseline is single-core "
                "only");
        }
        hwCorr_ = std::make_unique<HwCorrelationEngine>(
            *ms_, cfg_.hwCorrSramBytes, cfg_.hwCorrReplicated);
    }

    if (cfg_.recordMissStream || hwCorr_) {
        for (auto &h : hiers_) {
            h->onDemandL2Miss = [this](sim::Cycle when,
                                       sim::Addr line) {
                if (cfg_.recordMissStream)
                    missStream_.push_back(line);
                if (hwCorr_)
                    hwCorr_->observeMiss(when, line);
            };
        }
    }

    for (unsigned c = 0; c < cfg_.cores; ++c) {
        cpus_.push_back(std::make_unique<cpu::MainProcessor>(
            eq_, cfg_.timing, *hiers_[c], *sources_[c], c));
    }

    const check::CheckOptions chk = effectiveCheckOptions(cfg_);
    if (chk.enabled()) {
        std::vector<cpu::Hierarchy *> hs;
        for (auto &h : hiers_)
            hs.push_back(h.get());
        std::vector<core::UlmtEngine *> es;
        for (auto &e : engines_)
            es.push_back(e.get());
        checker_ = std::make_unique<check::InvariantChecker>(
            chk, eq_, *ms_, std::move(hs), std::move(es));
        checker_->install();
    }

    initObservability();
}

void
System::initObservability()
{
    // One dotted namespace over every component's counters, with
    // per-core and per-engine prefixes (sim::corePrefix/enginePrefix).
    ms_->registerStats(registry_);
    for (unsigned c = 0; c < cfg_.cores; ++c) {
        const std::string p = sim::corePrefix(c, cfg_.cores);
        hiers_[c]->registerStats(registry_, p);
        cpus_[c]->registerStats(registry_, p);
    }
    for (auto &e : engines_)
        e->registerStats(registry_,
                         sim::enginePrefix(e->engineId(), engines_.size()));
    if (checker_)
        checker_->registerStats(registry_);
    if (vm_)
        vm_->registerStats(registry_);
    if (audit_) {
        audit_->registerStats(registry_, [this](unsigned c) {
            return hiers_[c]->stats().nonPrefMisses;
        });
    }

    // Host-side checkpoint costs (0 until a save/restore happens).
    {
        const sim::StatRegistry::PassiveScope passive(registry_);
        registry_.addGauge("ckpt.save_seconds",
                           [this] { return ckptSaveSeconds_; });
        registry_.addGauge("ckpt.restore_seconds",
                           [this] { return ckptRestoreSeconds_; });
        registry_.addGauge("ckpt.snapshot_bytes",
                           [this] { return double(ckptBytes_); });
    }

    if (cfg_.metricsInterval == 0)
        return;

    // The sampled channels stay on core 0 / engine 0: the time series
    // is a dashboard of the machine's representative tenant, and the
    // per-core registries above carry the full breakdown.
    sampler_ = std::make_unique<sim::TimeSeriesSampler>(
        cfg_.metricsInterval);
    sampler_->addChannel("l2.mshr_occupancy", [this] {
        return double(hiers_[0]->mshrInUse(eq_.now()));
    });
    sampler_->addChannel("memsys.queue1_inflight", [this] {
        return double(ms_->inflightDemandCount() +
                      ms_->inflightCpuPrefetchCount());
    });
    sampler_->addChannel("memsys.queue3_inflight", [this] {
        return double(ms_->inflightPrefetchCount());
    });
    // Fraction of ULMT prefetch requests the Filter module caught.
    sampler_->addChannel("memsys.filter_hit_rate", [this] {
        const mem::PrefetchFilter &f = ms_->filter();
        const double total = double(f.admits() + f.drops());
        return total > 0.0 ? double(f.drops()) / total : 0.0;
    });
    sampler_->addChannel("bus.utilization", [this] {
        const sim::Cycle now = eq_.now();
        return now ? double(ms_->bus().busyTotal()) / double(now)
                   : 0.0;
    });
    sampler_->addChannel("dram.row_hit_rate", [this] {
        const mem::DramStats &d = ms_->dram().stats();
        return d.accesses ? double(d.rowHits) / double(d.accesses)
                          : 0.0;
    });
    if (cfg_.tableCache.on()) {
        sampler_->addChannel("memsys.tcache.hit_rate", [this] {
            const mem::TableCacheStats &t =
                ms_->tableCache().stats();
            const double total = double(t.hits + t.misses);
            return total > 0.0 ? double(t.hits) / total : 0.0;
        });
    }
    if (!engines_.empty()) {
        sampler_->addChannel("ulmt.queue2_depth", [this] {
            return double(engines_[0]->queue2Depth());
        });
        sampler_->addChannel("ulmt.table_bytes", [this] {
            double b = 0.0;
            for (std::size_t i = 0; i < engines_[0]->numShards(); ++i)
                b += double(engines_[0]->shard(i).tableBytes());
            return b;
        });
        sampler_->addChannel("ulmt.response_mean", [this] {
            return engines_[0]->stats().responseTime.mean();
        });
        sampler_->addChannel("ulmt.occupancy_mean", [this] {
            return engines_[0]->stats().occupancyTime.mean();
        });
    }
    if (audit_) {
        // Effectiveness time series: machine-wide outcome ratios plus
        // the cumulative interference charge.
        sampler_->addChannel("audit.coverage", [this] {
            std::uint64_t npm = 0;
            for (const auto &h : hiers_)
                npm += h->stats().nonPrefMisses;
            return audit_->totals().coverage(npm);
        });
        sampler_->addChannel("audit.accuracy", [this] {
            return audit_->totals().accuracy();
        });
        sampler_->addChannel("audit.timeliness", [this] {
            return audit_->totals().timeliness();
        });
        sampler_->addChannel("audit.blocked_cycles", [this] {
            return double(audit_->blockedTotal());
        });
    }

    // Passive ticker: the sampler only reads state, so timing and
    // executed-event counts are identical with sampling on or off.
    eq_.setTicker(cfg_.metricsInterval,
                  [this](sim::Cycle now) { sampler_->tick(now); });
}

void
System::setCheckpointMeta(std::string app_key, std::uint64_t seed,
                          double scale)
{
    ckptApp_ = std::move(app_key);
    ckptSeed_ = seed;
    ckptScale_ = scale;
}

void
System::setCheckpointTrigger(const std::string &spec, std::string path)
{
    if (spec.empty())
        throw ckpt::CkptError("empty checkpoint trigger");
    std::size_t end = 0;
    unsigned long long n = 0;
    try {
        n = std::stoull(spec, &end);
    } catch (const std::exception &) {
        throw ckpt::CkptError("bad checkpoint trigger '" + spec +
                              "' (expected '<N>' misses or '<N>c')");
    }
    if (end == spec.size()) {
        ckptTriggerMisses_ = n;
        ckptTriggerCycle_ = 0;
    } else if (end + 1 == spec.size() && spec[end] == 'c') {
        ckptTriggerCycle_ = n;
        ckptTriggerMisses_ = 0;
    } else {
        throw ckpt::CkptError("bad checkpoint trigger '" + spec +
                              "' (expected '<N>' misses or '<N>c')");
    }
    ckptPath_ = std::move(path);
}

std::uint64_t
System::configFingerprint() const
{
    // Canonical serialization of everything that shapes simulated
    // behaviour.  An integer is one varint whatever its width.
    ckpt::StateWriter w;
    const auto ints = [&w](std::initializer_list<std::uint64_t> values) {
        for (std::uint64_t v : values)
            w.u64(v);
    };
    const mem::TimingParams &tp = cfg_.timing;
    ints({tp.issueWidth, tp.maxPendingLoads, tp.maxPendingStores,
          tp.robSize});
    for (const mem::CacheGeometry *g : {&tp.l1, &tp.l2, &tp.memProcL1})
        ints({g->sizeBytes, g->assoc, g->lineBytes});
    ints({tp.streamNumSeq, tp.streamNumPref, tp.l1HitRt, tp.l2HitRt,
          tp.l2Mshrs, tp.busCyclesPerBeat, tp.busBytesPerBeat,
          tp.reqPathCycles, tp.respPathCycles, tp.dramChannels,
          tp.dramBanksPerChannel, tp.dramRowBytes, tp.bankRowHitCycles,
          tp.bankRowMissCycles, tp.channelXferCycles,
          tp.tableBankRowHitCycles, tp.tableBankRowMissCycles,
          tp.tableChannelXferCycles});
    w.u8(static_cast<std::uint8_t>(tp.placement));
    ints({tp.memProcIssueWidth, tp.memProcL1HitRtMemCycles,
          tp.tableAccessFixedDram, tp.tableAccessFixedNorthBridge,
          tp.prefetchInjectDelay, tp.queueDepth, tp.filterEntries});

    w.b(cfg_.conven4);
    w.u32(static_cast<std::uint32_t>(cfg_.ulmt.algo));
    w.u32(cfg_.ulmt.numRows);
    w.u32(cfg_.ulmt.numLevels);
    w.b(cfg_.ulmt.verbose);
    w.u64(cfg_.hwCorrSramBytes);
    w.b(cfg_.hwCorrReplicated);
    w.b(cfg_.recordMissStream);
    w.str(cfg_.label);
    w.str(workloadName_);
    // Each behavioural layer of the machine-knob table appends its
    // own bytes, and only when it is not at its default.
    for (const MachineLayer &layer : machineLayers()) {
        if (layer.fingerprint)
            layer.fingerprint(cfg_, w);
    }

    const std::string &buf = w.buffer();
    return ckpt::fnv1a64(buf.data(), buf.size());
}

sim::EventTarget &
System::resolveEvent(const sim::SavedEvent &s)
{
    switch (static_cast<sim::EventKind>(s.kind)) {
      case sim::EventKind::ProcStep:
        if (s.arg0 >= cpus_.size()) {
            throw ckpt::CkptError(
                "checkpoint step event names a core this machine "
                "does not have");
        }
        return *cpus_[s.arg0];
      case sim::EventKind::MemDemandDone:
      case sim::EventKind::MemCpuPfDone:
      case sim::EventKind::MemPfArrival:
        return *ms_;
      case sim::EventKind::UlmtProcess:
        if (s.arg0 >= engines_.size()) {
            throw ckpt::CkptError(
                "checkpoint has a pending ULMT event but this "
                "configuration has no matching engine");
        }
        return *engines_[s.arg0];
      case sim::EventKind::VmRemap:
        if (!vm_) {
            throw ckpt::CkptError(
                "checkpoint has a pending VM remap event but this "
                "machine has no VM layer");
        }
        return *vm_;
      default:
        throw ckpt::CkptError("unresolvable event kind in checkpoint");
    }
}

std::vector<System::Section>
System::sections(QueueImage &queue)
{
    std::vector<Section> out;
    out.push_back({"events", [this, &queue](ckpt::Stream &s) {
        s.u64(queue.now, queue.nextSeq, queue.executed);
        // Bounds the queue itself asserts: refuse them as input.
        if (queue.nextSeq >= sim::EventQueue::seqLimit)
            throw ckpt::CkptError("checkpoint event sequence counter "
                                  "beyond the queue's 40-bit budget");
        s.seq(
            queue.events,
            [&](sim::SavedEvent &e) {
                s.u64(e.when, e.seq);
                s.u32(e.kind);
                s.u64(e.arg0, e.arg1);
                if (e.kind == 0 ||
                    e.kind > static_cast<std::uint32_t>(
                                 sim::EventKind::VmRemap))
                    throw ckpt::CkptError(
                        "corrupt event kind in checkpoint");
                if (e.when < queue.now || e.seq >= queue.nextSeq)
                    throw ckpt::CkptError(
                        "checkpoint event outside the snapshot bounds");
            },
            sim::EventQueue::maxPending,
            "checkpoint holds more pending events than the queue has "
            "slots");
    }});
    for (std::size_t c = 0; c < cpus_.size(); ++c)
        out.push_back({sectionName("cpu", c), [this, c](ckpt::Stream &s) {
                           cpus_[c]->walk(s);
                       }});
    for (std::size_t c = 0; c < hiers_.size(); ++c)
        out.push_back({sectionName("hier", c), [this, c](ckpt::Stream &s) {
                           hiers_[c]->walk(s);
                       }});
    out.push_back({"memsys", [this](ckpt::Stream &s) { ms_->walk(s); }});
    for (std::size_t i = 0; i < engines_.size(); ++i)
        out.push_back({sectionName("ulmt", i), [this, i](ckpt::Stream &s) {
                           engines_[i]->walk(s);
                       }});
    if (vm_)
        out.push_back({"vm", [this](ckpt::Stream &s) { vm_->walk(s); }});
    if (cfg_.tableCache.on()) {
        out.push_back({"tcache", [this](ckpt::Stream &s) {
                           ms_->tableCache().walk(s);
                       }});
    }
    out.push_back({"driver", [this](ckpt::Stream &s) {
        bool recorded = cfg_.recordMissStream;
        s.b(recorded);
        if (s.restoring())
            missStream_.clear();
        if (recorded)
            s.u64s(missStream_);
    }});
    return out;
}

void
System::saveCheckpoint(const std::string &path)
{
    const auto t0 = std::chrono::steady_clock::now();
    if (hwCorr_) {
        throw ckpt::CkptError(
            "the hardware correlation baseline is not checkpointable");
    }

    ckpt::CheckpointImage img;
    img.header.configFingerprint = configFingerprint();
    img.header.seed = ckptSeed_;
    img.header.scale = ckptScale_;
    img.header.cycle = eq_.now();
    std::uint64_t misses = 0;
    for (const auto &h : hiers_)
        misses += h->stats().l2Misses;
    img.header.misses = misses;
    img.header.cores = cfg_.cores;
    img.header.ulmtMode = static_cast<std::uint32_t>(cfg_.ulmtMode);
    img.header.vmPageBytes = vm_ ? vm_->pageBytes() : 0;
    img.header.workload = ckptApp_;
    img.header.label = cfg_.label;

    QueueImage queue{eq_.now(), eq_.nextSeq(), eq_.executed(),
                     eq_.saveEvents()};
    for (const Section &sec : sections(queue)) {
        ckpt::StateWriter w;
        ckpt::Stream s(w);
        sec.walk(s);
        img.addSection(sec.name, w.take());
    }

    ckptBytes_ = img.writeFile(path);
    ckptSaveSeconds_ +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
}

void
System::restoreCheckpoint(const std::string &path)
{
    const auto t0 = std::chrono::steady_clock::now();
    if (hwCorr_) {
        throw ckpt::CkptError(
            "the hardware correlation baseline is not checkpointable");
    }
    for (workloads::Workload *w : coreWorkloads_) {
        if (!w) {
            throw ckpt::CkptError(
                "restore needs a rewindable workload (raw trace "
                "sources have no fast-forwardable cursor)");
        }
    }
    const ckpt::CheckpointImage img = ckpt::CheckpointImage::readFile(path);
    // The machine-shape checks come before the fingerprint check so a
    // cores or serving-mode mismatch is reported as exactly that.
    if (img.header.cores != cfg_.cores) {
        throw ckpt::CkptError(
            "checkpoint '" + path + "' was taken on a " +
            std::to_string(img.header.cores) + "-core machine, not " +
            std::to_string(cfg_.cores) + " cores");
    }
    if (img.header.ulmtMode !=
        static_cast<std::uint32_t>(cfg_.ulmtMode)) {
        throw ckpt::CkptError(
            "checkpoint '" + path +
            "' was taken under a different ULMT serving mode");
    }
    // VM page size is machine shape too: report a mismatch as such
    // before the opaque fingerprint comparison can mask it.
    const std::uint32_t my_page_bytes = vm_ ? vm_->pageBytes() : 0;
    if (img.header.vmPageBytes != my_page_bytes) {
        const auto shape = [](std::uint32_t pb) {
            return pb ? "VM with " + vm::pageSizeName(pb) + " pages"
                      : std::string("no VM layer");
        };
        throw ckpt::CkptError(
            "checkpoint '" + path + "' was taken with " +
            shape(img.header.vmPageBytes) + ", but this machine has " +
            shape(my_page_bytes));
    }
    // A cache-on machine needs the tcache section.  v4 files (and v5
    // files from --table-cache=0 machines) lack it; report that as
    // the shape mismatch it is before the opaque fingerprint check.
    if (cfg_.tableCache.on() && !img.findSection("tcache")) {
        throw ckpt::CkptError(
            "checkpoint '" + path +
            "' has no table-cache section (format v4, or taken with "
            "--table-cache=0); this machine runs --table-cache=" +
            std::to_string(cfg_.tableCache.entries) + "," +
            std::to_string(cfg_.tableCache.assoc) +
            " -- re-create the checkpoint with the same flag");
    }
    if (img.header.configFingerprint != configFingerprint()) {
        throw ckpt::CkptError(
            "checkpoint '" + path +
            "' was taken under a different machine configuration");
    }
    if (img.header.workload != ckptApp_) {
        throw ckpt::CkptError("checkpoint '" + path + "' is for workload '" +
                              img.header.workload + "', not '" + ckptApp_ +
                              "'");
    }

    QueueImage queue;
    for (const Section &sec : sections(queue)) {
        ckpt::StateReader r(img.section(sec.name));
        ckpt::Stream s(r);
        sec.walk(s);
        r.finish();
    }

    // Fast-forward each core's workload cursor: its processor has
    // consumed stats().records records (including the in-progress
    // one).
    for (std::size_t c = 0; c < cpus_.size(); ++c) {
        coreWorkloads_[c]->reset();
        cpu::TraceRecord rec;
        for (std::uint64_t i = 0; i < cpus_[c]->stats().records; ++i) {
            if (!coreWorkloads_[c]->next(rec)) {
                throw ckpt::CkptError(
                    "workload ended before the checkpoint's trace "
                    "cursor");
            }
        }
    }

    eq_.restoreEvents(queue.now, queue.nextSeq, queue.executed,
                      queue.events,
                      [this](const sim::SavedEvent &e) -> sim::EventTarget & {
                          return resolveEvent(e);
                      });
    // A memory event must match an entry of queue 1 or 3, or firing it
    // would panic or push a line that was never fetched.
    check::CheckContext ctx;
    ms_->checkInvariants(ctx, queue.events);
    if (!ctx.ok()) {
        throw ckpt::CkptError(
            ctx.report("checkpoint's memory queues disagree with its "
                       "pending events"));
    }

    // The shadows saw none of the restored fills; rebuild them from
    // the real structures, then prove the restored state is sane.
    if (checker_) {
        checker_->resyncDeep();
        checker_->runChecks();
    }

    restored_ = true;
    ckptRestoreSeconds_ +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
}

void
System::setTraceEvents(sim::TraceEventBuffer *buf)
{
    trace_ = buf;
    ms_->setTrace(buf);
    for (auto &e : engines_)
        e->setTrace(buf);
    if (sampler_)
        sampler_->setTrace(buf);
    if (audit_)
        audit_->setTrace(buf);
}

RunResult
System::run()
{
    // After a restore the step events are already pending in the
    // queue; scheduling more would double-step the cores.
    if (!restored_) {
        for (auto &c : cpus_)
            c->start();
        if (vm_)
            vm_->start();
    }
    if (!ckptPath_.empty()) {
        if (ckptTriggerCycle_ > 0) {
            eq_.setBreakCheck([this](sim::Cycle now) {
                return now >= ckptTriggerCycle_;
            });
        } else {
            eq_.setBreakCheck([this](sim::Cycle) {
                std::uint64_t misses = 0;
                for (const auto &h : hiers_)
                    misses += h->stats().l2Misses;
                return misses >= ckptTriggerMisses_;
            });
        }
    }
    const auto wall_start = std::chrono::steady_clock::now();
    bool drained = eq_.run(maxEvents);
    while (!drained && eq_.breakHit()) {
        // The trigger fired between events: a consistent instant.
        // Snapshot, disarm, and carry on to completion.
        saveCheckpoint(ckptPath_);
        eq_.clearBreakCheck();
        drained = eq_.run(maxEvents);
    }
    const auto wall_end = std::chrono::steady_clock::now();
    bool finished = true;
    for (const auto &c : cpus_)
        finished = finished && c->finished();
    SIM_ASSERT(drained && finished,
               "simulation did not complete (event limit hit?)");
    if (checker_)
        checker_->runChecks();  // final end-of-run walk

    RunResult r;
    r.workload = workloadName_;
    r.label = cfg_.label;
    r.source = workloadSource_;
    r.config = cfg_;
    r.stats = registry_.snapshot();
    r.wallSeconds =
        std::chrono::duration<double>(wall_end - wall_start).count();
    r.eventsExecuted = eq_.executed();
    for (const auto &c : cpus_) {
        r.cycles = std::max(r.cycles, c->stats().totalCycles);
        r.records += c->stats().records;
    }
    r.tcacheOn = cfg_.tableCache.on();
    if (audit_)
        r.audit = audit_->report();
    double q1_sum = 0.0;
    std::uint64_t q1_count = 0;
    for (const mem::CoreQos &q : ms_->coreQos()) {
        q1_sum += q.q1Wait.sum();
        q1_count += q.q1Wait.count();
    }
    r.q1WaitMean = q1_count ? q1_sum / double(q1_count) : 0.0;
    r.missStream = std::move(missStream_);
    if (sampler_) {
        sampler_->flush(eq_.now());  // final end-of-run row
        r.metrics = sampler_->take();
    }
    return r;
}

void
System::pageRemap(sim::Addr old_page, sim::Addr new_page,
                  std::uint32_t page_bytes)
{
    for (auto &e : engines_)
        e->pageRemap(old_page, new_page, page_bytes);
    // A remap rewrites table tags in place; the pair-table oracle has
    // no notification stream for it, so rebuild from the real state.
    if (checker_)
        checker_->resyncDeep();
}

} // namespace driver
