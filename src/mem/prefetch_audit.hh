/**
 * @file
 * Prefetch lifecycle auditing and per-tenant interference attribution
 * (DESIGN.md section 12).
 *
 * Every ULMT push prefetch gets a lifecycle record from its trigger at
 * the controller (queue 3) through DRAM service and the L2 fill to a
 * terminal outcome:
 *
 *   useful_timely      demand hit on an installed pushed line
 *   useful_late        the fill arrived after the demand miss started
 *                      (a delayed hit: partial coverage)
 *   evicted_unused     the pushed line left the L2 untouched
 *   redundant          the push arrived but the L2 refused it (line
 *                      present / in the write-back queue / MSHRs full /
 *                      set transaction-pending)
 *   dropped_filter     caught by the Filter module or the in-flight
 *                      dedup before issuing
 *   dropped_queue_full queue 3 at capacity
 *   dropped_demand_match / dropped_cpu_pf_match
 *                      queue-1 cross-match (Fig. 3)
 *   dropped_page_cross the push's line and its trigger sit on
 *                      different physical pages (VM layer on only)
 *
 * Outcomes are aggregated per core and per engine; useful prefetches
 * additionally feed a lead-time (fill-to-use cycles) histogram and a
 * lateness sample.  The CPU stream prefetcher's lifecycle (issued /
 * to-memory / useful / timely / replaced) is already fully counted by
 * the hierarchies (cpu_pf.*).
 *
 * Interference attribution: every bus phase and DRAM access reports
 * its occupancy here, split demand / prefetch / other per tenant
 * (tenants are the main cores plus one pseudo-tenant for the memory
 * thread's correlation-table traffic).  When a *demand* fetch waits
 * for a resource, the wait cycles are charged to the tenant whose
 * transfer most recently occupied that resource (last-owner
 * approximation; self when no owner is recorded), producing the
 * memsys.core.<i>.blocked_by.<j> matrix.
 *
 * The audit layer is strictly passive: it only observes cycles that
 * the memory system already computed, never feeds back into timing,
 * and is excluded from config fingerprints.  Its state is not
 * checkpointed; a restored run audits only the post-restore region
 * (records installed before the snapshot fall back to core-level
 * counting without lead-time samples).
 */

#ifndef MEM_PREFETCH_AUDIT_HH
#define MEM_PREFETCH_AUDIT_HH

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/flat_map.hh"
#include "sim/stat_registry.hh"
#include "sim/stats.hh"
#include "sim/trace_event.hh"
#include "sim/types.hh"

namespace mem {

/** Terminal lifecycle outcomes of a ULMT push prefetch. */
enum class PushOutcome : std::uint8_t {
    UsefulTimely,
    UsefulLate,
    EvictedUnused,
    Redundant,
    DroppedFilter,
    DroppedQueueFull,
    DroppedDemandMatch,
    DroppedCpuPfMatch,
    DroppedPageCross,
};

/** Stable snake-case name (stats, BENCH JSON, trace instants). */
const char *pushOutcomeName(PushOutcome o);

/** Traffic split used for the per-tenant bus/DRAM occupancy. */
enum class TrafficSplit : std::uint8_t {
    Demand,    //!< demand fetch phases
    Prefetch,  //!< CPU-prefetch fetches and ULMT pushes
    Other,     //!< write-backs and correlation-table traffic
};

/** Per-core (or per-engine) push outcome counters. */
struct AuditOutcomeCounts
{
    std::uint64_t issued = 0;
    std::uint64_t usefulTimely = 0;
    std::uint64_t usefulLate = 0;
    std::uint64_t evictedUnused = 0;
    std::uint64_t redundant = 0;
    std::uint64_t droppedFilter = 0;
    std::uint64_t droppedQueueFull = 0;
    std::uint64_t droppedDemandMatch = 0;
    std::uint64_t droppedCpuPfMatch = 0;
    std::uint64_t droppedPageCross = 0;

    /** Pushes the engine handed to the controller (issued + drops). */
    std::uint64_t
    triggered() const
    {
        return issued + droppedFilter + droppedQueueFull +
               droppedDemandMatch + droppedCpuPfMatch +
               droppedPageCross;
    }

    std::uint64_t useful() const { return usefulTimely + usefulLate; }

    /** Fraction of issued pushes that were referenced. */
    double
    accuracy() const
    {
        return issued ? static_cast<double>(useful()) /
                            static_cast<double>(issued)
                      : 0.0;
    }

    /** Fraction of useful pushes that arrived before the demand. */
    double
    timeliness() const
    {
        return useful() ? static_cast<double>(usefulTimely) /
                              static_cast<double>(useful())
                        : 0.0;
    }

    /** Fraction of would-be misses covered, given the demand misses
     *  that went to memory at full latency. */
    double
    coverage(std::uint64_t non_pref_misses) const
    {
        const std::uint64_t total = useful() + non_pref_misses;
        return total ? static_cast<double>(useful()) /
                           static_cast<double>(total)
                     : 0.0;
    }
};

/** One core's slice of the end-of-run audit report. */
struct AuditCoreReport
{
    AuditOutcomeCounts push;
};

/**
 * What the registry cannot say about the audit: the push records still
 * open at the end of the run.  Every other audit figure is a passive
 * registry entry (audit.core.<c>.*, audit.engine.<e>.*,
 * memsys.core.<i>.blocked_by.*).
 */
struct AuditReport
{
    bool enabled = false;
    std::vector<AuditCoreReport> cores;
    /** Push records with no terminal outcome at end of run. */
    std::uint64_t openInflight = 0;
    std::uint64_t openInstalled = 0;
};

/** The passive lifecycle / interference auditor. */
class PrefetchAudit
{
  public:
    /**
     * @param cores    main processors sharing the memory system
     * @param engines  ULMT engines (>= 1; engine ids out of range are
     *                 counted per core only)
     * @param banks    DRAM banks (global) for ownership tracking
     * @param channels DRAM channels
     */
    PrefetchAudit(unsigned cores, unsigned engines, std::size_t banks,
                  std::size_t channels);

    /** The pseudo-tenant index of the memory thread. */
    unsigned ulmtTenant() const { return numCores_; }

    // --- Lifecycle hooks (MemorySystem) ------------------------------

    /** A push died before issuing; @p reason is one of the Dropped*
     *  outcomes. */
    void pushDropped(unsigned core, unsigned engine, PushOutcome reason,
                     std::uint64_t flow, sim::Cycle when);

    /** A push issued to DRAM; @p key is the packed (core,line) id. */
    void pushIssued(unsigned core, unsigned engine, std::uint64_t flow,
                    sim::Addr key, sim::Cycle ready, sim::Cycle arrival);

    // --- Lifecycle hooks (Hierarchy) ---------------------------------

    /** The pushed line was installed in the L2 at @p when. */
    void pushInstalled(unsigned core, sim::Addr line_addr,
                       sim::Cycle when);

    /** First demand touch of an installed pushed line. */
    void pushUsedTimely(unsigned core, sim::Addr line_addr,
                        sim::Cycle when);

    /** A demand miss claimed an in-flight push (delayed hit). */
    void pushUsedLate(unsigned core, sim::Addr line_addr,
                      sim::Cycle when, sim::Cycle arrival);

    /** The push arrived but the L2 refused it (four drop rules). */
    void pushRedundant(unsigned core, sim::Addr line_addr,
                       sim::Cycle when);

    /** An installed pushed line was evicted untouched. */
    void pushEvicted(unsigned core, sim::Addr line_addr,
                     sim::Cycle when);

    // --- Interference hooks (MemorySystem) ---------------------------

    /**
     * One bus phase by @p tenant.  @p start/@p duration are the cycles
     * the bus actually granted; for Demand traffic the wait
     * (start - ready) is charged to the bus's last recorded owner.
     */
    void busPhase(unsigned tenant, TrafficSplit cls, sim::Cycle ready,
                  sim::Cycle start, sim::Cycle duration);

    /**
     * One DRAM access by @p tenant.  @p occupancy is the intrinsic
     * bank + channel time; the difference to (done - ready) is
     * queueing, charged (Demand only) to the bank's -- else the
     * channel's -- last recorded owner.  @p channel may be SIZE_MAX
     * for bank-only accesses (in-DRAM table reads).
     */
    void dramAccess(unsigned tenant, TrafficSplit cls, std::size_t bank,
                    std::size_t channel, sim::Cycle ready,
                    sim::Cycle done, sim::Cycle occupancy);

    // --- Output ------------------------------------------------------

    /**
     * Register everything under "audit.core.<c>.*" and
     * "memsys.core.<i>.blocked_by.<j>".  @p non_pref_misses supplies
     * the per-core coverage denominator (demand misses at full
     * latency) and must stay valid for the registry's lifetime.
     */
    void registerStats(
        sim::StatRegistry &reg,
        std::function<std::uint64_t(unsigned)> non_pref_misses);

    /** Emit outcome-annotated flow ends into @p t (nullptr disables). */
    void setTrace(sim::TraceEventBuffer *t) { trace_ = t; }

    /** Machine-wide aggregates (time-series channels). */
    AuditOutcomeCounts totals() const;
    std::uint64_t blockedTotal() const { return blockedTotal_; }

    /** The end-of-run push counts and open records. */
    AuditReport report() const;

  private:
    struct PushRecord
    {
        unsigned engine = 0;
        std::uint64_t flow = 0;
        sim::Cycle fill = 0;  //!< valid in installed_ only
    };

    struct CoreAudit
    {
        AuditOutcomeCounts push;
        sim::BinnedHistogram leadTime;
        sim::SampleStat lateCycles;
        sim::SampleStat issueToFill;
        std::array<std::uint64_t, 3> busCycles{};
        std::array<std::uint64_t, 3> dramCycles{};
        std::vector<std::uint64_t> blockedBy;

        CoreAudit(std::vector<double> edges, std::size_t tenants)
            : leadTime(std::move(edges)), blockedBy(tenants, 0)
        {
        }
    };

    /** Last recorded occupant of one arbitrated resource. */
    struct ResOwner
    {
        unsigned tenant = 0;
        sim::Cycle end = 0;
        bool valid = false;
    };

    void terminal(unsigned core, const PushRecord *rec, PushOutcome o,
                  sim::Cycle when);
    void countOutcome(AuditOutcomeCounts &c, PushOutcome o);
    void chargeWait(unsigned victim, const ResOwner &owner,
                    sim::Cycle ready, sim::Cycle wait);
    static void updateOwner(ResOwner &owner, unsigned tenant,
                            sim::Cycle end);

    unsigned numCores_;
    unsigned numEngines_;
    std::vector<CoreAudit> cores_;
    std::vector<AuditOutcomeCounts> engines_;
    sim::FlatMap<PushRecord> inflight_;
    sim::FlatMap<PushRecord> installed_;
    ResOwner busOwner_;
    std::vector<ResOwner> bankOwner_;
    std::vector<ResOwner> chanOwner_;
    std::uint64_t blockedTotal_ = 0;
    std::uint64_t tableDramCycles_ = 0;
    sim::TraceEventBuffer *trace_ = nullptr;
};

} // namespace mem

#endif // MEM_PREFETCH_AUDIT_HH
