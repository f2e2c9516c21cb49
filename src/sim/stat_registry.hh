/**
 * @file
 * The simulator-wide statistic registry.
 *
 * Every component registers its counters, sample statistics,
 * histograms and computed gauges under a dotted path
 * ("l2.mshr.stolen", "ulmt.response_cycles", "memsys.queue3.drops"),
 * giving one uniform namespace over statistics that previously lived
 * in per-component structs.  Registration stores *pointers* into the
 * component's live stats -- there is no double bookkeeping and no
 * per-update cost; the registry is only walked when somebody asks.
 *
 * Consumers traverse the registry through StatVisitor; the built-in
 * visitors render everything as one JSON object (used by
 * `tools/ulmt-stats dump` and available to any embedder) and the
 * behavioural entries as canonical text (the run's determinism
 * record).  Names are visited in byte order so dumps are stable
 * across registration order.
 *
 * An entry is *behavioural* unless its registrar declares it passive
 * with a PassiveScope: passive entries observe the run (lifecycle
 * audit, invariant checker, host-side costs) and may differ between
 * runs whose simulated behaviour is identical.
 */

#ifndef SIM_STAT_REGISTRY_HH
#define SIM_STAT_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "sim/stats.hh"

namespace sim {

/** Visitor over every registered statistic, one call per entry. */
class StatVisitor
{
  public:
    virtual ~StatVisitor() = default;

    virtual void counter(const std::string &name,
                         std::uint64_t value) = 0;
    virtual void gauge(const std::string &name, double value) = 0;
    virtual void sampleStat(const std::string &name,
                            const SampleStat &s) = 0;
    virtual void histogram(const std::string &name,
                           const BinnedHistogram &h) = 0;
};

/** Registry of named statistics; one per simulated System. */
class StatRegistry
{
  public:
    /**
     * While alive, every entry registered on @p reg is passive: still
     * visited and dumped, but left out of behaviourText().
     */
    class PassiveScope
    {
      public:
        explicit PassiveScope(StatRegistry &reg)
            : reg_(reg), outer_(reg.passive_)
        {
            reg_.passive_ = true;
        }
        ~PassiveScope() { reg_.passive_ = outer_; }
        PassiveScope(const PassiveScope &) = delete;
        PassiveScope &operator=(const PassiveScope &) = delete;

      private:
        StatRegistry &reg_;
        bool outer_;
    };

    /**
     * Register a monotonically updated counter.  @p value must outlive
     * the registry.
     * @throws std::invalid_argument on an empty or duplicate name.
     */
    void addCounter(const std::string &name,
                    const std::uint64_t *value);

    /** Register a computed value, re-evaluated at each visit. */
    void addGauge(const std::string &name,
                  std::function<double()> fn);

    /** Register a running sample statistic. */
    void addSample(const std::string &name, const SampleStat *s);

    /** Register a binned histogram. */
    void addHistogram(const std::string &name,
                      const BinnedHistogram *h);

    bool has(const std::string &name) const
    {
        return names_.count(name) != 0;
    }

    std::size_t size() const { return entries_.size(); }

    /** Walk every entry in byte order of the dotted names. */
    void visit(StatVisitor &v) const;

    /** Walk only the entries whose name @p keep accepts. */
    void
    visit(StatVisitor &v,
          const std::function<bool(const std::string &)> &keep) const;

    /**
     * The JSON dump visitor: one object keyed by dotted path.
     * Counters and gauges render as numbers; samples as
     * {count,sum,min,max,mean,stddev}; histograms as
     * {edges,counts,total,below,p50,p95} (the below-range count is
     * part of the dump, not silently dropped).
     */
    std::string dumpJson() const;

    /** The JSON dump restricted to names @p keep accepts (the backing
     *  of `ulmt-stats --core=<id>` / `--filter=<glob>`). */
    std::string
    dumpJson(const std::function<bool(const std::string &)> &keep) const;

    /**
     * Canonical text of every behavioural entry, in byte order of the
     * names: space-separated `name=value` leaves, counters in decimal,
     * gauges in exact hex-float (`%a`), samples as
     * (count,sum,min,max) and histograms as [below;counts...].  Runs
     * that behave identically produce equal texts.
     */
    std::string behaviourText() const;

  private:
    enum class Kind { Counter, Gauge, Sample, Histogram };

    struct Entry
    {
        std::string name;
        Kind kind;
        const std::uint64_t *counter = nullptr;
        std::function<double()> gauge;
        const SampleStat *sample = nullptr;
        const BinnedHistogram *hist = nullptr;
        bool passive = false;
    };

    void insert(Entry e);

    /** Visit the entries @p keep accepts, in byte order of names. */
    void walk(StatVisitor &v,
              const std::function<bool(const Entry &)> &keep) const;

    std::vector<Entry> entries_;
    std::unordered_set<std::string> names_;
    /** Set while a PassiveScope is alive. */
    bool passive_ = false;
};

} // namespace sim

#endif // SIM_STAT_REGISTRY_HH
