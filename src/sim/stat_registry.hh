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
 * snapshot() freezes every entry's value into a StatSnapshot, which
 * is what a run returns and what every renderer reads: one JSON
 * object (`tools/ulmt-stats dump`, any embedder) and the behavioural
 * entries as canonical text (the run's determinism record).  Names
 * are visited in byte order so dumps are stable across registration
 * order.
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
#include <variant>
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

/**
 * Registry prefix of core @p core's components on a machine with
 * @p cores cores: "cpu.<core>." on a multicore machine, "" on the
 * single-core one (whose names predate multicore).
 */
std::string corePrefix(unsigned core, unsigned cores);

/**
 * Registry prefix of ULMT engine @p id among @p engines engines:
 * "ulmt.<id>." when there are several, "ulmt." when there is one.
 */
std::string enginePrefix(unsigned id, std::size_t engines);

/**
 * Every entry of a StatRegistry frozen at one instant, by value: the
 * results of a run, read by dotted name.  A name that is not there
 * (or names an entry of another kind) throws std::out_of_range naming
 * it -- a mistyped name never reads as 0.
 */
class StatSnapshot
{
  public:
    bool has(const std::string &name) const
    {
        return find(name) != nullptr;
    }

    std::size_t size() const { return entries_.size(); }

    /** Counter @p name.  @throws std::out_of_range */
    std::uint64_t counter(const std::string &name) const;

    /** Counter or gauge @p name as a number.
     *  @throws std::out_of_range */
    double value(const std::string &name) const;

    /** Sample statistic @p name.  @throws std::out_of_range */
    const SampleStat &sample(const std::string &name) const;

    /** Histogram @p name.  @throws std::out_of_range */
    const BinnedHistogram &histogram(const std::string &name) const;

    /** Walk every entry in byte order of the dotted names. */
    void visit(StatVisitor &v) const;

    /** Walk only the entries whose name @p keep accepts. */
    void
    visit(StatVisitor &v,
          const std::function<bool(const std::string &)> &keep) const;

    /**
     * The JSON dump: one object keyed by dotted path.  Counters and
     * gauges render as numbers; samples as
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
    friend class StatRegistry;

    /** A counter, gauge, sample or histogram value. */
    using Value =
        std::variant<std::uint64_t, double, SampleStat, BinnedHistogram>;

    struct Entry
    {
        std::string name;
        bool passive = false;
        Value value;
    };

    /** The entry named @p name, or nullptr. */
    const Entry *find(const std::string &name) const;

    /** The @p T-valued entry @p name.  @throws std::out_of_range */
    template <typename T>
    const T &get(const std::string &name, const char *kind) const;

    /** Visit the entries @p keep accepts. */
    void walk(StatVisitor &v,
              const std::function<bool(const Entry &)> &keep) const;

    /** Sorted by name. */
    std::vector<Entry> entries_;
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

    /** Register a computed value, re-evaluated at each snapshot. */
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

    /** Every entry's current value, frozen. */
    StatSnapshot snapshot() const;

    /** Walk every entry's current value in byte order of the names. */
    void visit(StatVisitor &v) const { snapshot().visit(v); }

    /** StatSnapshot::dumpJson of the current values. */
    std::string dumpJson() const { return snapshot().dumpJson(); }

    /** StatSnapshot::behaviourText of the current values. */
    std::string behaviourText() const
    {
        return snapshot().behaviourText();
    }

  private:
    struct Entry
    {
        std::string name;
        bool passive = false;
        /** Reads the entry's current value. */
        std::function<StatSnapshot::Value()> read;
    };

    void insert(const std::string &name,
                std::function<StatSnapshot::Value()> read);

    std::vector<Entry> entries_;
    std::unordered_set<std::string> names_;
    /** Set while a PassiveScope is alive. */
    bool passive_ = false;
};

} // namespace sim

#endif // SIM_STAT_REGISTRY_HH
