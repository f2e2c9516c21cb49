#include "sim/stat_registry.hh"

#include <algorithm>
#include <stdexcept>

#include "sim/json.hh"
#include "sim/logging.hh"

namespace sim {

void
StatRegistry::insert(const std::string &name,
                     std::function<StatSnapshot::Value()> read)
{
    if (name.empty())
        throw std::invalid_argument(
            "stat registry: empty statistic name");
    if (!names_.insert(name).second)
        throw std::invalid_argument(
            "stat registry: duplicate statistic name '" + name + "'");
    entries_.push_back({name, passive_, std::move(read)});
}

void
StatRegistry::addCounter(const std::string &name,
                         const std::uint64_t *value)
{
    SIM_ASSERT(value != nullptr, "null counter '%s'", name.c_str());
    insert(name, [value] { return StatSnapshot::Value(*value); });
}

void
StatRegistry::addGauge(const std::string &name,
                       std::function<double()> fn)
{
    SIM_ASSERT(fn != nullptr, "null gauge '%s'", name.c_str());
    insert(name, [fn = std::move(fn)] { return StatSnapshot::Value(fn()); });
}

void
StatRegistry::addSample(const std::string &name, const SampleStat *s)
{
    SIM_ASSERT(s != nullptr, "null sample '%s'", name.c_str());
    insert(name, [s] { return StatSnapshot::Value(*s); });
}

void
StatRegistry::addHistogram(const std::string &name,
                           const BinnedHistogram *h)
{
    SIM_ASSERT(h != nullptr, "null histogram '%s'", name.c_str());
    insert(name, [h] { return StatSnapshot::Value(*h); });
}

StatSnapshot
StatRegistry::snapshot() const
{
    StatSnapshot snap;
    snap.entries_.reserve(entries_.size());
    for (const Entry &e : entries_)
        snap.entries_.push_back({e.name, e.passive, e.read()});
    std::sort(snap.entries_.begin(), snap.entries_.end(),
              [](const StatSnapshot::Entry &a,
                 const StatSnapshot::Entry &b) { return a.name < b.name; });
    return snap;
}

std::string
corePrefix(unsigned core, unsigned cores)
{
    return cores > 1 ? "cpu." + std::to_string(core) + "." : "";
}

std::string
enginePrefix(unsigned id, std::size_t engines)
{
    return engines > 1 ? "ulmt." + std::to_string(id) + "." : "ulmt.";
}

const StatSnapshot::Entry *
StatSnapshot::find(const std::string &name) const
{
    const auto it = std::lower_bound(
        entries_.begin(), entries_.end(), name,
        [](const Entry &e, const std::string &n) { return e.name < n; });
    return it != entries_.end() && it->name == name ? &*it : nullptr;
}

template <typename T>
const T &
StatSnapshot::get(const std::string &name, const char *kind) const
{
    const Entry *e = find(name);
    if (!e || !std::holds_alternative<T>(e->value))
        throw std::out_of_range("stat snapshot has no " +
                                std::string(kind) + " named '" + name +
                                "'");
    return std::get<T>(e->value);
}

std::uint64_t
StatSnapshot::counter(const std::string &name) const
{
    return get<std::uint64_t>(name, "counter");
}

double
StatSnapshot::value(const std::string &name) const
{
    const Entry *e = find(name);
    if (e && std::holds_alternative<std::uint64_t>(e->value))
        return static_cast<double>(std::get<std::uint64_t>(e->value));
    return get<double>(name, "counter or gauge");
}

const SampleStat &
StatSnapshot::sample(const std::string &name) const
{
    return get<SampleStat>(name, "sample");
}

const BinnedHistogram &
StatSnapshot::histogram(const std::string &name) const
{
    return get<BinnedHistogram>(name, "histogram");
}

void
StatSnapshot::visit(StatVisitor &v) const
{
    walk(v, [](const Entry &) { return true; });
}

void
StatSnapshot::visit(
    StatVisitor &v,
    const std::function<bool(const std::string &)> &keep) const
{
    walk(v, [&keep](const Entry &e) { return keep(e.name); });
}

void
StatSnapshot::walk(StatVisitor &v,
                   const std::function<bool(const Entry &)> &keep) const
{
    for (const Entry &e : entries_) {
        if (!keep(e))
            continue;
        if (const auto *c = std::get_if<std::uint64_t>(&e.value))
            v.counter(e.name, *c);
        else if (const auto *g = std::get_if<double>(&e.value))
            v.gauge(e.name, *g);
        else if (const auto *s = std::get_if<SampleStat>(&e.value))
            v.sampleStat(e.name, *s);
        else
            v.histogram(e.name, std::get<BinnedHistogram>(e.value));
    }
}

namespace {

/** Renders entries as one JSON object keyed by dotted path. */
class JsonDumper : public StatVisitor
{
  public:
    void
    counter(const std::string &name, std::uint64_t value) override
    {
        key(name);
        out_ += strformat("%llu", (unsigned long long)value);
    }

    void
    gauge(const std::string &name, double value) override
    {
        key(name);
        out_ += jsonNumber(value);
    }

    void
    sampleStat(const std::string &name, const SampleStat &s) override
    {
        key(name);
        out_ += strformat("{\"count\": %llu",
                          (unsigned long long)s.count());
        out_ += ", \"sum\": " + jsonNumber(s.sum());
        out_ += ", \"min\": " + jsonNumber(s.min());
        out_ += ", \"max\": " + jsonNumber(s.max());
        out_ += ", \"mean\": " + jsonNumber(s.mean());
        out_ += ", \"stddev\": " + jsonNumber(s.stddev()) + "}";
    }

    void
    histogram(const std::string &name,
              const BinnedHistogram &h) override
    {
        key(name);
        out_ += "{\"edges\": [";
        for (std::size_t i = 0; i < h.numBins(); ++i) {
            if (i)
                out_ += ", ";
            out_ += jsonNumber(h.binEdge(i));
        }
        out_ += "], \"counts\": [";
        for (std::size_t i = 0; i < h.numBins(); ++i) {
            if (i)
                out_ += ", ";
            out_ += strformat("%llu",
                              (unsigned long long)h.binCount(i));
        }
        out_ += strformat("], \"total\": %llu, \"below\": %llu",
                          (unsigned long long)h.total(),
                          (unsigned long long)h.below());
        out_ += ", \"p50\": " + jsonNumber(h.p50());
        out_ += ", \"p95\": " + jsonNumber(h.p95()) + "}";
    }

    std::string
    take()
    {
        return "{\n" + std::move(out_) + "\n}\n";
    }

  private:
    void
    key(const std::string &name)
    {
        if (!out_.empty())
            out_ += ",\n";
        out_ += "  " + jsonQuote(name) + ": ";
    }

    std::string out_;
};

/** Renders entries as space-separated canonical `name=value` leaves. */
class TextDumper : public StatVisitor
{
  public:
    void
    counter(const std::string &name, std::uint64_t value) override
    {
        out_ += strformat("%s=%llu ", name.c_str(),
                          (unsigned long long)value);
    }

    void
    gauge(const std::string &name, double value) override
    {
        out_ += strformat("%s=%a ", name.c_str(), value);
    }

    void
    sampleStat(const std::string &name, const SampleStat &s) override
    {
        out_ += strformat("%s=(%llu,%a,%a,%a) ", name.c_str(),
                          (unsigned long long)s.count(), s.sum(),
                          s.min(), s.max());
    }

    void
    histogram(const std::string &name,
              const BinnedHistogram &h) override
    {
        out_ += strformat("%s=[%llu;", name.c_str(),
                          (unsigned long long)h.below());
        for (std::size_t i = 0; i < h.numBins(); ++i)
            out_ += strformat(i ? ",%llu" : "%llu",
                              (unsigned long long)h.binCount(i));
        out_ += "] ";
    }

    std::string take() { return std::move(out_); }

  private:
    std::string out_;
};

} // namespace

std::string
StatSnapshot::behaviourText() const
{
    TextDumper d;
    walk(d, [](const Entry &e) { return !e.passive; });
    return d.take();
}

std::string
StatSnapshot::dumpJson() const
{
    JsonDumper d;
    visit(d);
    return d.take();
}

std::string
StatSnapshot::dumpJson(
    const std::function<bool(const std::string &)> &keep) const
{
    JsonDumper d;
    visit(d, keep);
    return d.take();
}

} // namespace sim
