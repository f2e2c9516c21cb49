/**
 * @file
 * Chrome trace-event / Perfetto export of simulated activity.
 *
 * Split in two so the parallel experiment runner can scope traces per
 * experiment:
 *
 *  - TraceEventBuffer: a per-System, single-threaded append-only log
 *    of spans ("X"), counters ("C"), instants ("i") and flow events
 *    ("s"/"t"/"f").  Components hold a nullable pointer to it and
 *    emit behind an `if (trace_)` guard, so the disabled path costs
 *    one pointer test.  Timestamps are simulated main-processor
 *    cycles, written as the trace's microsecond field (the standard
 *    convention for cycle-accurate simulators).
 *
 *  - TraceEventWriter: the shared on-disk JSON file.  Each completed
 *    run's buffer is flushed as its own trace "process" (pid) with a
 *    "<workload>/<config>" process_name, so a parallel sweep lands in
 *    one file with one timeline row group per experiment.  Flushes
 *    are serialized with a mutex; buffers themselves are never
 *    shared between threads.  One file holds at most
 *    traceEventBudget recorded events: past it events are dropped,
 *    and finish() warns on stderr and ends the file with a
 *    "trace_truncated" metadata event giving the count.  A run's
 *    buffer takes the budget as its capacity and only counts the
 *    events past it, so a long run's trace costs bounded memory.
 *
 * The span taxonomy (thread ids within each process) is documented in
 * DESIGN.md §8.  The file loads directly in Perfetto
 * (https://ui.perfetto.dev) or chrome://tracing.
 */

#ifndef SIM_TRACE_EVENT_HH
#define SIM_TRACE_EVENT_HH

#include <cstdint>
#include <cstdio>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace sim {

/** Trace-event phases emitted (subset of the Chrome spec). */
enum class TracePhase : char {
    Complete = 'X',   //!< span with ts + dur
    Instant = 'i',    //!< zero-duration marker
    Counter = 'C',    //!< sampled numeric value
    FlowStart = 's',  //!< flow arrow tail
    FlowStep = 't',   //!< flow arrow waypoint
    FlowEnd = 'f',    //!< flow arrow head
};

/** Virtual thread ids used inside every simulated process. */
inline constexpr std::uint32_t traceTidUlmt = 1;
inline constexpr std::uint32_t traceTidMemsys = 2;
inline constexpr std::uint32_t traceTidBus = 3;
inline constexpr std::uint32_t traceTidDram = 4;
inline constexpr std::uint32_t traceTidSampler = 5;

/** Most recorded events one trace file holds (process and thread
 *  names aside): about 100 MB of JSON at ~100 bytes an event. */
inline constexpr std::uint64_t traceEventBudget = std::uint64_t(1) << 20;

/** One recorded event. */
struct TraceEvent
{
    std::string name;      //!< span/counter name (flow events: "miss")
    const char *cat;       //!< static category string
    TracePhase ph;
    Cycle ts;
    Cycle dur = 0;         //!< Complete only
    std::uint32_t tid = 0;
    std::uint64_t id = 0;  //!< flow correlation id (0 = none)
    double value = 0.0;    //!< Counter only
};

/** Per-run, single-threaded event log. */
class TraceEventBuffer
{
  public:
    /**
     * Stores the first @p capacity events recorded and only counts
     * the rest.  A buffer bound for a TraceEventWriter takes its
     * budget, as no more can be written; the default stores every
     * event (perfbench replays each span of a traced run).
     */
    explicit TraceEventBuffer(
        std::uint64_t capacity = std::numeric_limits<std::uint64_t>::max())
        : capacity_(capacity)
    {
    }

    void
    complete(std::string name, const char *cat, Cycle ts, Cycle dur,
             std::uint32_t tid)
    {
        if (!room())
            return;
        TraceEvent e;
        e.name = std::move(name);
        e.cat = cat;
        e.ph = TracePhase::Complete;
        e.ts = ts;
        e.dur = dur;
        e.tid = tid;
        events_.push_back(std::move(e));
    }

    void
    instant(std::string name, const char *cat, Cycle ts,
            std::uint32_t tid)
    {
        if (!room())
            return;
        TraceEvent e;
        e.name = std::move(name);
        e.cat = cat;
        e.ph = TracePhase::Instant;
        e.ts = ts;
        e.tid = tid;
        events_.push_back(std::move(e));
    }

    void
    counter(std::string name, Cycle ts, double value,
            std::uint32_t tid)
    {
        if (!room())
            return;
        TraceEvent e;
        e.name = std::move(name);
        e.cat = "metric";
        e.ph = TracePhase::Counter;
        e.ts = ts;
        e.tid = tid;
        e.value = value;
        events_.push_back(std::move(e));
    }

    /** Emit one leg of a miss -> prefetch flow arrow. */
    void
    flow(TracePhase ph, std::uint64_t id, Cycle ts, std::uint32_t tid)
    {
        if (!room())
            return;
        TraceEvent e;
        e.name = "miss";
        e.cat = "flow";
        e.ph = ph;
        e.ts = ts;
        e.tid = tid;
        e.id = id;
        events_.push_back(std::move(e));
    }

    /** A fresh flow correlation id (never 0). */
    std::uint64_t newFlowId() { return ++lastFlowId_; }

    /** The stored events, the first min(size(), capacity) recorded. */
    const std::vector<TraceEvent> &events() const { return events_; }
    /** Events recorded, stored or not. */
    std::uint64_t size() const { return events_.size() + unstored_; }

  private:
    /** Whether the next event is stored; counts it if not. */
    bool
    room()
    {
        if (events_.size() < capacity_)
            return true;
        ++unstored_;
        return false;
    }

    std::vector<TraceEvent> events_;
    std::uint64_t capacity_;
    std::uint64_t unstored_ = 0;  //!< events recorded past capacity_
    std::uint64_t lastFlowId_ = 0;
};

/** The shared trace file; one pid per flushed run. */
class TraceEventWriter
{
  public:
    /**
     * Open @p path and write the trace prologue.  At most @p budget
     * recorded events are written (tests pass a small one).
     * @throws std::runtime_error when the file cannot be created.
     */
    explicit TraceEventWriter(const std::string &path,
                              std::uint64_t budget = traceEventBudget);

    /** Finishes the file if finish() was not called. */
    ~TraceEventWriter();

    TraceEventWriter(const TraceEventWriter &) = delete;
    TraceEventWriter &operator=(const TraceEventWriter &) = delete;

    /**
     * Flush one run's buffer as its own trace process named
     * @p process_name.  Thread-safe; callable from runner workers.
     */
    void writeProcess(const std::string &process_name,
                      const TraceEventBuffer &buf);

    /** Write the trace epilogue and close the file (idempotent).  If
     *  events were dropped, first write the trace_truncated event and
     *  one "warning:" line on stderr. */
    void finish();

    const std::string &path() const { return path_; }
    std::uint64_t budget() const { return budget_; }

  private:
    void emitEvent(std::string &out, const TraceEvent &e,
                   std::uint32_t pid) const;

    std::string path_;
    std::FILE *file_ = nullptr;
    std::mutex mutex_;
    std::uint32_t nextPid_ = 1;
    bool firstEvent_ = true;
    std::uint64_t budget_;
    std::uint64_t written_ = 0;  //!< recorded events written
    std::uint64_t dropped_ = 0;
};

} // namespace sim

#endif // SIM_TRACE_EVENT_HH
