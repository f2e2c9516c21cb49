#include "sim/trace_event.hh"

#include <stdexcept>

#include "sim/json.hh"
#include "sim/logging.hh"

namespace sim {

namespace {

/**
 * Flow ids are unique only within one run's buffer; Chrome matches
 * flow events by id globally, so salt with the pid to keep arrows
 * from crossing between processes.
 */
std::uint64_t
saltFlowId(std::uint64_t id, std::uint32_t pid)
{
    return id ^ (static_cast<std::uint64_t>(pid) << 48);
}

/** Metadata event naming a process or thread. */
std::string
metaEvent(const char *what, std::uint32_t pid, std::uint32_t tid,
          const std::string &name)
{
    return strformat("{\"ph\": \"M\", \"name\": \"%s\", "
                     "\"pid\": %u, \"tid\": %u, \"args\": "
                     "{\"name\": %s}}",
                     what, pid, tid, jsonQuote(name).c_str());
}

} // namespace

TraceEventWriter::TraceEventWriter(const std::string &path,
                                   std::uint64_t budget)
    : path_(path), budget_(budget)
{
    file_ = std::fopen(path.c_str(), "w");
    if (!file_)
        throw std::runtime_error("cannot create trace-event file '" +
                                 path + "'");
    std::fputs("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n",
               file_);
}

TraceEventWriter::~TraceEventWriter()
{
    finish();
}

void
TraceEventWriter::emitEvent(std::string &out, const TraceEvent &e,
                            std::uint32_t pid) const
{
    out += strformat("{\"ph\": \"%c\", \"name\": ",
                     static_cast<char>(e.ph));
    out += jsonQuote(e.name);
    out += strformat(", \"cat\": \"%s\", \"ts\": %llu, "
                     "\"pid\": %u, \"tid\": %u",
                     e.cat, (unsigned long long)e.ts, pid, e.tid);
    switch (e.ph) {
      case TracePhase::Complete:
        out += strformat(", \"dur\": %llu", (unsigned long long)e.dur);
        break;
      case TracePhase::Instant:
        out += ", \"s\": \"t\"";  // thread-scoped marker
        break;
      case TracePhase::Counter:
        out += ", \"args\": {\"value\": " + jsonNumber(e.value) + "}";
        break;
      case TracePhase::FlowStart:
      case TracePhase::FlowStep:
        out += strformat(", \"id\": %llu",
                         (unsigned long long)saltFlowId(e.id, pid));
        break;
      case TracePhase::FlowEnd:
        // Bind the arrow head to the enclosing slice, not its end.
        out += strformat(", \"id\": %llu, \"bp\": \"e\"",
                         (unsigned long long)saltFlowId(e.id, pid));
        break;
    }
    out += "}";
}

void
TraceEventWriter::writeProcess(const std::string &process_name,
                               const TraceEventBuffer &buf)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!file_)
        return;  // finished early; drop silently
    const std::uint32_t pid = nextPid_++;

    // A buffer stores at most its capacity; the events past it count
    // as recorded, so they are dropped here as a full buffer's are.
    const std::uint64_t room = budget_ - written_;
    const std::size_t stored = buf.events().size();
    const std::size_t n =
        stored < room ? stored : static_cast<std::size_t>(room);
    written_ += n;
    dropped_ += buf.size() - n;

    // Written in chunks of about chunk bytes, so a full budget's
    // events never sit in memory twice, as events and as text.
    constexpr std::size_t chunk = std::size_t(1) << 20;
    std::string out;
    out.reserve(chunk + 4096);
    auto sep = [&] {
        if (!firstEvent_)
            out += ",\n";
        firstEvent_ = false;
    };

    sep();
    out += metaEvent("process_name", pid, 0, process_name);
    static const struct
    {
        std::uint32_t tid;
        const char *name;
    } threads[] = {
        {traceTidUlmt, "ulmt"},       {traceTidMemsys, "memsys"},
        {traceTidBus, "bus"},         {traceTidDram, "dram"},
        {traceTidSampler, "sampler"},
    };
    for (const auto &t : threads) {
        sep();
        out += metaEvent("thread_name", pid, t.tid, t.name);
    }
    for (std::size_t i = 0; i < n; ++i) {
        sep();
        emitEvent(out, buf.events()[i], pid);
        if (out.size() >= chunk) {
            std::fwrite(out.data(), 1, out.size(), file_);
            out.clear();
        }
    }
    std::fwrite(out.data(), 1, out.size(), file_);
}

void
TraceEventWriter::finish()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!file_)
        return;
    if (dropped_ > 0) {
        std::fprintf(file_,
                     "%s{\"ph\": \"M\", \"name\": \"trace_truncated\", "
                     "\"pid\": 0, \"tid\": 0, \"args\": {\"budget\": "
                     "%llu, \"dropped\": %llu}}",
                     firstEvent_ ? "" : ",\n",
                     (unsigned long long)budget_,
                     (unsigned long long)dropped_);
        // Straight to stderr: the file is shared by every job of a
        // sweep, so this is no one job's diagnostic.
        std::fprintf(stderr,
                     "warning: trace-event file '%s' reached its budget "
                     "of %llu events; %llu events dropped\n",
                     path_.c_str(), (unsigned long long)budget_,
                     (unsigned long long)dropped_);
    }
    std::fputs("\n]}\n", file_);
    std::fclose(file_);
    file_ = nullptr;
}

} // namespace sim
