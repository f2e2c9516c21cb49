#include "sim/logging.hh"

#include <cstdlib>
#include <mutex>
#include <vector>

namespace sim {

namespace {

thread_local std::string *tls_log_sink = nullptr;

/** Route a finished line to the thread's sink or stderr. */
void
emit(const char *prefix, const std::string &msg)
{
    if (tls_log_sink) {
        *tls_log_sink += prefix;
        *tls_log_sink += msg;
        *tls_log_sink += '\n';
    } else {
        std::fprintf(stderr, "%s%s\n", prefix, msg.c_str());
    }
}

/** Dump a captured sink to stderr before dying (panic/fatal paths). */
void
flushSinkForExit()
{
    if (tls_log_sink && !tls_log_sink->empty()) {
        std::fputs(tls_log_sink->c_str(), stderr);
        tls_log_sink->clear();
    }
    tls_log_sink = nullptr;
}

std::string
vformat(const char *fmt, std::va_list args)
{
    std::va_list args_copy;
    va_copy(args_copy, args);
    int needed = std::vsnprintf(nullptr, 0, fmt, args_copy);
    va_end(args_copy);
    if (needed < 0)
        return std::string(fmt);
    std::vector<char> buf(static_cast<std::size_t>(needed) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args);
    return std::string(buf.data(), static_cast<std::size_t>(needed));
}

} // namespace

std::string
strformat(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string s = vformat(fmt, args);
    va_end(args);
    return s;
}

void
panic(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string s = vformat(fmt, args);
    va_end(args);
    flushSinkForExit();
    std::fprintf(stderr, "panic: %s\n", s.c_str());
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string s = vformat(fmt, args);
    va_end(args);
    // Parallel runner workers can fail together (every job restoring
    // one bad snapshot); the first exits, the rest wait for it.
    static std::mutex exiting;
    exiting.lock();
    flushSinkForExit();
    std::fprintf(stderr, "fatal: %s\n", s.c_str());
    // The other workers are still running: std::exit would destroy
    // function-local statics (the machine-knob table) under them.
    // Flush stdio and end without running destructors.
    std::fflush(nullptr);
    std::_Exit(1);
}

void
assertFail(const char *cond, const std::string &msg)
{
    flushSinkForExit();
    std::fprintf(stderr, "panic: assertion '%s' failed: %s\n", cond,
                 msg.c_str());
    std::abort();
}

void
warn(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string s = vformat(fmt, args);
    va_end(args);
    emit("warn: ", s);
}

void
inform(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string s = vformat(fmt, args);
    va_end(args);
    emit("info: ", s);
}

void
setThreadLogSink(std::string *sink)
{
    tls_log_sink = sink;
}

} // namespace sim
