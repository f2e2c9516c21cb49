#include "driver/report.hh"

#include <cstdio>
#include <numeric>

#include "driver/system.hh"
#include "sim/logging.hh"

namespace driver {

void
TextTable::addRow(std::vector<std::string> cells)
{
    SIM_ASSERT(cells.size() == headers_.size(),
               "row width %zu != header width %zu", cells.size(),
               headers_.size());
    rows_.push_back(std::move(cells));
}

std::string
TextTable::render() const
{
    std::vector<std::size_t> width(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        width[c] = headers_[c].size();
    for (const auto &row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], row[c].size());
    }

    auto render_row = [&](const std::vector<std::string> &row) {
        std::string line;
        for (std::size_t c = 0; c < row.size(); ++c) {
            line += row[c];
            line.append(width[c] - row[c].size() + 2, ' ');
        }
        while (!line.empty() && line.back() == ' ')
            line.pop_back();
        return line + "\n";
    };

    std::string out = render_row(headers_);
    std::size_t total = 0;
    for (std::size_t c = 0; c < width.size(); ++c)
        total += width[c] + 2;
    // A table with no columns has total == 0; avoid the size_t
    // underflow in total - 2.
    out.append(total >= 2 ? total - 2 : 0, '-');
    out += "\n";
    for (const auto &row : rows_)
        out += render_row(row);
    return out;
}

void
TextTable::print(const std::string &title) const
{
    std::printf("\n== %s ==\n%s", title.c_str(), render().c_str());
    std::fflush(stdout);
}

std::string
fmt(double v, int digits)
{
    return sim::strformat("%.*f", digits, v);
}

std::string
fmtPercent(double v, int digits)
{
    return sim::strformat("%.*f%%", digits, v * 100.0);
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    return std::accumulate(v.begin(), v.end(), 0.0) /
           static_cast<double>(v.size());
}

std::string
resultFingerprint(const RunResult &r)
{
    std::uint64_t hash = 1469598103934665603ULL;  // FNV-1a
    for (sim::Addr a : r.missStream) {
        hash ^= a;
        hash *= 1099511628211ULL;
    }
    return "workload=" + r.workload + " label=" + r.label +
           sim::strformat(" eventsExecuted=%llu ",
                          (unsigned long long)r.eventsExecuted) +
           r.stats.behaviourText() +
           sim::strformat("missStream.size=%zu missStream.hash=%llu",
                          r.missStream.size(), (unsigned long long)hash);
}

std::uint64_t
pushRedundant(const RunResult &r, unsigned c)
{
    std::uint64_t n = 0;
    for (const char *leaf :
         {"l2.push.redundant_present", "l2.push.redundant_wb",
          "l2.push.dropped_mshr_full", "l2.push.dropped_set_pending"})
        n += r.stats.counter(r.coreStat(leaf, c));
    return n;
}

} // namespace driver
