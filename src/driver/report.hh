/**
 * @file
 * Plain-text reporting helpers used by the benchmark binaries to print
 * the paper's tables and figures as aligned ASCII tables.
 */

#ifndef DRIVER_REPORT_HH
#define DRIVER_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

namespace driver {

struct RunResult;

/** A simple column-aligned text table. */
class TextTable
{
  public:
    explicit TextTable(std::vector<std::string> headers)
        : headers_(std::move(headers))
    {
    }

    void addRow(std::vector<std::string> cells);

    /** Render with a title banner to stdout. */
    void print(const std::string &title) const;

    /** Render to a string (tests). */
    std::string render() const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format a double with @p digits decimals. */
std::string fmt(double v, int digits = 2);

/** Format a percentage (0.37 -> "37.0%"). */
std::string fmtPercent(double v, int digits = 1);

/** Geometric-mean-free average of a vector (arithmetic mean). */
double mean(const std::vector<double> &v);

/**
 * The run's determinism record: workload, label, executed events, the
 * canonical text of every behavioural stat-registry leaf frozen at
 * the end of the run (RunResult::stats.behaviourText()) and a hash of
 * the miss stream.  Two runs of the same (app, config, seed) must produce
 * byte-identical fingerprints regardless of worker count, restore
 * point, or whether auditing, checking and sampling ran -- the
 * determinism tests and golden comparisons rely on this.  Passive
 * registry entries (audit, checker, host checkpoint costs) and
 * host-side timing (wallSeconds) are not part of it.
 */
std::string resultFingerprint(const RunResult &r);

/** Pushes core @p c's L2 refused: the four l2.push.* drop rules
 *  (cpu::HierarchyStats::pushRedundant). */
std::uint64_t pushRedundant(const RunResult &r, unsigned c = 0);

} // namespace driver

#endif // DRIVER_REPORT_HH
