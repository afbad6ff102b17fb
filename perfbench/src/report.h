/**
 * @file
 * Shared plumbing of the benchmark binary: run options, the metric
 * catalogue (names and units of every end-to-end and per-layer metric
 * it prints), operation accounting, timing and statistics
 * helpers, and the final one-line JSON result.
 */

#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Host seconds the timed loop runs for. */
    double seconds = 10.0;
    /** Per-layer (traced) run instead of the end-to-end run. */
    bool trace = false;
    /** Small inputs for the benchmark's own self-tests. */
    bool smoke = false;
    /** Worker threads everywhere: the CPUs this process may use. */
    int threads = 1;
    /** Scratch directory for disk caches; removed at exit. */
    std::string workDir;
};

/** Name and unit of one printed metric. */
struct MetricDef
{
    std::string name;
    std::string unit;
};

/** Every metric --trace 0 prints, in print order. */
const std::vector<MetricDef> &endToEndMetrics();

/** Every metric --trace 1 prints, in print order. */
const std::vector<MetricDef> &perLayerMetrics();

/**
 * Operations attempted and failed. An operation is one top-level call
 * into the library (a sweep pass, a fleet replay, a serve) together
 * with the checks on its output; the first failed check fails it.
 */
class OpLog
{
  public:
    /** Start the next operation. */
    void begin(const std::string &what);

    /** One check of the current operation; false fails it. */
    void expect(bool ok, const std::string &check);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::string current_;
    bool currentFailed_ = false;
};

/** State one workload run fills in. */
struct Run
{
    Options opt;
    OpLog ops;
    /** Metric values by name; a metric left unset prints as 0 (n/a). */
    std::map<std::string, double> values;
    /** Whether the workload already supplied the paper-fidelity metrics. */
    bool paperDone = false;

    void set(const std::string &name, double value) { values[name] = value; }
};

using Clock = std::chrono::steady_clock;

/** Seconds since `t0`. */
inline double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Median of `v` (0 for an empty vector). */
double median(std::vector<double> v);

/** "median M (min A, max B, n N)" for the progress lines. */
std::string describe(const std::vector<double> &v);

/**
 * Repetitions every timed loop runs at least. A traced run alternates
 * traced and untraced repetitions, so it needs two.
 */
inline int
minReps(const Options &opt)
{
    return opt.smoke ? (opt.trace ? 2 : 1) : 3;
}

/**
 * Call `rep(i)` for i = 0, 1, ... until `seconds` host seconds have
 * passed and at least `minReps` calls ran.
 */
void repeatFor(double seconds, int minReps,
               const std::function<void(int)> &rep);

/** Peak resident set of this process in MiB. */
double peakRssMb();

/** 64-bit FNV-1a digest of `bytes`, as 16 hex digits. */
std::string digest(const std::string &bytes);

/** splitmix64 step: the benchmark's own seeded generator. */
std::uint64_t splitmix64(std::uint64_t &state);

/** Remove and recreate `dir`. */
void resetDir(const std::string &dir);

/**
 * num / den, or 0 when den is 0 (a ratio whose base is empty is
 * reported as 0, like a metric that does not apply).
 */
double ratio(double num, double den);

/**
 * Print the final result line: {"correct", "attempted", "failed",
 * "metrics"} with every metric of `defs`. A non-finite value or a value
 * outside the catalogue counts as one more failed operation.
 */
void printResult(const Run &run, const std::vector<MetricDef> &defs);

} // namespace perfbench

#endif // PERFBENCH_REPORT_H
