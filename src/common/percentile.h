/**
 * @file
 * Exact order statistics for latency samples. Serving-systems
 * tail-latency reporting (p50/p95/p99) uses the nearest-rank
 * definition -- no interpolation, no streaming sketches -- so two
 * runs over the same samples produce the same bytes and a percentile
 * is always a value that actually occurred. NaN samples (e.g. steps
 * that never ran) are excluded up front rather than poisoning the
 * ranks.
 *
 * Two shapes of input have their own entry points, and both index the
 * same elements a full sort would:
 *   - one sample set (computeLatencyStats and its variants): a
 *     duplicate-heavy set is ranked from a distinct-value census, any
 *     other one by std::nth_element selections or, for the
 *     sorted-mean variant, by a radix sort;
 *   - one sample set split into runs (the fleet's per-pod step
 *     latencies): each run sorts in place (sortPositiveRun) and is
 *     ranked by index (sortedRunStats), then the sorted runs merge on
 *     TaskPool lanes into one ascending array (mergeSortedRuns) that
 *     yields the union's stats with no further sort.
 */

#ifndef DIVA_COMMON_PERCENTILE_H
#define DIVA_COMMON_PERCENTILE_H

#include <cstddef>
#include <span>
#include <vector>

namespace diva
{

/**
 * The 1-based nearest rank of percentile p over n > 0 samples: the
 * position of the smallest sample with at least p percent of the n at
 * or below it. p is clamped to [0, 100] (NaN counts as 0) and the rank
 * to [1, n]. The exact stats here and obs::QuantileSketch both rank
 * through this one formula.
 */
std::size_t nearestRank(double p, std::size_t n);

/**
 * Nearest-rank percentile of `sorted` (ascending, NaN-free): the
 * smallest element with at least p percent of the samples at or below
 * it. p is clamped to [0, 100]; an empty vector yields NaN.
 */
double percentileSorted(const std::vector<double> &sorted, double p);

/** Tail-latency summary of one sample set. */
struct LatencyStats
{
    /** Finite samples counted (NaN inputs are excluded). */
    std::size_t count = 0;

    double meanSec = 0.0;
    double p50Sec = 0.0;
    double p95Sec = 0.0;
    double p99Sec = 0.0;
    double maxSec = 0.0;
};

/**
 * Exact stats over `samples` (taken by value; reordered in place by
 * the per-rank selections). NaN samples are dropped first; an empty
 * (or all-NaN) set yields count 0 with every statistic NaN. The mean
 * accumulates in the samples' input order.
 */
LatencyStats computeLatencyStats(std::vector<double> samples);

/**
 * computeLatencyStats over a caller-owned scratch buffer: identical
 * statistics (bit for bit), but the samples are reordered in place
 * instead of being copied into a fresh vector. For callers that slice
 * many small sample runs out of one arena -- the fleet's per-tenant
 * stats -- this removes an allocation per call.
 */
LatencyStats computeLatencyStatsScratch(double *samples,
                                        std::size_t count);

/**
 * Same statistics via a full sort, with the mean accumulated in
 * ascending order. The aggregate CSV/JSON rows are the only emitters
 * of meanSec and have always summed the sorted samples, so they call
 * this variant to keep their bytes stable; percentiles, count and max
 * are bit-identical between the two functions.
 */
LatencyStats computeLatencyStatsSortedMean(std::vector<double> samples);

/**
 * Sort `run` (n samples) ascending in place and return true if every
 * sample is > 0; on any other sample (NaN included) return false with
 * the run untouched. Runs of 4,096 samples or more take an LSD radix
 * sort over the raw bits that ping-pongs between `run` and `scratch`
 * (room for n doubles, contents clobbered); shorter runs take
 * std::sort. A positive double has one bit pattern per value, so the
 * result is exactly std::sort's.
 */
bool sortPositiveRun(double *run, std::size_t n, double *scratch);

/**
 * Stats of an ascending, NaN-free run of n samples: count, max and the
 * nearest-rank percentiles by direct index, and meanSec = sum / n for
 * a `sum` the caller accumulated in the order its contract names --
 * input order gives computeLatencyStats' mean, ascending order
 * computeLatencyStatsSortedMean's. n == 0 yields count 0 with every
 * statistic NaN.
 */
LatencyStats sortedRunStats(const double *sorted, std::size_t n,
                            double sum);

/**
 * Merge ascending runs of strictly positive samples into `out` (room
 * for their total, overlapping no run) on up to `threads` TaskPool
 * lanes, and return the union's stats, bit-identical to
 * computeLatencyStatsSortedMean over the runs' concatenation: one
 * sequential ascending sum over `out` gives the mean, and the ranks
 * index `out`. Each lane merges one value range whose edges are found
 * by binary search over the raw bits of the positive doubles, so equal
 * values never straddle two lanes and `out` is the same at any thread
 * count.
 */
LatencyStats mergeSortedRuns(const std::vector<std::span<const double>> &runs,
                             double *out, int threads);

} // namespace diva

#endif // DIVA_COMMON_PERCENTILE_H
