/**
 * @file
 * Exact order statistics for latency samples. Serving-systems
 * tail-latency reporting (p50/p95/p99) uses the nearest-rank
 * definition -- no interpolation, no streaming sketches -- so two
 * runs over the same samples produce the same bytes and a percentile
 * is always a value that actually occurred.
 *
 * Every LatencyStats follows one rule: NaN samples (e.g. steps that
 * never ran) are dropped; the rest are read as a sorted sample set,
 * each percentile by its nearest rank and the max as the last
 * element; and the mean sums the samples in ascending order. The
 * statistics are therefore a function of the multiset alone, never of
 * the order in which a caller gathered it. Two shapes of input reach
 * that rule:
 *   - one sample set (computeLatencyStats): a strictly positive set
 *     of 256 samples or more holding at most min(8,192, n/8) distinct
 *     values is ranked from its distinct-value census, whose table
 *     grows with the distinct count and which counts each run of equal
 *     consecutive samples once; any other set is sorted (a radix sort
 *     for a long strictly positive run, std::sort otherwise) and
 *     ranked by index;
 *   - one sample set split into runs (the fleet's step latencies):
 *     each run sorts in place (sortPositiveRun) and is ranked by index
 *     (sortedRunStats), then the sorted runs merge on TaskPool lanes
 *     into one ascending array (mergeSortedRuns) that yields the
 *     union's stats with no further sort. A run is a pod's whole run
 *     or, when the pod's run is long, one of its pieces: the pieces
 *     sort on separate lanes, and the pod's stats come from merging
 *     its pieces.
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
 * Exact stats over `samples` (taken by value and sorted in place).
 * NaN samples are dropped first; an empty (or all-NaN) set yields
 * count 0 with every statistic NaN.
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

/** sortPositiveRun radix-sorts runs of this many samples or more. */
inline constexpr std::size_t kRadixSortMin = 4096;

/**
 * Sort `run` (n samples) ascending in place and return true if every
 * sample is > 0; on any other sample (NaN included) return false with
 * the run untouched. Runs of kRadixSortMin samples or more take an LSD
 * radix sort over the raw bits that ping-pongs between `run` and
 * `scratch` (room for n doubles, contents clobbered); shorter runs
 * take std::sort. A positive double has one bit pattern per value, so
 * the result is exactly std::sort's.
 */
bool sortPositiveRun(double *run, std::size_t n, double *scratch);

/**
 * Stats of an ascending, NaN-free run of n samples: count, max and the
 * nearest-rank percentiles by direct index, and the mean of one
 * front-to-back (ascending) sum. Bit-identical to computeLatencyStats
 * over the same samples. n == 0 yields count 0 with every statistic
 * NaN.
 */
LatencyStats sortedRunStats(const double *sorted, std::size_t n);

/**
 * Merge ascending runs of strictly positive samples into `out` (room
 * for their total, overlapping no run) on up to `threads` TaskPool
 * lanes, and return the union's stats, bit-identical to
 * computeLatencyStats over the runs' concatenation: sortedRunStats
 * reads them off `out`. Each lane merges one value range whose edges
 * are found by binary search over the raw bits of the positive
 * doubles, so equal values never straddle two lanes and `out` is the
 * same at any thread count.
 */
LatencyStats mergeSortedRuns(const std::vector<std::span<const double>> &runs,
                             double *out, int threads);

} // namespace diva

#endif // DIVA_COMMON_PERCENTILE_H
