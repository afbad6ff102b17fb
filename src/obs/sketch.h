/**
 * @file
 * Deterministic, mergeable, bounded-memory quantile sketch.
 *
 * Layout: fixed log-linear buckets derived straight from the IEEE-754
 * bit pattern -- for a positive double the top 16 bits (sign, 11
 * exponent bits, 4 mantissa bits) are a monotone key, giving 16
 * linearly spaced sub-buckets per power-of-two octave. The layout is a
 * pure function of the value, so merging two sketches is commutative
 * and associative integer addition: merge order (thread exit order,
 * pod order) cannot change a byte of the result.
 *
 * Error bound: percentile() returns the inclusive upper bound of the
 * bucket holding the nearest-rank sample, clamped to [min, max]. For
 * a true rank sample v the reported value r satisfies
 *
 *     v <= r <= v * (1 + 1/16)
 *
 * i.e. at most a 6.25% relative overestimate, never an underestimate
 * (the all-samples-equal case is exact: the clamp to max collapses the
 * bucket bound onto the sample).
 *
 * Storage is one contiguous counter array covering [lowest occupied
 * bucket, highest occupied bucket], so the per-sample cost is a bucket
 * computation (a bit shift) plus one bounds check and one increment --
 * this sits on the engines' per-step path, where a node-based map's
 * pointer chase was measurably too slow. Memory is O(occupied bucket
 * span), independent of the sample count; latencies spanning 2^k
 * octaves occupy 16k + O(1) slots (8 bytes each), with a hard ceiling
 * of ~256 KiB for samples spanning the entire double range.
 *
 * The one approximate-quantile layout in the repo: the windowed
 * telemetry (obs/timeseries.h) and the metrics histograms
 * (obs/metrics.h) both keep their latencies here. Ranks come from
 * src/common/percentile.h's nearestRank, and the sketch is
 * cross-checked against that file's exact percentiles in
 * tests/test_timeseries.cc.
 */

#ifndef DIVA_OBS_SKETCH_H
#define DIVA_OBS_SKETCH_H

#include <bit>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <map>
#include <vector>

namespace diva
{
namespace obs
{

class QuantileSketch
{
  public:
    /** Linear sub-buckets per power-of-two octave (4 mantissa bits). */
    static constexpr int kSubBuckets = 16;

    /** Maximum relative overestimate of percentile(): 1/kSubBuckets. */
    static constexpr double kRelativeError = 1.0 / kSubBuckets;

    /** Bucket for samples <= 0 (upper bound 0). */
    static constexpr int kUnderflowBucket = -1;

    /**
     * The bucket holding `v`: monotone in v, 16 sub-buckets per
     * octave. Non-finite and non-positive samples collapse into the
     * underflow / top bucket so the layout stays total.
     */
    static int
    bucketIndex(double v)
    {
        if (!(v > 0.0))
            return kUnderflowBucket; // <= 0 and NaN
        if (v == std::numeric_limits<double>::infinity())
            return kOverflowBucket;
        return int(std::bit_cast<std::uint64_t>(v) >> 48);
    }

    /** Inclusive upper bound of bucket `index` (0 for underflow). */
    static double
    bucketUpperBound(int index)
    {
        if (index == kUnderflowBucket)
            return 0.0;
        if (index >= kOverflowBucket)
            return std::numeric_limits<double>::infinity();
        return std::bit_cast<double>(std::uint64_t(index + 1) << 48);
    }

    void
    add(double v)
    {
        if (v != v)
            return; // NaN samples are excluded (see percentile.cc)
        ++count_;
        if (v < min_)
            min_ = v;
        if (v > max_)
            max_ = v;
        const int idx = bucketIndex(v);
        const std::size_t slot = std::size_t(idx - base_);
        if (slot < counts_.size()) {
            ++counts_[slot]; // the per-step fast path
            return;
        }
        ++slotFor(idx);
    }

    /** Fold `other` in; integer bucket adds, so order-independent. */
    void merge(const QuantileSketch &other);

    std::uint64_t
    count() const
    {
        return count_;
    }

    bool
    empty() const
    {
        return count_ == 0;
    }

    /** Smallest / largest sample seen (+inf / -inf when empty). */
    double
    minValue() const
    {
        return min_;
    }
    double
    maxValue() const
    {
        return max_;
    }

    /**
     * Nearest-rank percentile (p in [0, 100]) over the bucket upper
     * bounds, clamped to [min, max]; NaN when empty. See the file
     * comment for the error bound.
     */
    double percentile(double p) const;

    /** Write `"count": n, "min": .., "max": .., "p50": .., "p95": ..,
     *  "p99": ..` -- the summary fields of a JSON object, without its
     *  braces, so callers can add their own keys around them. */
    void writeSummaryJson(std::ostream &os) const;

    /** Write the occupied buckets as a JSON array of
     *  `{"le": upper bound, "count": n}` objects, ascending. */
    void writeBucketsJson(std::ostream &os) const;

    /** Occupied (index, count) buckets in index (value) order --
     *  built on demand; for inspection and tests, not the hot path. */
    std::map<int, std::uint64_t> buckets() const;

  private:
    /** First non-finite top-bit pattern (0x7ff0 << 48 is +inf). */
    static constexpr int kOverflowBucket = 0x7ff0;

    /** Grow the counter array to cover bucket `idx` (the slow path:
     *  at most once per octave/16 of new dynamic range). */
    std::uint64_t &slotFor(int idx);

    /** Counter for bucket base_ + i at counts_[i]. */
    std::vector<std::uint64_t> counts_;
    int base_ = 0; // meaningful only when counts_ is non-empty

    std::uint64_t count_ = 0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

} // namespace obs
} // namespace diva

#endif // DIVA_OBS_SKETCH_H
