/**
 * @file
 * Process-wide metrics registry: named counters, gauges and
 * histograms behind one opt-in switch. Instrumentation sites are free
 * when the registry is disabled (one relaxed atomic load) and cheap
 * when enabled: counter and histogram updates land in a thread-local
 * shard guarded by a per-shard mutex that only the snapshot path ever
 * contends on.
 *
 * Determinism contract: a snapshot must be byte-identical for the
 * same simulated work regardless of worker-thread count or shard
 * merge order. Counters are commutative integer sums. Histograms
 * store only integer bucket counts plus exact min/max (both
 * order-independent) -- deliberately no floating-point sum or mean,
 * which would depend on merge order. Gauges are plain last-write
 * values and must only be set from sequential code (CLI setup,
 * epoch barriers); concurrent setGauge calls would race the "last"
 * write and break the contract.
 *
 * Shards are owned by the registry and outlive the threads that fill
 * them: short-lived worker threads (one fleet epoch, one sweep run)
 * abandon their shard at exit and its data stays mergeable.
 */

#ifndef DIVA_OBS_METRICS_H
#define DIVA_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace diva
{
namespace obs
{

/** One merged histogram in a snapshot. */
struct HistogramSnapshot
{
    /** Power-of-two bucket (4 sub-buckets per octave) and its count. */
    struct Bucket
    {
        /** Inclusive upper bound of the bucket's value range. */
        double le = 0.0;
        std::uint64_t count = 0;
    };

    std::uint64_t count = 0;
    double min = 0.0;
    double max = 0.0;
    std::vector<Bucket> buckets; ///< ascending by upper bound

    /**
     * Nearest-rank percentile from the bucket counts: the upper bound
     * of the smallest bucket holding at least p percent of the
     * samples, clamped to [min, max]. Within 25% of the exact
     * nearest-rank value (the relative bucket width).
     */
    double percentile(double p) const;
};

/** Deterministic, name-sorted view of the registry at one instant. */
struct MetricsSnapshot
{
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramSnapshot> histograms;

    /** Pretty-printed JSON ("diva-metrics-v1"), byte-stable. */
    void writeJson(std::ostream &os) const;
};

class MetricsRegistry
{
  public:
    static MetricsRegistry &instance();

    /** Turn collection on/off; off (the default) makes every
     *  instrumentation site a single relaxed load. */
    void enable(bool on);

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Add `delta` to the named counter (thread-safe, commutative). */
    void addCounter(const std::string &name, std::uint64_t delta = 1);

    /** Set the named gauge. Sequential code only -- see file header. */
    void setGauge(const std::string &name, double value);

    /** Record one sample into the named histogram (thread-safe). */
    void recordValue(const std::string &name, double value);

    /** Record `count` samples into the named histogram under one
     *  lookup and one shard lock; NaN samples are skipped, as by
     *  recordValue, and a batch without any other sample records
     *  nothing. */
    void recordValues(const std::string &name, const double *values,
                      std::size_t count);

    /** Merge every shard into one name-sorted snapshot. */
    MetricsSnapshot snapshot() const;

    /** Drop all recorded data (shards and gauges); stays enabled. */
    void reset();

    /**
     * Map a sample to its bucket index: 4 sub-buckets per power-of-
     * two octave (<= 25% relative width); values <= 0 share one
     * underflow bucket. Exposed for the histogram unit tests.
     */
    static int bucketIndex(double v);

    /** Inclusive upper bound of the bucket `bucketIndex` mapped to. */
    static double bucketUpperBound(int index);

  private:
    MetricsRegistry() = default;
    ~MetricsRegistry();

    struct Shard;
    Shard &localShard();

    std::atomic<bool> enabled_{false};

    mutable std::mutex mutex_; ///< guards shards_ and gauges_
    std::deque<std::unique_ptr<Shard>> shards_;
    std::map<std::string, double> gauges_;
};

} // namespace obs
} // namespace diva

#endif // DIVA_OBS_METRICS_H
