/**
 * @file
 * Process-wide metrics registry: named counters, gauges and
 * histograms behind one opt-in switch. Instrumentation sites are free
 * when the registry is disabled (one relaxed atomic load) and cheap
 * when enabled: counter and histogram updates land in a thread-local
 * shard guarded by a per-shard mutex that only the snapshot path ever
 * contends on.
 *
 * Histograms are obs::QuantileSketch instances (obs/sketch.h): 16
 * sub-buckets per power-of-two octave, so a reported p50/p95/p99 is
 * at most 6.25% above the exact nearest-rank value and never below
 * it. The JSON snapshot (schema "diva-metrics-v2") lists each
 * histogram's summary and its occupied buckets as {"le", "count"}
 * pairs, "le" being the bucket's inclusive upper bound.
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

#include "obs/sketch.h"

namespace diva
{
namespace obs
{

/** Deterministic, name-sorted view of the registry at one instant. */
struct MetricsSnapshot
{
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    /** Each histogram's shards merged into one sketch. */
    std::map<std::string, QuantileSketch> histograms;

    /** Pretty-printed JSON ("diva-metrics-v2"), byte-stable. */
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
