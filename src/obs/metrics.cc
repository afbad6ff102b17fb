#include "obs/metrics.h"

#include <cmath>

#include "common/format.h"

namespace diva
{
namespace obs
{

/**
 * Per-thread spill area. The per-shard mutex is uncontended on the
 * hot path (only the owning thread and the snapshot walk take it),
 * so an update is one uncontended lock plus a map upsert.
 */
struct MetricsRegistry::Shard
{
    std::mutex mutex;
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, QuantileSketch> hists;
};

MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry &
MetricsRegistry::instance()
{
    static MetricsRegistry registry;
    return registry;
}

void
MetricsRegistry::enable(bool on)
{
    enabled_.store(on, std::memory_order_relaxed);
}

MetricsRegistry::Shard &
MetricsRegistry::localShard()
{
    // The cached pointer stays valid across reset(): shards are
    // cleared in place, never deallocated, until process exit.
    static thread_local Shard *tls = nullptr;
    if (!tls) {
        std::lock_guard<std::mutex> lock(mutex_);
        shards_.push_back(std::make_unique<Shard>());
        tls = shards_.back().get();
    }
    return *tls;
}

void
MetricsRegistry::addCounter(const std::string &name, std::uint64_t delta)
{
    if (!enabled())
        return;
    Shard &shard = localShard();
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.counters[name] += delta;
}

void
MetricsRegistry::setGauge(const std::string &name, double value)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    gauges_[name] = value;
}

void
MetricsRegistry::recordValue(const std::string &name, double value)
{
    recordValues(name, &value, 1);
}

void
MetricsRegistry::recordValues(const std::string &name, const double *values,
                              std::size_t count)
{
    if (!enabled())
        return;
    // Mirror percentile.cc: NaN samples are excluded.
    std::size_t i = 0;
    while (i < count && std::isnan(values[i]))
        ++i;
    if (i == count)
        return;
    Shard &shard = localShard();
    std::lock_guard<std::mutex> lock(shard.mutex);
    QuantileSketch &h = shard.hists[name];
    for (; i < count; ++i)
        h.add(values[i]); // skips NaN
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    MetricsSnapshot snap;
    std::lock_guard<std::mutex> lock(mutex_);
    snap.gauges = gauges_;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> shardLock(shard->mutex);
        for (const auto &[name, value] : shard->counters)
            snap.counters[name] += value;
        for (const auto &[name, h] : shard->hists)
            snap.histograms[name].merge(h);
    }
    return snap;
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    gauges_.clear();
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> shardLock(shard->mutex);
        shard->counters.clear();
        shard->hists.clear();
    }
}

void
MetricsSnapshot::writeJson(std::ostream &os) const
{
    os << "{\n  \"schema\": \"diva-metrics-v2\",\n  \"counters\": {";
    const char *sep = "\n";
    for (const auto &[name, value] : counters) {
        os << sep << "    \"" << jsonEscape(name) << "\": " << value;
        sep = ",\n";
    }
    os << (counters.empty() ? "" : "\n  ") << "},\n  \"gauges\": {";
    sep = "\n";
    for (const auto &[name, value] : gauges) {
        os << sep << "    \"" << jsonEscape(name)
           << "\": " << jsonNumber(value);
        sep = ",\n";
    }
    os << (gauges.empty() ? "" : "\n  ") << "},\n  \"histograms\": {";
    sep = "\n";
    for (const auto &[name, h] : histograms) {
        os << sep << "    \"" << jsonEscape(name) << "\": {";
        h.writeSummaryJson(os);
        os << ", \"buckets\": ";
        h.writeBucketsJson(os);
        os << "}";
        sep = ",\n";
    }
    os << (histograms.empty() ? "" : "\n  ") << "}\n}\n";
}

} // namespace obs
} // namespace diva
