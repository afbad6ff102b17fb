#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/format.h"

namespace diva
{
namespace obs
{

namespace
{

/** Shared underflow bucket for samples <= 0 (and -inf). */
constexpr int kUnderflowBucket = std::numeric_limits<int>::min();

} // namespace

/**
 * Per-thread spill area. The per-shard mutex is uncontended on the
 * hot path (only the owning thread and the snapshot walk take it),
 * so an update is one uncontended lock plus a map upsert.
 */
struct MetricsRegistry::Shard
{
    struct Hist
    {
        std::uint64_t count = 0;
        double min = std::numeric_limits<double>::infinity();
        double max = -std::numeric_limits<double>::infinity();
        std::map<int, std::uint64_t> buckets;
    };

    std::mutex mutex;
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, Hist> hists;
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

int
MetricsRegistry::bucketIndex(double v)
{
    if (!(v > 0.0) || v == std::numeric_limits<double>::infinity())
        return v == std::numeric_limits<double>::infinity()
                   ? std::numeric_limits<int>::max()
                   : kUnderflowBucket;
    int e = 0;
    const double m = std::frexp(v, &e); // v = m * 2^e, m in [0.5, 1)
    const int sub = std::min(3, int((m - 0.5) * 8.0));
    return e * 4 + sub;
}

double
MetricsRegistry::bucketUpperBound(int index)
{
    if (index == kUnderflowBucket)
        return 0.0;
    if (index == std::numeric_limits<int>::max())
        return std::numeric_limits<double>::infinity();
    // Floor division: frexp exponents go negative for values < 0.5.
    int e = index / 4;
    int s = index % 4;
    if (s < 0) {
        s += 4;
        --e;
    }
    return std::ldexp(0.5 + 0.125 * double(s + 1), e);
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
    Shard::Hist &h = shard.hists[name];
    for (; i < count; ++i) {
        const double v = values[i];
        if (std::isnan(v))
            continue;
        ++h.count;
        h.min = std::min(h.min, v);
        h.max = std::max(h.max, v);
        ++h.buckets[bucketIndex(v)];
    }
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    MetricsSnapshot snap;
    std::map<std::string, std::map<int, std::uint64_t>> buckets;
    struct Range
    {
        std::uint64_t count = 0;
        double min = std::numeric_limits<double>::infinity();
        double max = -std::numeric_limits<double>::infinity();
    };
    std::map<std::string, Range> ranges;

    std::lock_guard<std::mutex> lock(mutex_);
    snap.gauges = gauges_;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> shardLock(shard->mutex);
        for (const auto &[name, value] : shard->counters)
            snap.counters[name] += value;
        for (const auto &[name, h] : shard->hists) {
            Range &r = ranges[name];
            r.count += h.count;
            r.min = std::min(r.min, h.min);
            r.max = std::max(r.max, h.max);
            for (const auto &[idx, n] : h.buckets)
                buckets[name][idx] += n;
        }
    }
    for (const auto &[name, r] : ranges) {
        HistogramSnapshot &h = snap.histograms[name];
        h.count = r.count;
        h.min = r.min;
        h.max = r.max;
        for (const auto &[idx, n] : buckets[name])
            h.buckets.push_back({bucketUpperBound(idx), n});
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

double
HistogramSnapshot::percentile(double p) const
{
    if (count == 0)
        return std::numeric_limits<double>::quiet_NaN();
    p = std::clamp(p, 0.0, 100.0);
    std::uint64_t rank =
        std::uint64_t(std::ceil(p / 100.0 * double(count)));
    rank = std::clamp<std::uint64_t>(rank, 1, count);
    std::uint64_t seen = 0;
    for (const Bucket &b : buckets) {
        seen += b.count;
        if (seen >= rank)
            return std::clamp(b.le, min, max);
    }
    return max; // unreachable when bucket counts sum to `count`
}

void
MetricsSnapshot::writeJson(std::ostream &os) const
{
    os << "{\n  \"schema\": \"diva-metrics-v1\",\n  \"counters\": {";
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
        os << sep << "    \"" << jsonEscape(name) << "\": {\"count\": "
           << h.count << ", \"min\": " << jsonNumber(h.min)
           << ", \"max\": " << jsonNumber(h.max)
           << ", \"p50\": " << jsonNumber(h.percentile(50.0))
           << ", \"p95\": " << jsonNumber(h.percentile(95.0))
           << ", \"p99\": " << jsonNumber(h.percentile(99.0))
           << ", \"buckets\": [";
        for (std::size_t i = 0; i < h.buckets.size(); ++i)
            os << (i ? ", " : "") << "{\"le\": "
               << jsonNumber(h.buckets[i].le)
               << ", \"count\": " << h.buckets[i].count << "}";
        os << "]}";
        sep = ",\n";
    }
    os << (histograms.empty() ? "" : "\n  ") << "}\n}\n";
}

} // namespace obs
} // namespace diva
