#include "sweep/plan_cache.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <utility>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "sweep/scenario.h"
#include "train/planner.h"

namespace diva
{

namespace
{

/**
 * Fixed-capacity key builder: renders "model|scale|..." into a stack
 * buffer so a hot-path probe allocates nothing. Zoo model names and
 * algorithm names are short; should a pathological name overflow the
 * buffer anyway, the tail is truncated -- consistently for probe and
 * insert, so correctness (same key -> same entry) is unaffected.
 */
class KeyBuf
{
  public:
    void append(std::string_view s)
    {
        const std::size_t room = sizeof(buf_) - len_;
        const std::size_t n = std::min(room, s.size());
        std::memcpy(buf_ + len_, s.data(), n);
        len_ += n;
    }

    void append(char c) { append(std::string_view(&c, 1)); }

    void append(int v) { appendNumber(v); }
    void append(std::uint64_t v) { appendNumber(v); }

    std::string_view view() const
    {
        return std::string_view(buf_, len_);
    }

  private:
    template <typename T>
    void appendNumber(T v)
    {
        char digits[24];
        const auto [end, ec] =
            std::to_chars(digits, digits + sizeof(digits), v);
        (void)ec; // 24 chars always fit a 64-bit integer
        append(std::string_view(digits, std::size_t(end - digits)));
    }

    char buf_[192];
    std::size_t len_ = 0;
};

KeyBuf
networkKey(const std::string &model, int scale)
{
    KeyBuf key;
    key.append(model);
    key.append('|');
    key.append(scale);
    return key;
}

KeyBuf
autoBatchKey(const std::string &model, int scale, Bytes budget)
{
    KeyBuf key = networkKey(model, scale);
    key.append('|');
    key.append(std::uint64_t(budget));
    return key;
}

KeyBuf
streamKey(const std::string &model, int scale, TrainingAlgorithm algo,
          int batch, int microbatch)
{
    KeyBuf key;
    key.append(model);
    key.append('|');
    key.append(scale);
    key.append('|');
    key.append(std::string_view(algorithmName(algo)));
    key.append('|');
    key.append(batch);
    key.append('|');
    key.append(microbatch);
    return key;
}

} // namespace

std::shared_ptr<const Network>
PlanCache::network(const std::string &model, int scale)
{
    auto &metrics = obs::MetricsRegistry::instance();
    if (!enabled_) {
        obs::ScopedPhase phase("plan_build");
        return std::make_shared<const Network>(buildModel(model, scale));
    }
    const KeyBuf key = networkKey(model, scale);
    Stripe &stripe = stripeOf(key.view());
    {
        std::lock_guard<std::mutex> lock(stripe.mutex);
        const auto it = stripe.networks.find(key.view());
        if (it != stripe.networks.end()) {
            ++stripe.stats.networkHits;
            metrics.addCounter("plan_cache.network_hits");
            return it->second;
        }
    }
    // Build outside the lock; a thrown error (unknown model) escapes
    // before anything is cached or counted.
    std::shared_ptr<const Network> built;
    {
        obs::ScopedPhase phase("plan_build");
        built = std::make_shared<const Network>(buildModel(model, scale));
    }
    std::lock_guard<std::mutex> lock(stripe.mutex);
    const auto [it, inserted] =
        stripe.networks.emplace(std::string(key.view()),
                                std::move(built));
    // Losing a build race counts as a hit: exactly one miss per
    // distinct key, whatever the thread count.
    if (inserted)
        ++stripe.stats.networkMisses;
    else
        ++stripe.stats.networkHits;
    metrics.addCounter(inserted ? "plan_cache.network_misses"
                                : "plan_cache.network_hits");
    return it->second;
}

std::shared_ptr<const OpStream>
PlanCache::stream(const Network &net, const std::string &model,
                  int scale, TrainingAlgorithm algo, int batch,
                  int microbatch)
{
    auto build = [&]() {
        return std::make_shared<const OpStream>(
            microbatch > 0
                ? buildMicrobatchedOpStream(net, algo, batch, microbatch)
                : buildOpStream(net, algo, batch));
    };
    auto &metrics = obs::MetricsRegistry::instance();
    if (!enabled_) {
        obs::ScopedPhase phase("plan_build");
        return build();
    }
    const KeyBuf key = streamKey(model, scale, algo, batch, microbatch);
    Stripe &stripe = stripeOf(key.view());
    {
        std::lock_guard<std::mutex> lock(stripe.mutex);
        const auto it = stripe.streams.find(key.view());
        if (it != stripe.streams.end()) {
            ++stripe.stats.streamHits;
            metrics.addCounter("plan_cache.stream_hits");
            return it->second;
        }
    }
    std::shared_ptr<const OpStream> built;
    {
        obs::ScopedPhase phase("plan_build");
        built = build();
    }
    std::lock_guard<std::mutex> lock(stripe.mutex);
    const auto [it, inserted] =
        stripe.streams.emplace(std::string(key.view()),
                               std::move(built));
    if (inserted)
        ++stripe.stats.streamMisses;
    else
        ++stripe.stats.streamHits;
    metrics.addCounter(inserted ? "plan_cache.stream_misses"
                                : "plan_cache.stream_hits");
    return it->second;
}

int
PlanCache::resolvedBatch(const Scenario &s, const Network &net)
{
    if (s.batch != kAutoBatch || !enabled_)
        return resolveBatch(s, net);
    const KeyBuf key = autoBatchKey(s.model, s.modelScale, s.memoryBudget);
    Stripe &stripe = stripeOf(key.view());
    {
        std::lock_guard<std::mutex> lock(stripe.mutex);
        const auto it = stripe.autoBatches.find(key.view());
        if (it != stripe.autoBatches.end())
            return it->second;
    }
    // Searched outside the lock; racing workers compute the same
    // answer and the first insert wins.
    const int batch = resolveBatch(s, net);
    std::lock_guard<std::mutex> lock(stripe.mutex);
    return stripe.autoBatches.emplace(std::string(key.view()), batch)
        .first->second;
}

PlanCache::Stats
PlanCache::stats() const
{
    Stats total;
    for (const Stripe &stripe : stripes_) {
        std::lock_guard<std::mutex> lock(stripe.mutex);
        total.networkHits += stripe.stats.networkHits;
        total.networkMisses += stripe.stats.networkMisses;
        total.streamHits += stripe.stats.streamHits;
        total.streamMisses += stripe.stats.streamMisses;
    }
    return total;
}

std::size_t
PlanCache::size() const
{
    std::size_t total = 0;
    for (const Stripe &stripe : stripes_) {
        std::lock_guard<std::mutex> lock(stripe.mutex);
        total += stripe.networks.size() + stripe.streams.size();
    }
    return total;
}

void
PlanCache::clear()
{
    for (Stripe &stripe : stripes_) {
        std::lock_guard<std::mutex> lock(stripe.mutex);
        stripe.networks.clear();
        stripe.streams.clear();
        stripe.autoBatches.clear();
        stripe.stats = {};
    }
}

} // namespace diva
