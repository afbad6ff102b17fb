/**
 * @file
 * Shared workload-plan cache: memoizes the two deterministic, pure
 * lowering steps every sweep backend repeats -- buildModel()
 * (zoo name + input scale -> Network) and buildOpStream() /
 * buildMicrobatchedOpStream() (network + algorithm + resolved batch +
 * micro-batch -> one training iteration's op stream).
 *
 * A design-space sweep crosses many accelerator design points with few
 * workloads, so without memoization each sweep cell rebuilds the same
 * Network and OpStream hundreds of times. The cache is shared by all
 * backends and is safe to use from the sweep runner's worker pool: a
 * pod looks up its shard's stream (the entry a chip scenario at that
 * batch and micro-batch uses), and a GPU scenario the monolithic
 * stream at its whole batch.
 *
 * Next to the networks the cache also memoizes the kAutoBatch answer
 * per (model, scale, memory budget): a sweep asks for it once per
 * auto-batch scenario but has few distinct answers. That memo is not
 * a plan, so stats() and size() leave it out.
 *
 * Concurrency: the table is striped 16 ways -- each stripe owns its
 * own mutex, map and counters, and a key hashes to exactly one stripe --
 * so concurrent lookups of different keys proceed in parallel instead
 * of serializing on one global lock. Hot-path probes are heterogeneous:
 * the key is rendered into a stack buffer and looked up as a
 * std::string_view, so a cache hit allocates no std::string.
 *
 * Thread-safety and determinism: plans are built *outside* the stripe
 * lock, so two workers missing the same key concurrently both build,
 * and the first to insert wins (the loser adopts the winner's plan and
 * counts a hit). That rule makes the hit/miss counters a pure function
 * of the scenario set -- misses == distinct keys built, hits ==
 * lookups - misses -- so totals stay byte-identical across thread
 * counts (stats() sums the stripes sequentially).
 */

#ifndef DIVA_SWEEP_PLAN_CACHE_H
#define DIVA_SWEEP_PLAN_CACHE_H

#include <array>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "models/network.h"
#include "train/algorithm.h"
#include "train/op.h"

namespace diva
{

struct Scenario;

/** Thread-safe, stripe-locked memoizer for buildModel+buildOpStream. */
class PlanCache
{
  public:
    /** A disabled cache builds every plan fresh and counts nothing. */
    explicit PlanCache(bool enabled = true) : enabled_(enabled) {}

    PlanCache(const PlanCache &) = delete;
    PlanCache &operator=(const PlanCache &) = delete;

    /** Cumulative lookup accounting since construction / clear(). */
    struct Stats
    {
        std::size_t networkHits = 0;
        std::size_t networkMisses = 0;
        std::size_t streamHits = 0;
        std::size_t streamMisses = 0;

        std::size_t hits() const { return networkHits + streamHits; }
        std::size_t misses() const
        {
            return networkMisses + streamMisses;
        }
    };

    /**
     * The zoo model `model` at input scale `scale` (0 = paper
     * default), built at most once per (model, scale). Throws like
     * buildModel() for unknown names; failures are never cached.
     */
    std::shared_ptr<const Network> network(const std::string &model,
                                           int scale);

    /**
     * The op stream of one training iteration of `net` -- monolithic
     * when `microbatch` == 0, gradient-accumulating otherwise -- built
     * at most once per (model, scale, algorithm, batch, microbatch).
     * `net` must be the (model, scale) network; it is only consulted
     * on a miss.
     */
    std::shared_ptr<const OpStream> stream(const Network &net,
                                           const std::string &model,
                                           int scale,
                                           TrainingAlgorithm algo,
                                           int batch, int microbatch);

    /**
     * The mini-batch scenario `s` runs, as resolveBatch() gives it:
     * explicit batches pass through, and the kAutoBatch search over
     * `net` (the scenario's network) is computed at most once per
     * (model, scale, memory budget). Not counted in stats() or size();
     * a disabled cache computes it every time.
     */
    int resolvedBatch(const Scenario &s, const Network &net);

    bool enabled() const { return enabled_; }

    /** Summed over the stripes in index order (deterministic). */
    Stats stats() const;

    /** Number of cached plans (networks + streams; not batches). */
    std::size_t size() const;

    /** Drop every cached plan and batch and reset the counters. */
    void clear();

  private:
    /** Lock-striping width. */
    static constexpr std::size_t kStripes = 16;

    /** Transparent hasher: lets find() take a std::string_view probe
     *  against std::string keys without materializing a string. */
    struct KeyHash
    {
        using is_transparent = void;
        std::size_t operator()(std::string_view key) const
        {
            return std::hash<std::string_view>{}(key);
        }
    };

    /** One lock-striped shard: its own mutex, maps and counters. */
    struct Stripe
    {
        mutable std::mutex mutex;
        Stats stats;
        /** "model|scale|budget" -> resolved auto batch. */
        std::unordered_map<std::string, int, KeyHash, std::equal_to<>>
            autoBatches;
        std::unordered_map<std::string,
                           std::shared_ptr<const Network>, KeyHash,
                           std::equal_to<>>
            networks;
        std::unordered_map<std::string,
                           std::shared_ptr<const OpStream>, KeyHash,
                           std::equal_to<>>
            streams;
    };

    Stripe &stripeOf(std::string_view key)
    {
        return stripes_[std::hash<std::string_view>{}(key) % kStripes];
    }

    const bool enabled_;
    std::array<Stripe, kStripes> stripes_;
};

} // namespace diva

#endif // DIVA_SWEEP_PLAN_CACHE_H
