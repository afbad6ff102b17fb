/**
 * @file
 * Parallel sweep execution with a canonical-key result cache.
 *
 * The runner simulates each *unique* scenario exactly once on a
 * fixed-size worker pool and assembles results in scenario order, so
 * the report is bit-identical whatever the thread count. Scenarios
 * whose canonical key was already simulated -- duplicates within one
 * run, repeats across run() calls on the same runner, or (with
 * SweepOptions::cacheDir) results persisted by earlier processes --
 * are served from the cache and flagged as hits. Failed results are
 * never cached beyond the run that produced them.
 *
 * runScenario() evaluates one scenario with a switch over its
 * SweepBackend (single chip, data-parallel pod or roofline GPU), and
 * a shared thread-safe PlanCache memoizes workload lowering
 * (buildModel + buildOpStream) so a sweep crossing many design points
 * with few workloads builds each workload once, not once per cell.
 */

#ifndef DIVA_SWEEP_RUNNER_H
#define DIVA_SWEEP_RUNNER_H

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sweep/disk_cache.h"
#include "sweep/plan_cache.h"
#include "sweep/scenario.h"
#include "sweep/spec.h"

namespace diva
{

/** Sweep execution options. */
struct SweepOptions
{
    /** Worker threads; values < 1 are clamped to 1. */
    int threads = 1;

    /**
     * Memoize workload plans (buildModel + buildOpStream) across
     * scenarios and run() calls. Results are byte-identical either
     * way; disable only to benchmark plan lowering or to verify that
     * identity.
     */
    bool planCache = true;

    /**
     * When non-empty, persist results in a DiskCache under this
     * directory: previously stored scenarios are served without
     * simulation (counted as cache hits) and fresh successful results
     * are appended after every run(). See DiskCache::defaultDir().
     */
    std::string cacheDir;

    /**
     * Invoked after each completed simulation with (done, total,
     * scenario). Called from worker threads under a lock; completion
     * order is nondeterministic under parallel execution, so route
     * progress to a side channel (stderr), never into sweep output.
     */
    std::function<void(std::size_t, std::size_t, const Scenario &)>
        progress;
};

/** Outcome of one run() call. */
struct SweepReport
{
    /** One result per input scenario, in input order. */
    std::vector<ScenarioResult> results;

    /** Scenarios served from the cache (duplicates + cross-run hits). */
    std::size_t cacheHits = 0;

    /** Scenarios that required a fresh simulation. */
    std::size_t cacheMisses = 0;

    /** Results with a non-empty error. */
    std::size_t failures = 0;

    /**
     * Workload-plan cache accounting for this run: lookups served
     * from (hits) or added to (misses) the shared PlanCache. Both are
     * deterministic across thread counts; both are zero when
     * SweepOptions::planCache is false.
     */
    std::size_t planHits = 0;
    std::size_t planMisses = 0;
};

/** Executes scenario lists / specs; owns the result and plan caches. */
class SweepRunner
{
  public:
    explicit SweepRunner(SweepOptions opts = {});

    /** Expand `spec` and run every scenario. */
    SweepReport run(const SweepSpec &spec);

    /** Run an explicit scenario list. */
    SweepReport run(const std::vector<Scenario> &scenarios);

    /** Number of cached unique-scenario results (store or memory). */
    std::size_t cacheSize() const
    {
        return disk_ ? disk_->size() : cache_.size();
    }

    /** Drop the in-memory cache (the disk store is untouched). */
    void clearCache() { cache_.clear(); }

    const SweepOptions &options() const { return opts_; }

    /** The persistent store, or nullptr when options().cacheDir empty. */
    const DiskCache *diskCache() const { return disk_.get(); }

    /**
     * The CLIs' startup line, "disk cache: N entries in PATH" plus any
     * corrupt lines skipped on load, to `os`; nothing without a store.
     */
    void printDiskCacheBanner(std::ostream &os) const;

    /** The shared workload-plan cache (disabled when !opts.planCache). */
    const PlanCache &planCache() const { return plans_; }

  private:
    /** The cached result under `key`, or nullptr. */
    const ScenarioResult *cached(const std::string &key) const;

    SweepOptions opts_;
    PlanCache plans_;
    /**
     * canonical key -> successful result, fresh simulations only
     * (failures are never kept, so a transient failure is retried on
     * the next run()); unused when a disk store exists.
     */
    std::unordered_map<std::string, ScenarioResult> cache_;
    /**
     * The disk store, loaded once at construction; its entries are the
     * cache when it exists. A result whose append failed is not among
     * them, so the next run() simulates and appends it again.
     */
    std::unique_ptr<DiskCache> disk_;
};

/**
 * Simulate one scenario synchronously on its backend, memoizing
 * workload plans in `plans` (shared across calls). Simulation errors
 * come back in the result's `error`, never as exceptions.
 */
ScenarioResult runScenario(const Scenario &scenario, PlanCache &plans);

/** Convenience overload with a private, single-use plan cache. */
ScenarioResult runScenario(const Scenario &scenario);

} // namespace diva

#endif // DIVA_SWEEP_RUNNER_H
