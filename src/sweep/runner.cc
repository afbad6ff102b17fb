#include "sweep/runner.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <ostream>
#include <string>
#include <string_view>

#include "common/task_pool.h"
#include "energy/energy_model.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "sim/executor.h"

namespace diva
{

namespace
{

/**
 * The inputs that decide which execution plan (model build + op
 * stream) a scenario needs -- the PlanCache's key, minus the resolved
 * batch it cannot know before evaluation. Chip scenarios sharing a
 * signature share a plan; pods sharing one share the network, but
 * each chip count prices its own shard stream.
 */
std::string
planSignature(const Scenario &s)
{
    return s.model + '|' + std::to_string(s.modelScale) + '|' +
           std::to_string(int(s.algorithm)) + '|' +
           std::to_string(s.batch) + '|' + std::to_string(s.microbatch) +
           '|' + backendName(s.backend);
}

/**
 * Fill the metric fields of `out` (out.scenario and out.cacheHit
 * belong to the caller) by evaluating `s` on its backend, with
 * workload plans from `plans`. Simulation errors are thrown.
 */
void
evaluate(const Scenario &s, PlanCache &plans, ScenarioResult &out)
{
    const std::shared_ptr<const Network> net =
        plans.network(s.model, s.modelScale);
    out.resolvedBatch = plans.resolvedBatch(s, *net);
    const AcceleratorConfig &config = s.config;
    // One chip's iteration at `batch`, micro-batched as the scenario
    // asks: the chip itself, or one shard of a pod.
    const auto price_chip = [&](int batch) {
        const std::shared_ptr<const OpStream> stream =
            plans.stream(*net, s.model, s.modelScale, s.algorithm, batch,
                         s.microbatch);
        return Executor(config).run(*stream);
    };
    int chips = 1;
    switch (s.backend) {
      case SweepBackend::kSingleChip: {
        const SimResult r = price_chip(out.resolvedBatch);
        out.cycles = r.totalCycles();
        out.computeCycles = out.cycles;
        out.seconds = r.seconds(config);
        out.utilization = r.overallUtilization(config);
        out.energyJ = EnergyModel::energy(r, config).total();
        out.dramBytes = r.totalDram().total();
        out.postProcDramBytes = r.postProcessingDram.total();
        break;
      }
      case SweepBackend::kMultiChip: {
        // Shardability is checked before the shard is lowered, so an
        // unshardable batch reports that, not its micro-batch.
        const SimResult shard =
            price_chip(shardBatch(out.resolvedBatch, s.pod));
        const ScalingResult r =
            simulateDataParallel(config, *net, shard, s.pod);
        out.cycles = r.totalCycles;
        out.computeCycles = r.computeCycles;
        out.allReduceCycles = r.allReduceCycles;
        out.seconds = config.cyclesToSeconds(r.totalCycles);
        out.utilization = r.utilization;
        out.energyJ = r.energyJ;
        out.dramBytes = r.dramBytes;
        out.postProcDramBytes = r.postProcDramBytes;
        chips = s.pod.numChips;
        break;
      }
      case SweepBackend::kGpu: {
        // Always the monolithic stream: the roofline GPU executes the
        // logical mini-batch directly (micro-batching is an
        // accelerator memory-wall mitigation, not part of the
        // Figure 17 protocol).
        const std::shared_ptr<const OpStream> stream =
            plans.stream(*net, s.model, s.modelScale, s.algorithm,
                         out.resolvedBatch, 0);
        out.seconds = GpuModel(s.gpu).bottleneckSeconds(*stream);
        return; // seconds only (see modelsChipMetrics)
      }
    }
    // The design point's engine ratings: power pod-wide, area per chip.
    out.enginePowerW = EnergyModel::enginePowerW(config) * chips;
    out.engineAreaMm2 = EnergyModel::engineAreaMm2(config);
}

} // namespace

ScenarioResult
runScenario(const Scenario &scenario, PlanCache &plans)
{
    ScenarioResult out;
    out.scenario = scenario;
    try {
        evaluate(scenario, plans, out);
    } catch (const std::exception &e) {
        out.error = e.what();
    }
    return out;
}

ScenarioResult
runScenario(const Scenario &scenario)
{
    PlanCache plans;
    return runScenario(scenario, plans);
}

SweepRunner::SweepRunner(SweepOptions opts)
    : opts_(std::move(opts)), plans_(opts_.planCache)
{
    if (opts_.threads < 1)
        opts_.threads = 1;
    if (!opts_.cacheDir.empty())
        disk_ = std::make_unique<DiskCache>(opts_.cacheDir);
}

void
SweepRunner::printDiskCacheBanner(std::ostream &os) const
{
    if (!disk_)
        return;
    os << "disk cache: " << disk_->size() << " entries in "
       << disk_->filePath();
    if (disk_->corruptLinesSkipped())
        os << " (" << disk_->corruptLinesSkipped()
           << " corrupt lines skipped)";
    os << "\n";
}

const ScenarioResult *
SweepRunner::cached(const std::string &key) const
{
    const auto &entries = disk_ ? disk_->entries() : cache_;
    const auto it = entries.find(key);
    return it != entries.end() ? &it->second : nullptr;
}

SweepReport
SweepRunner::run(const SweepSpec &spec)
{
    return run(spec.expand().scenarios);
}

SweepReport
SweepRunner::run(const std::vector<Scenario> &scenarios)
{
    const std::size_t n = scenarios.size();
    SweepReport report;
    report.results.resize(n);

    // Render every scenario's canonical key on the pool and look it up
    // in the cross-run cache (read-only until the pool drains below);
    // only scenarios the cache misses need a plan signature.
    std::vector<std::string> keys(n);
    std::vector<std::string> sigs(n);
    std::vector<const ScenarioResult *> hit(n);
    TaskPool::shared().parallelFor(n, opts_.threads, [&](std::size_t i) {
        keys[i] = scenarios[i].canonicalKey();
        hit[i] = cached(keys[i]);
        if (!hit[i])
            sigs[i] = planSignature(scenarios[i]);
    });

    // The first scenario to claim an uncached key becomes a simulation
    // job, the rest are cache hits resolved after the pool drains.
    // source[i] is scenario i's job, or kCached; last_ref[j] is the
    // last scenario reading job j, which may take its result by move.
    constexpr std::size_t kCached = static_cast<std::size_t>(-1);
    std::vector<std::size_t> source(n, kCached);
    std::vector<std::size_t> jobs; // indices into `scenarios`
    std::vector<std::size_t> last_ref;
    {
        const std::size_t uncached =
            std::size_t(std::count(hit.begin(), hit.end(), nullptr));
        std::unordered_map<std::string_view, std::size_t> claimed;
        claimed.reserve(uncached);
        jobs.reserve(uncached);
        for (std::size_t i = 0; i < n; ++i) {
            if (hit[i]) {
                ++report.cacheHits;
                continue;
            }
            const auto [it, fresh] =
                claimed.try_emplace(keys[i], jobs.size());
            source[i] = it->second;
            if (fresh) {
                jobs.push_back(i);
                last_ref.push_back(i);
                ++report.cacheMisses;
            } else {
                last_ref[it->second] = i;
                ++report.cacheHits;
            }
        }
    }

    const PlanCache::Stats plans_before = plans_.stats();

    // Batch the jobs into structure-of-arrays groups keyed on the
    // plan signature (parallel arrays: job index list per signature,
    // in first-appearance order). One worker claims a whole group, so
    // after the first member's PlanCache miss most other members are
    // in-thread hits. Groups can still need one plan -- a pod's shard
    // stream is a chip scenario's stream at the shard batch, and an
    // auto batch can resolve to an explicit one -- so two workers may
    // build it concurrently; the PlanCache keeps the first build and
    // counts the other a hit, so its counters stay deterministic.
    // Each worker writes only its own jobs' slots, so results are
    // independent of scheduling; the per-scenario assembly below
    // imposes the deterministic order.
    std::vector<std::vector<std::size_t>> groups; // job slots
    {
        std::unordered_map<std::string_view, std::size_t> group_of;
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            const auto [it, fresh] =
                group_of.try_emplace(sigs[jobs[j]], groups.size());
            if (fresh)
                groups.emplace_back();
            groups[it->second].push_back(j);
        }
    }

    std::vector<ScenarioResult> job_results(jobs.size());
    std::atomic<std::size_t> done{0};
    std::mutex progress_mutex;
    {
        obs::ScopedPhase phase("scenario_eval");
        // One persistent-pool lane claims a whole group (see the
        // grouping comment above); the shared TaskPool replaces the
        // per-run() thread spawn/join this loop used to pay.
        TaskPool::shared().parallelFor(
            groups.size(), opts_.threads, [&](std::size_t g) {
                for (const std::size_t j : groups[g]) {
                    job_results[j] =
                        runScenario(scenarios[jobs[j]], plans_);
                    const std::size_t finished = done.fetch_add(1) + 1;
                    if (opts_.progress) {
                        std::lock_guard<std::mutex> lock(progress_mutex);
                        opts_.progress(finished, jobs.size(),
                                       scenarios[jobs[j]]);
                    }
                }
            });
    }

    const PlanCache::Stats plans_after = plans_.stats();
    report.planHits = plans_after.hits() - plans_before.hits();
    report.planMisses = plans_after.misses() - plans_before.misses();

    // The batch-size histogram reads the fresh results, so it is
    // recorded before they move into the report.
    auto &metrics = obs::MetricsRegistry::instance();
    if (metrics.enabled())
        for (const ScenarioResult &r : job_results)
            if (r.ok())
                metrics.recordValue("sweep.batch_size",
                                    double(r.resolvedBatch));

    // Only successful results enter the cross-run cache (the disk
    // store when there is one, else memory): a cached failure would
    // replay a possibly transient error forever instead of retrying
    // it. Each is copied once, and its key moved: the claim map that
    // viewed the keys is gone.
    if (disk_) {
        std::vector<std::pair<std::string, ScenarioResult>> fresh_ok;
        for (std::size_t j = 0; j < jobs.size(); ++j)
            if (job_results[j].ok())
                fresh_ok.emplace_back(std::move(keys[jobs[j]]),
                                      job_results[j]);
        disk_->append(fresh_ok);
    } else {
        cache_.reserve(cache_.size() + jobs.size());
        for (std::size_t j = 0; j < jobs.size(); ++j)
            if (job_results[j].ok())
                cache_.emplace(std::move(keys[jobs[j]]), job_results[j]);
    }

    for (std::size_t i = 0; i < n; ++i) {
        ScenarioResult &r = report.results[i];
        const std::size_t j = source[i];
        if (j == kCached) {
            r = *hit[i];
            r.cacheHit = true;
        } else {
            // Every duplicate gets the full result, failures included;
            // the last reader takes it by move.
            if (last_ref[j] == i)
                r = std::move(job_results[j]);
            else
                r = job_results[j];
            r.cacheHit = jobs[j] != i;
        }
        // Report the requester's own scenario (labels may differ even
        // when the canonical simulation inputs coincide).
        r.scenario = scenarios[i];
        if (!r.ok())
            ++report.failures;
    }

    // Published once per run from this (sequential) tail, so the
    // totals are independent of worker scheduling.
    if (metrics.enabled()) {
        metrics.addCounter("sweep.scenarios", scenarios.size());
        metrics.addCounter("sweep.jobs", jobs.size());
        metrics.addCounter("sweep.plan_groups", groups.size());
        metrics.addCounter("sweep.result_cache_hits", report.cacheHits);
        metrics.addCounter("sweep.result_cache_misses",
                           report.cacheMisses);
        metrics.addCounter("sweep.failures", report.failures);
        for (const auto &group : groups)
            metrics.recordValue("sweep.group_size",
                                double(group.size()));
    }
    return report;
}

} // namespace diva
