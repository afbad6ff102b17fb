/**
 * @file
 * Tests for the sweep backends: the one backend name table and its
 * --backends list parser, the modeled-metrics rule driving empty/NaN
 * CSV and null JSON cells and keeping unmodeled metrics out of
 * summaries and Pareto frontiers, PlanCache hit/miss accounting (pods
 * included), pods pricing exactly their shard, and byte-identity of a
 * mixed chip/pod/gpu sweep across plan-cache on/off and thread counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/task_pool.h"
#include "sweep/aggregate.h"
#include "sweep/emit.h"
#include "sweep/plan_cache.h"
#include "sweep/runner.h"
#include "sweep/spec.h"
#include "tenant/serve.h"
#include "train/memory_model.h"

namespace diva
{
namespace
{

/** Comma-split one CSV row (no quoted cells in these fixtures). */
std::vector<std::string>
cells(const std::string &row)
{
    std::vector<std::string> out;
    std::string cell;
    std::stringstream ss(row);
    while (std::getline(ss, cell, ','))
        out.push_back(cell);
    // A trailing empty cell (empty error column) is dropped by
    // getline; re-add it so indexing matches the header.
    if (!row.empty() && row.back() == ',')
        out.push_back("");
    return out;
}

/** Column index of `name` in csvHeader(). */
std::size_t
column(const std::string &name)
{
    const std::vector<std::string> header = cells(csvHeader());
    for (std::size_t i = 0; i < header.size(); ++i)
        if (header[i] == name)
            return i;
    ADD_FAILURE() << "no CSV column '" << name << "'";
    return 0;
}

constexpr SweepBackend kBackends[] = {
    SweepBackend::kSingleChip, SweepBackend::kMultiChip, SweepBackend::kGpu};

TEST(Backends, NamesRoundTripThroughTheNameTable)
{
    for (const SweepBackend b : kBackends)
        EXPECT_EQ(backendFromName(backendName(b)), b) << backendName(b);
    EXPECT_STREQ(backendName(SweepBackend::kSingleChip), "chip");
    EXPECT_STREQ(backendName(SweepBackend::kMultiChip), "pod");
    EXPECT_STREQ(backendName(SweepBackend::kGpu), "gpu");
    EXPECT_EQ(backendFromName("tpu-v9"), std::nullopt);
    EXPECT_EQ(backendFromName("Chip"), std::nullopt);
    EXPECT_EQ(backendFromName(""), std::nullopt);
}

TEST(Backends, ParseBackendListKeepsOrderAndDropsRepeats)
{
    std::vector<SweepBackend> out;
    EXPECT_EQ(parseBackendList("gpu,chip,gpu,pod,chip", &out), "");
    EXPECT_EQ(out, (std::vector<SweepBackend>{SweepBackend::kGpu,
                                              SweepBackend::kSingleChip,
                                              SweepBackend::kMultiChip}));
}

TEST(Backends, ParseBackendListRejectsUnknownNamesAndEmptyLists)
{
    std::vector<SweepBackend> out = {SweepBackend::kGpu};
    EXPECT_EQ(parseBackendList("chip,warp-drive", &out),
              "must name backends (chip, pod, gpu), got 'warp-drive'");
    EXPECT_EQ(parseBackendList(",", &out),
              "needs at least one item, got ','");
    // A rejected list leaves the previous value alone.
    EXPECT_EQ(out, std::vector<SweepBackend>{SweepBackend::kGpu});
}

TEST(Backends, AllowListErrorNamesTheMissingBackend)
{
    EXPECT_EQ(backendAllowedError({}, SweepBackend::kMultiChip), "");
    EXPECT_EQ(backendAllowedError({SweepBackend::kGpu,
                                   SweepBackend::kMultiChip},
                                  SweepBackend::kMultiChip),
              "");
    EXPECT_EQ(backendAllowedError({SweepBackend::kMultiChip},
                                  SweepBackend::kSingleChip),
              "backend 'chip' is not in the allowed --backends list");
}

TEST(Backends, OnlyTheGpuRooflineLacksChipMetrics)
{
    EXPECT_TRUE(modelsChipMetrics(SweepBackend::kSingleChip));
    EXPECT_TRUE(modelsChipMetrics(SweepBackend::kMultiChip));
    EXPECT_FALSE(modelsChipMetrics(SweepBackend::kGpu));
}

/** An auto-batch chip scenario of `model` at `scale` and `budget`. */
Scenario
autoBatchScenario(const std::string &model, int scale, Bytes budget)
{
    Scenario s;
    s.config = divaDefault(true);
    s.model = model;
    s.modelScale = scale;
    s.batch = kAutoBatch;
    s.memoryBudget = budget;
    return s;
}

TEST(PlanCache, CountsHitsAndMissesPerDistinctKey)
{
    PlanCache plans;
    const auto net_a = plans.network("SqueezeNet", 0);
    const auto net_b = plans.network("SqueezeNet", 0);
    EXPECT_EQ(net_a.get(), net_b.get()); // shared, not rebuilt
    plans.network("MobileNet", 0);
    // Auto-batch lookups, repeated or not, are not plan lookups.
    for (const Bytes budget : {16_GiB, 16_GiB, 1_GiB})
        plans.resolvedBatch(autoBatchScenario("SqueezeNet", 0, budget),
                            *net_a);
    PlanCache::Stats s = plans.stats();
    EXPECT_EQ(s.networkMisses, 2u);
    EXPECT_EQ(s.networkHits, 1u);

    plans.stream(*net_a, "SqueezeNet", 0, TrainingAlgorithm::kDpSgdR,
                 8, 0);
    plans.stream(*net_a, "SqueezeNet", 0, TrainingAlgorithm::kDpSgdR,
                 8, 0);
    // A different micro-batch is a different plan.
    plans.stream(*net_a, "SqueezeNet", 0, TrainingAlgorithm::kDpSgdR,
                 8, 4);
    s = plans.stats();
    EXPECT_EQ(s.streamMisses, 2u);
    EXPECT_EQ(s.streamHits, 1u);
    EXPECT_EQ(s.hits(), 2u);
    EXPECT_EQ(s.misses(), 4u);
    EXPECT_EQ(plans.size(), 4u);
    plans.resolvedBatch(autoBatchScenario("SqueezeNet", 0, 1_GiB), *net_a);
    EXPECT_EQ(plans.stats().hits(), 2u);
    EXPECT_EQ(plans.stats().misses(), 4u);
    EXPECT_EQ(plans.size(), 4u);

    plans.clear();
    EXPECT_EQ(plans.size(), 0u);
    EXPECT_EQ(plans.stats().hits(), 0u);
}

TEST(PlanCache, DisabledCacheBuildsFreshAndCountsNothing)
{
    PlanCache plans(false);
    EXPECT_FALSE(plans.enabled());
    const auto a = plans.network("SqueezeNet", 0);
    const auto b = plans.network("SqueezeNet", 0);
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(plans.size(), 0u);
    EXPECT_EQ(plans.stats().hits(), 0u);
    EXPECT_EQ(plans.stats().misses(), 0u);
}

/** A pod scenario: DiVa+PPU, DP-SGD(R), `batch` over `chips` chips. */
Scenario
podScenario(const std::string &model, int batch, int chips)
{
    Scenario s;
    s.config = divaDefault(true);
    s.model = model;
    s.batch = batch;
    s.backend = SweepBackend::kMultiChip;
    s.pod.numChips = chips;
    return s;
}

/**
 * The caller's thread count is a pure concurrency knob: a key hashes
 * to one stripe, concurrent same-key misses resolve first-insert-wins
 * with the loser counting a hit, and stats() sums stripes in index
 * order. So the hit/miss totals must be identical at 1 and 4 threads
 * for the same lookup workload, pod scenarios pricing their shards
 * included.
 */
TEST(PlanCache, HitMissTotalsIndependentOfThreads)
{
    const char *kModels[] = {"SqueezeNet", "MobileNet"};
    const int kBatches[] = {4, 8};

    // Each of `tasks` workers performs the identical lookup sequence:
    // misses == distinct keys, hits == lookups - misses, regardless
    // of which worker builds first.
    auto drive = [&](PlanCache &plans, int threads) {
        TaskPool pool;
        const std::size_t tasks = std::size_t(threads) * 2;
        pool.parallelFor(tasks, threads, [&](std::size_t) {
            for (const char *model : kModels) {
                const auto net = plans.network(model, 0);
                for (int batch : kBatches)
                    plans.stream(*net, model, 0,
                                 TrainingAlgorithm::kDpSgdR, batch, 0);
                // Memoized auto batches leave the counts alone.
                for (const Bytes budget : {1_GiB, 16_GiB})
                    plans.resolvedBatch(
                        autoBatchScenario(model, 0, budget), *net);
                // B=16 pods look up the network and their shard
                // stream: B=16 on 1 chip is a new stream, B=8 and
                // B=4 (on 2 and 4 chips) are the ones above.
                for (const int chips : {1, 2, 4})
                    EXPECT_TRUE(
                        runScenario(podScenario(model, 16, chips), plans)
                            .ok());
            }
        });
        return tasks;
    };

    for (int threads : {1, 4}) {
        PlanCache plans;
        const std::size_t tasks = drive(plans, threads);
        const PlanCache::Stats s = plans.stats();
        EXPECT_EQ(s.networkMisses, 2u) << threads << " threads";
        EXPECT_EQ(s.streamMisses, 6u) << threads << " threads";
        EXPECT_EQ(s.networkHits, tasks * 8u - 2u) << threads << " threads";
        EXPECT_EQ(s.streamHits, tasks * 10u - 6u) << threads << " threads";
        EXPECT_EQ(plans.size(), 8u);
    }

    // A pod at B=64 on 2 chips prices the B=32 stream that a chip
    // scenario already built: a stream hit, not a second build.
    PlanCache plans;
    Scenario chip = podScenario("SqueezeNet", 32, 1);
    chip.backend = SweepBackend::kSingleChip;
    ASSERT_TRUE(runScenario(chip, plans).ok());
    const PlanCache::Stats before = plans.stats();
    ASSERT_TRUE(runScenario(podScenario("SqueezeNet", 64, 2), plans).ok());
    const PlanCache::Stats after = plans.stats();
    EXPECT_EQ(after.streamMisses, before.streamMisses);
    EXPECT_EQ(after.streamHits, before.streamHits + 1);
}

/**
 * The auto batch memoized per (model, scale, budget) is the
 * Figure-5/13 protocol's answer, asked sequentially or from 4 pool
 * lanes on one shared cache. Each (model, scale) is asked for its
 * budgets back to back, so a memo keyed on less than all three would
 * hand out a neighbour's answer.
 */
TEST(PlanCache, MemoizedAutoBatchMatchesTheProtocol)
{
    const Bytes kBudgets[] = {1_MiB, 1_GiB, 16_GiB, 1024_GiB};
    std::vector<Scenario> scenarios;
    std::vector<int> expected;
    for (const std::string &model : knownModels()) {
        for (const int scale : {0, 48, 128}) {
            const Network net = buildModel(model, scale);
            for (const Bytes budget : kBudgets) {
                scenarios.push_back(autoBatchScenario(model, scale, budget));
                expected.push_back(std::max(
                    1, maxBatchSize(net, TrainingAlgorithm::kDpSgd, budget)));
                // 1 MiB fits no batch; the protocol never goes below 1.
                if (budget == 1_MiB) {
                    EXPECT_EQ(expected.back(), 1) << model << " " << scale;
                }
            }
        }
    }

    for (const int threads : {1, 4}) {
        PlanCache plans;
        std::vector<int> got(scenarios.size());
        TaskPool pool;
        pool.parallelFor(scenarios.size(), threads, [&](std::size_t i) {
            got[i] = runScenario(scenarios[i], plans).resolvedBatch;
        });
        for (std::size_t i = 0; i < scenarios.size(); ++i)
            EXPECT_EQ(got[i], expected[i])
                << scenarios[i].label() << " at " << threads << " threads";
        // Memo entries are neither plans nor lookups.
        EXPECT_EQ(plans.size(), plans.stats().misses());
    }
}

TEST(PlanCache, UnknownModelThrowsAndCachesNothing)
{
    PlanCache plans;
    EXPECT_THROW(plans.network("AlexNet", 0), std::runtime_error);
    EXPECT_EQ(plans.size(), 0u);
    EXPECT_EQ(plans.stats().misses(), 0u);
}

/**
 * Run pod scenario `pod` and check it against the chip scenario at its
 * shard batch ceil(B/N) with the same micro-batch: the pod's compute
 * cycles are that scenario's cycles, a 1-chip pod is the chip scenario
 * itself, and a micro-batch larger than the shard fails as it does on
 * a chip. Returns the pod's result.
 */
ScenarioResult
expectPodPricesItsShard(const Scenario &pod, PlanCache &plans)
{
    const ScenarioResult p = runScenario(pod, plans);
    const int chips = pod.pod.numChips;
    const std::string what = pod.label();
    if (p.resolvedBatch < chips) {
        EXPECT_EQ(p.error, "fatal: global batch " +
                               std::to_string(p.resolvedBatch) +
                               " cannot shard over " +
                               std::to_string(chips) + " chips")
            << what;
        return p;
    }
    Scenario shard = pod;
    shard.backend = SweepBackend::kSingleChip;
    shard.batch = ceilDiv(p.resolvedBatch, chips);
    const ScenarioResult c = runScenario(shard, plans);
    EXPECT_EQ(p.error, c.error) << what;
    if (!p.ok())
        return p;
    EXPECT_EQ(p.computeCycles, c.cycles) << what;
    if (chips == 1) {
        EXPECT_EQ(p.cycles, c.cycles) << what;
        EXPECT_EQ(p.seconds, c.seconds) << what;
        EXPECT_EQ(p.utilization, c.utilization) << what;
        EXPECT_EQ(p.energyJ, c.energyJ) << what;
        EXPECT_EQ(p.dramBytes, c.dramBytes) << what;
        EXPECT_EQ(p.postProcDramBytes, c.postProcDramBytes) << what;
    }
    return p;
}

TEST(PodPricing, APodPricesExactlyItsShard)
{
    PlanCache plans;
    int priced = 0;
    for (const std::string &model : knownModels())
        for (const AcceleratorConfig &config : {tpuV3Ws(), divaDefault(true)})
            for (const TrainingAlgorithm algo :
                 {TrainingAlgorithm::kDpSgd, TrainingAlgorithm::kDpSgdR})
                for (const int batch : {kAutoBatch, 37})
                    for (const int chips : {1, 2, 4, 8}) {
                        Scenario pod;
                        pod.config = config;
                        pod.model = model;
                        pod.algorithm = algo;
                        pod.batch = batch;
                        pod.backend = SweepBackend::kMultiChip;
                        pod.pod.numChips = chips;
                        const ScenarioResult mono =
                            expectPodPricesItsShard(pod, plans);
                        pod.microbatch = 4;
                        const ScenarioResult micro =
                            expectPodPricesItsShard(pod, plans);
                        priced += int(mono.ok()) + int(micro.ok());
                        // The ring moves |G(W)|, whatever the micro-batch.
                        if (mono.ok() && micro.ok())
                            EXPECT_EQ(micro.allReduceCycles,
                                      mono.allReduceCycles)
                                << pod.label();
                    }
    // Only shards smaller than the micro-batch fail.
    EXPECT_GT(priced, 500);
}

/** Mixed chip/pod/gpu spec: 2 configs x 1 model x 2 batches. */
SweepSpec
mixedSpec()
{
    SweepSpec spec;
    spec.configs = {tpuV3Ws(), divaDefault(true)};
    spec.models = {"SqueezeNet"};
    spec.batches = {8, 32};
    spec.algorithms = {TrainingAlgorithm::kDpSgdR};
    spec.backends = {SweepBackend::kSingleChip,
                     SweepBackend::kMultiChip, SweepBackend::kGpu};
    MultiChipConfig pod;
    pod.numChips = 2;
    spec.pods = {pod};
    spec.gpus = {GpuConfig::a100Fp16()};
    return spec;
}

TEST(SweepRunner, PlanCacheCountersSurfaceInReport)
{
    SweepRunner runner;
    const SweepReport cold = runner.run(mixedSpec());
    // Every scenario shares one workload per batch: far fewer plan
    // builds than plan lookups.
    EXPECT_GT(cold.planMisses, 0u);
    EXPECT_GT(cold.planHits, 0u);
    EXPECT_GT(runner.planCache().size(), 0u);

    // A warm rerun is all result-cache hits: no jobs, no plan lookups.
    const SweepReport warm = runner.run(mixedSpec());
    EXPECT_EQ(warm.planHits, 0u);
    EXPECT_EQ(warm.planMisses, 0u);
}

TEST(SweepRunner, DisabledPlanCacheReportsZeroCounters)
{
    SweepOptions opts;
    opts.planCache = false;
    SweepRunner runner(opts);
    const SweepReport report = runner.run(mixedSpec());
    EXPECT_EQ(report.planHits, 0u);
    EXPECT_EQ(report.planMisses, 0u);
    EXPECT_FALSE(runner.planCache().enabled());
}

TEST(SweepRunner, MixedSweepCsvIsByteIdenticalAcrossPlanCacheAndThreads)
{
    const std::vector<Scenario> scenarios = mixedSpec().expand().scenarios;
    ASSERT_FALSE(scenarios.empty());
    std::string reference;
    for (const bool plan_cache : {true, false})
        for (const int threads : {1, 4}) {
            SweepOptions opts;
            opts.threads = threads;
            opts.planCache = plan_cache;
            SweepRunner runner(opts);
            const SweepReport report = runner.run(scenarios);
            EXPECT_EQ(report.failures, 0u);
            std::ostringstream csv, json;
            writeCsv(csv, report);
            writeJson(json, report);
            if (reference.empty()) {
                reference = csv.str() + json.str();
                continue;
            }
            EXPECT_EQ(csv.str() + json.str(), reference)
                << "plan_cache=" << plan_cache
                << " threads=" << threads;
        }
}

TEST(Emit, GpuRowsEmitEmptyOrNanForUnmodeledMetrics)
{
    Scenario s;
    s.model = "SqueezeNet";
    s.batch = 8;
    s.backend = SweepBackend::kGpu;
    s.gpu = GpuConfig::a100Fp16();
    const ScenarioResult r = runScenario(s);
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_GT(r.seconds, 0.0);

    const std::vector<std::string> row = cells(csvRow(r));
    ASSERT_EQ(row.size(), cells(csvHeader()).size());
    EXPECT_EQ(row[column("cycles")], "");
    EXPECT_EQ(row[column("compute_cycles")], "");
    EXPECT_EQ(row[column("allreduce_cycles")], "");
    EXPECT_EQ(row[column("utilization")], "nan");
    EXPECT_EQ(row[column("energy_j")], "nan");
    EXPECT_EQ(row[column("dram_bytes")], "");
    EXPECT_EQ(row[column("postproc_dram_bytes")], "");
    EXPECT_EQ(row[column("engine_power_w")], "nan");
    EXPECT_EQ(row[column("engine_area_mm2")], "nan");
    EXPECT_NE(row[column("seconds")], "nan");

    SweepReport report;
    report.results.push_back(r);
    std::ostringstream json;
    writeJson(json, report);
    EXPECT_NE(json.str().find("\"cycles\": null"), std::string::npos);
    EXPECT_NE(json.str().find("\"utilization\": null"),
              std::string::npos);
    EXPECT_NE(json.str().find("\"energy_j\": null"), std::string::npos);
    EXPECT_NE(json.str().find("\"dram_bytes\": null"),
              std::string::npos);
    EXPECT_EQ(json.str().find("\"seconds\": null"), std::string::npos);
}

TEST(Emit, ChipRowsStillCarryEveryMetric)
{
    Scenario s;
    s.config = divaDefault(true);
    s.model = "SqueezeNet";
    s.batch = 8;
    const ScenarioResult r = runScenario(s);
    ASSERT_TRUE(r.ok()) << r.error;
    const std::vector<std::string> row = cells(csvRow(r));
    EXPECT_NE(row[column("cycles")], "");
    EXPECT_NE(row[column("utilization")], "nan");
    EXPECT_NE(row[column("energy_j")], "nan");
    EXPECT_NE(row[column("dram_bytes")], "");
}

TEST(Serve, BackendAllowListGatesThePricedBackend)
{
    ServeSpec spec;
    spec.config = divaDefault(true);
    TenantJob job;
    job.name = "t0";
    job.model = "SqueezeNet";
    job.batch = 4;
    job.steps = 2;
    spec.workload.name = "mix";
    spec.workload.jobs = {job};

    // Pricing needs the chip backend here (chips == 1); a pod-only
    // allow-list must refuse rather than silently switch substrates.
    spec.backends = {SweepBackend::kMultiChip};
    EXPECT_EQ(simulateServe(spec).error,
              "backend 'chip' is not in the allowed --backends list");

    spec.backends = {SweepBackend::kSingleChip, SweepBackend::kMultiChip};
    const ServeResult ok = simulateServe(spec);
    EXPECT_TRUE(ok.ok()) << ok.error;
}

/** Whether `r` came from the GPU roofline. */
bool
isGpu(const ScenarioResult &r)
{
    return r.scenario.backend == SweepBackend::kGpu;
}

TEST(Aggregate, SummaryCountsOnlyRowsThatModelEachMetric)
{
    const SweepReport report = SweepRunner().run(mixedSpec());
    ASSERT_EQ(report.failures, 0u);
    const std::size_t gpu_rows = std::size_t(std::count_if(
        report.results.begin(), report.results.end(), isGpu));
    ASSERT_GT(gpu_rows, 0u);
    const std::size_t chip_rows = report.results.size() - gpu_rows;
    ASSERT_GT(chip_rows, 0u);

    const SweepSummary s = summarizeResults(report.results);
    EXPECT_EQ(s.seconds.count, report.results.size());
    EXPECT_EQ(s.cycles.count, chip_rows);
    EXPECT_EQ(s.utilization.count, chip_rows);
    EXPECT_EQ(s.energyJ.count, chip_rows);
    // The GPU rows' default zeros are not measurements.
    EXPECT_GT(s.cycles.min, 0.0);
    EXPECT_GT(s.utilization.min, 0.0);
    EXPECT_GT(s.energyJ.min, 0.0);

    // GPU rows alone model no cycles, utilization or energy.
    std::vector<ScenarioResult> gpu_only;
    std::copy_if(report.results.begin(), report.results.end(),
                 std::back_inserter(gpu_only), isGpu);
    const SweepSummary g = summarizeResults(gpu_only);
    EXPECT_EQ(g.seconds.count, gpu_rows);
    EXPECT_EQ(g.cycles.count, 0u);
    EXPECT_EQ(g.utilization.count, 0u);
    EXPECT_EQ(g.energyJ.count, 0u);
}

TEST(Aggregate, ParetoLeavesOutRowsThatDoNotModelAnObjective)
{
    const SweepReport report = SweepRunner().run(mixedSpec());
    ASSERT_EQ(report.failures, 0u);
    for (const std::vector<Objective> &objectives :
         {std::vector<Objective>{Objective::kEnergy, Objective::kSeconds},
          std::vector<Objective>{Objective::kCycles},
          std::vector<Objective>{Objective::kUtilization,
                                 Objective::kSeconds}}) {
        const std::vector<std::size_t> frontier =
            paretoFrontier(report.results, objectives);
        EXPECT_FALSE(frontier.empty());
        for (const std::size_t i : frontier)
            EXPECT_FALSE(isGpu(report.results[i]))
                << report.results[i].scenario.label() << " on the "
                << objectiveName(objectives.front()) << " frontier";
    }

    // Seconds is modeled everywhere: GPU rows still compete on it,
    // and the frontier is the fastest row of the whole sweep.
    double min_seconds = report.results.front().seconds;
    std::vector<std::size_t> want;
    for (std::size_t i = 0; i < report.results.size(); ++i) {
        const double sec = report.results[i].seconds;
        if (sec < min_seconds)
            want.clear();
        if (sec <= min_seconds) {
            min_seconds = sec;
            want.push_back(i);
        }
    }
    EXPECT_EQ(paretoFrontier(report.results, {Objective::kSeconds}), want);
    std::vector<ScenarioResult> gpu_only;
    std::copy_if(report.results.begin(), report.results.end(),
                 std::back_inserter(gpu_only), isGpu);
    EXPECT_FALSE(paretoFrontier(gpu_only, {Objective::kSeconds}).empty());
    EXPECT_TRUE(paretoFrontier(gpu_only, {Objective::kEnergy}).empty());
}

} // namespace
} // namespace diva
