/**
 * @file
 * Unit tests for the design-space sweep subsystem: spec expansion
 * counts, serial-vs-parallel result equality, cache-hit accounting,
 * summary statistics, Pareto-frontier extraction and the bytes of the
 * canonical keys.
 */

#include <gtest/gtest.h>

#include "sweep/aggregate.h"
#include "sweep/emit.h"
#include "sweep/runner.h"
#include "sweep/scenario.h"
#include "sweep/spec.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

namespace diva
{
namespace
{

/** A small but multi-axis spec: 2 configs x 2 models x 2 algos. */
SweepSpec
smallSpec()
{
    SweepSpec spec;
    spec.configs = {tpuV3Ws(), divaDefault(true)};
    spec.models = {"ResNet-50", "BERT-base"};
    spec.algorithms = {TrainingAlgorithm::kDpSgd,
                       TrainingAlgorithm::kDpSgdR};
    spec.batches = {8};
    return spec;
}

TEST(SweepSpec, ExpansionCountsCartesianProduct)
{
    const SweepSpec::Expansion e = smallSpec().expand();
    EXPECT_EQ(e.rawCount, 8u);
    EXPECT_EQ(e.scenarios.size(), 8u);
    EXPECT_EQ(e.invalidSkipped, 0u);
    EXPECT_EQ(e.duplicatesRemoved, 0u);
}

TEST(SweepSpec, ExpansionSkipsInvalidConfigs)
{
    SweepSpec spec = smallSpec();
    AcceleratorConfig bad = tpuV3Ws();
    bad.hasPpu = true; // WS + PPU fails validate()
    spec.configs.push_back(bad);
    const SweepSpec::Expansion e = spec.expand();
    EXPECT_EQ(e.rawCount, 12u);
    EXPECT_EQ(e.invalidSkipped, 4u);
    EXPECT_EQ(e.scenarios.size(), 8u);
}

TEST(SweepSpec, ExpansionDeduplicatesRepeatedAxes)
{
    SweepSpec spec = smallSpec();
    spec.configs.push_back(tpuV3Ws()); // repeated design point
    const SweepSpec::Expansion e = spec.expand();
    EXPECT_EQ(e.rawCount, 12u);
    EXPECT_EQ(e.duplicatesRemoved, 4u);
    EXPECT_EQ(e.scenarios.size(), 8u);
}

TEST(SweepSpec, GpuScenariosIgnoreConfigAxis)
{
    SweepSpec spec = smallSpec();
    spec.backends = {SweepBackend::kSingleChip, SweepBackend::kGpu};
    spec.gpus = {GpuConfig::a100Fp16()};
    const SweepSpec::Expansion e = spec.expand();
    // The GPU scenarios coincide across the 2-config axis: 8 chip
    // scenarios + 4 unique GPU scenarios (4 duplicates removed).
    EXPECT_EQ(e.rawCount, 16u);
    EXPECT_EQ(e.duplicatesRemoved, 4u);
    EXPECT_EQ(e.scenarios.size(), 12u);
}

TEST(SweepRunner, GpuMicrobatchesShareOneSimulation)
{
    // GPUs price the monolithic stream, so a micro-batch axis yields
    // one simulation per GPU point; each row still reports the
    // micro-batch it asked for.
    SweepSpec spec;
    spec.models = {"SqueezeNet"};
    spec.algorithms = {TrainingAlgorithm::kDpSgdR};
    spec.batches = {8};
    spec.microbatches = {0, 4};
    spec.backends = {SweepBackend::kGpu};
    spec.gpus = {GpuConfig::a100Fp16()};
    const SweepSpec::Expansion e = spec.expand();
    ASSERT_EQ(e.scenarios.size(), 2u);
    EXPECT_EQ(e.scenarios[0].canonicalKey(), e.scenarios[1].canonicalKey());

    SweepRunner runner;
    const SweepReport report = runner.run(e.scenarios);
    EXPECT_EQ(report.cacheMisses, 1u);
    EXPECT_EQ(report.cacheHits, 1u);
    ASSERT_EQ(report.results.size(), 2u);
    EXPECT_EQ(report.results[0].scenario.microbatch, 0);
    EXPECT_EQ(report.results[1].scenario.microbatch, 4);
    EXPECT_EQ(report.results[0].seconds, report.results[1].seconds);
}

TEST(SweepSpec, ExpansionOrderIsDeterministic)
{
    const SweepSpec spec = smallSpec();
    const auto a = spec.expand();
    const auto b = spec.expand();
    ASSERT_EQ(a.scenarios.size(), b.scenarios.size());
    for (std::size_t i = 0; i < a.scenarios.size(); ++i)
        EXPECT_EQ(a.scenarios[i].canonicalKey(),
                  b.scenarios[i].canonicalKey());
}

TEST(SweepRunner, ParallelBitIdenticalToSerial)
{
    SweepOptions serial_opts;
    serial_opts.threads = 1;
    SweepRunner serial(serial_opts);
    SweepOptions parallel_opts;
    parallel_opts.threads = 4;
    SweepRunner parallel(parallel_opts);

    const std::vector<Scenario> scenarios = smallSpec().expand().scenarios;
    const SweepReport a = serial.run(scenarios);
    const SweepReport b = parallel.run(scenarios);

    ASSERT_EQ(a.results.size(), b.results.size());
    EXPECT_EQ(a.cacheHits, b.cacheHits);
    EXPECT_EQ(a.cacheMisses, b.cacheMisses);
    for (std::size_t i = 0; i < a.results.size(); ++i) {
        SCOPED_TRACE(a.results[i].scenario.label());
        EXPECT_EQ(a.results[i].cycles, b.results[i].cycles);
        EXPECT_EQ(a.results[i].seconds, b.results[i].seconds);
        EXPECT_EQ(a.results[i].utilization, b.results[i].utilization);
        EXPECT_EQ(a.results[i].energyJ, b.results[i].energyJ);
        EXPECT_EQ(a.results[i].dramBytes, b.results[i].dramBytes);
        EXPECT_EQ(a.results[i].cacheHit, b.results[i].cacheHit);
        // Emitted rows must match byte for byte.
        EXPECT_EQ(csvRow(a.results[i]), csvRow(b.results[i]));
    }
}

TEST(SweepRunner, DuplicateScenariosAreCacheHits)
{
    Scenario s;
    s.config = divaDefault(true);
    s.model = "ResNet-50";
    s.batch = 4;
    const std::vector<Scenario> scenarios = {s, s, s};

    SweepRunner runner;
    const SweepReport report = runner.run(scenarios);
    EXPECT_EQ(report.cacheMisses, 1u);
    EXPECT_EQ(report.cacheHits, 2u);
    EXPECT_FALSE(report.results[0].cacheHit);
    EXPECT_TRUE(report.results[1].cacheHit);
    EXPECT_TRUE(report.results[2].cacheHit);
    EXPECT_EQ(report.results[0].cycles, report.results[1].cycles);
}

TEST(SweepRunner, CachePersistsAcrossRuns)
{
    const std::vector<Scenario> scenarios = smallSpec().expand().scenarios;
    SweepRunner runner;
    const SweepReport first = runner.run(scenarios);
    EXPECT_EQ(first.cacheHits, 0u);
    EXPECT_EQ(first.cacheMisses, scenarios.size());
    EXPECT_EQ(runner.cacheSize(), scenarios.size());

    const SweepReport second = runner.run(scenarios);
    EXPECT_EQ(second.cacheHits, scenarios.size());
    EXPECT_EQ(second.cacheMisses, 0u);
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        EXPECT_TRUE(second.results[i].cacheHit);
        EXPECT_EQ(first.results[i].cycles, second.results[i].cycles);
    }

    runner.clearCache();
    EXPECT_EQ(runner.cacheSize(), 0u);
}

TEST(SweepRunner, AutoBatchResolvesToFigureProtocol)
{
    Scenario s;
    s.config = divaDefault(true);
    s.model = "ResNet-50";
    s.batch = kAutoBatch;
    const ScenarioResult r = runScenario(s);
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_GT(r.resolvedBatch, 0);
    // An auto-batch scenario and its resolved explicit twin share the
    // simulation but not the canonical key (different requests).
    Scenario explicit_twin = s;
    explicit_twin.batch = r.resolvedBatch;
    EXPECT_NE(s.canonicalKey(), explicit_twin.canonicalKey());
    const ScenarioResult r2 = runScenario(explicit_twin);
    EXPECT_EQ(r.cycles, r2.cycles);
}

TEST(SweepRunner, FailedScenarioReportsErrorNotCrash)
{
    Scenario s;
    s.config = divaDefault(true);
    s.model = "ResNet-50";
    s.batch = 1;
    s.backend = SweepBackend::kMultiChip;
    s.pod.numChips = 8; // global batch 1 < 8 chips is impossible
    SweepRunner runner;
    const SweepReport report = runner.run(std::vector<Scenario>{s});
    EXPECT_EQ(report.failures, 1u);
    EXPECT_FALSE(report.results[0].ok());
}

TEST(SweepRunner, FailedResultsAreNotCachedAcrossRuns)
{
    // Regression: a failed result pinned in the cross-run cache would
    // replay a possibly transient error forever instead of retrying.
    Scenario s;
    s.config = divaDefault(true);
    s.model = "ResNet-50";
    s.batch = 1;
    s.backend = SweepBackend::kMultiChip;
    s.pod.numChips = 8; // fails: batch 1 cannot shard over 8 chips
    SweepRunner runner;
    const SweepReport first = runner.run(std::vector<Scenario>{s});
    EXPECT_EQ(first.failures, 1u);
    EXPECT_EQ(first.cacheMisses, 1u);
    EXPECT_EQ(runner.cacheSize(), 0u); // the failure was not kept

    // The second run must re-simulate, not replay the cached failure.
    const SweepReport second = runner.run(std::vector<Scenario>{s});
    EXPECT_EQ(second.cacheMisses, 1u);
    EXPECT_EQ(second.cacheHits, 0u);
    EXPECT_FALSE(second.results[0].cacheHit);
    EXPECT_EQ(second.failures, 1u);

    // Within one run duplicates still collapse into one simulation.
    const SweepReport dup = runner.run(std::vector<Scenario>{s, s});
    EXPECT_EQ(dup.cacheMisses, 1u);
    EXPECT_EQ(dup.cacheHits, 1u);
    EXPECT_EQ(dup.failures, 2u);
}

/** Whether two results carry bit-identical metrics and errors. */
bool
sameMetrics(const ScenarioResult &a, const ScenarioResult &b)
{
    auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    return a.resolvedBatch == b.resolvedBatch && a.cycles == b.cycles &&
           a.computeCycles == b.computeCycles &&
           a.allReduceCycles == b.allReduceCycles &&
           bits(a.seconds) == bits(b.seconds) &&
           bits(a.utilization) == bits(b.utilization) &&
           bits(a.energyJ) == bits(b.energyJ) &&
           a.dramBytes == b.dramBytes &&
           a.postProcDramBytes == b.postProcDramBytes &&
           bits(a.enginePowerW) == bits(b.enginePowerW) &&
           bits(a.engineAreaMm2) == bits(b.engineAreaMm2) &&
           a.error == b.error;
}

TEST(SweepRunner, DuplicatesSurviveTheMoveIntoTheReport)
{
    // F fails and S succeeds; a primed twin differs from its original
    // only in the GPU design point, which the canonical key of a chip
    // or pod scenario ignores. Every duplicate needs the full result
    // (a report that moves a result out on its first reference hands
    // the later ones an empty error) and its own Scenario.
    Scenario f;
    f.config = divaDefault(true);
    f.model = "ResNet-50";
    f.batch = 1;
    f.backend = SweepBackend::kMultiChip;
    f.pod.numChips = 8; // fails: batch 1 cannot shard over 8 chips
    f.gpu = GpuConfig::a100Fp16();
    Scenario f2 = f;
    f2.gpu = GpuConfig::v100Fp32();
    Scenario s;
    s.config = systolicOs(true);
    s.model = "SqueezeNet";
    s.batch = 8;
    s.gpu = GpuConfig::a100Fp16();
    Scenario s2 = s;
    s2.gpu = GpuConfig::v100Fp32();
    ASSERT_EQ(f.canonicalKey(), f2.canonicalKey());
    ASSERT_EQ(s.canonicalKey(), s2.canonicalKey());
    const std::vector<Scenario> scenarios = {f, f2, s, s2, f};

    const ScenarioResult f_alone = runScenario(f);
    const ScenarioResult s_alone = runScenario(s);
    ASSERT_FALSE(f_alone.ok());
    ASSERT_TRUE(s_alone.ok()) << s_alone.error;

    auto check = [&](const SweepReport &report,
                     const std::vector<bool> &hits) {
        ASSERT_EQ(report.results.size(), scenarios.size());
        EXPECT_EQ(report.failures, 3u);
        for (std::size_t i = 0; i < scenarios.size(); ++i) {
            const ScenarioResult &r = report.results[i];
            SCOPED_TRACE("row " + std::to_string(i));
            EXPECT_EQ(r.scenario.gpu.name, scenarios[i].gpu.name);
            EXPECT_EQ(r.scenario.gpu.peakTflops, scenarios[i].gpu.peakTflops);
            EXPECT_EQ(r.scenario.model, scenarios[i].model);
            EXPECT_TRUE(sameMetrics(
                r, scenarios[i].model == f.model ? f_alone : s_alone));
            EXPECT_EQ(r.cacheHit, hits[i]);
        }
    };

    SweepRunner runner;
    const SweepReport first = runner.run(scenarios);
    check(first, {false, true, false, true, true});
    EXPECT_EQ(first.results[0].error, f_alone.error);
    // Failures are never cached: the second run simulates F again and
    // serves everything else as a hit.
    const SweepReport second = runner.run(scenarios);
    check(second, {false, true, true, true, true});
}

TEST(SweepRunner, PodScenariosReportEnergyUtilizationAndTraffic)
{
    // Regression: pod-backend rows used to report energy_j = 0.
    Scenario s;
    s.config = divaDefault(true);
    s.model = "SqueezeNet";
    s.batch = 32;
    s.backend = SweepBackend::kMultiChip;
    s.pod.numChips = 4;
    const ScenarioResult r = runScenario(s);
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_GT(r.energyJ, 0.0);
    EXPECT_GT(r.utilization, 0.0);
    EXPECT_LE(r.utilization, 1.0);
    EXPECT_GT(r.dramBytes, 0u);
    EXPECT_GT(r.computeCycles, 0u);
    EXPECT_GT(r.allReduceCycles, 0u);
    EXPECT_EQ(r.computeCycles + r.allReduceCycles, r.cycles);

    // The pod spends at least the chips' summed iteration energy.
    Scenario chip = s;
    chip.backend = SweepBackend::kSingleChip;
    chip.batch = 8; // one pod shard
    const ScenarioResult shard = runScenario(chip);
    ASSERT_TRUE(shard.ok()) << shard.error;
    EXPECT_GE(r.energyJ, 4.0 * shard.energyJ);
}

TEST(Aggregate, SummaryStatsOnKnownSeries)
{
    // 1..100: median 50.5, p95 = 95.05 by linear interpolation.
    std::vector<double> values;
    for (int i = 1; i <= 100; ++i)
        values.push_back(double(i));
    const SummaryStats s = summarize(values);
    EXPECT_EQ(s.count, 100u);
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 100.0);
    EXPECT_DOUBLE_EQ(s.mean, 50.5);
    EXPECT_DOUBLE_EQ(s.median, 50.5);
    EXPECT_DOUBLE_EQ(s.p95, 95.05);
}

/** Five hand-computed points over (cycles, energy). */
std::vector<ScenarioResult>
paretoFixture()
{
    auto point = [](Cycles cycles, double energy) {
        ScenarioResult r;
        r.cycles = cycles;
        r.energyJ = energy;
        return r;
    };
    return {
        point(100, 10.0), // [0] frontier: fastest
        point(200, 4.0),  // [1] frontier: cheaper than 0, faster than 3
        point(200, 6.0),  // [2] dominated by 1 (same cycles, more J)
        point(400, 2.0),  // [3] frontier: cheapest
        point(500, 5.0),  // [4] dominated by 1 and 3
    };
}

TEST(Aggregate, ParetoFrontierOnHandComputedFixture)
{
    const std::vector<std::size_t> frontier = paretoFrontier(
        paretoFixture(), {Objective::kCycles, Objective::kEnergy});
    EXPECT_EQ(frontier, (std::vector<std::size_t>{0, 1, 3}));
}

TEST(Aggregate, ParetoSingleObjectiveKeepsAllTies)
{
    auto fixture = paretoFixture();
    const std::vector<std::size_t> frontier =
        paretoFrontier(fixture, {Objective::kCycles});
    EXPECT_EQ(frontier, (std::vector<std::size_t>{0}));
    // Tie on the single objective: both minima survive.
    fixture[1].cycles = 100;
    const std::vector<std::size_t> tied =
        paretoFrontier(fixture, {Objective::kCycles});
    EXPECT_EQ(tied, (std::vector<std::size_t>{0, 1}));
}

TEST(Aggregate, ParetoMaximizesUtilization)
{
    auto fixture = paretoFixture();
    fixture[0].utilization = 0.2;
    fixture[1].utilization = 0.9;
    fixture[2].utilization = 0.1;
    fixture[3].utilization = 0.9;
    fixture[4].utilization = 0.95;
    const std::vector<std::size_t> frontier = paretoFrontier(
        fixture, {Objective::kCycles, Objective::kUtilization});
    // 4 now survives on utilization; 2 stays dominated by 1, and 3
    // falls to 1 (same utilization, more cycles).
    EXPECT_EQ(frontier, (std::vector<std::size_t>{0, 1, 4}));
}

TEST(Aggregate, ParetoExcludesFailedResults)
{
    auto fixture = paretoFixture();
    fixture[0].error = "boom"; // the fastest point drops out
    const std::vector<std::size_t> frontier = paretoFrontier(
        fixture, {Objective::kCycles, Objective::kEnergy});
    EXPECT_EQ(frontier, (std::vector<std::size_t>{1, 3}));
}

TEST(Emit, CsvIsDeterministicAndAlignedWithHeader)
{
    Scenario s;
    s.config = divaDefault(true);
    s.model = "ResNet-50";
    s.batch = 4;
    const ScenarioResult r = runScenario(s);
    const std::string row = csvRow(r);
    EXPECT_EQ(row, csvRow(r));
    const auto count_commas = [](const std::string &text) {
        return std::count(text.begin(), text.end(), ',');
    };
    EXPECT_EQ(count_commas(row), count_commas(csvHeader()));
}

/** The cell count of each row of a CSV document (RFC 4180 quoting). */
std::vector<std::size_t>
csvRowWidths(const std::string &doc)
{
    std::vector<std::size_t> widths;
    std::size_t cells = 1;
    bool quoted = false;
    for (char c : doc) {
        if (c == '"') {
            quoted = !quoted;
        } else if (!quoted && c == ',') {
            ++cells;
        } else if (!quoted && c == '\n') {
            widths.push_back(cells);
            cells = 1;
        }
    }
    return widths;
}

TEST(Emit, EveryRowHasTheHeadersCellCount)
{
    // Chip, pod and GPU rows; failed rows for a micro-batch larger
    // than its batch and for one larger than the pod's shard; and an
    // error text that needs CSV quoting.
    Scenario chip;
    chip.config = divaDefault(true);
    chip.model = "SqueezeNet";
    chip.algorithm = TrainingAlgorithm::kDpSgd;
    chip.batch = 8;
    Scenario pod = chip;
    pod.backend = SweepBackend::kMultiChip;
    pod.pod.numChips = 4;
    Scenario gpu = chip;
    gpu.backend = SweepBackend::kGpu;
    gpu.gpu = GpuConfig::a100Fp16();
    Scenario chip_mb = chip;
    chip_mb.batch = 2;
    chip_mb.microbatch = 4;
    Scenario pod_mb = pod;
    pod_mb.microbatch = 4;
    SweepRunner runner;
    SweepReport report =
        runner.run(std::vector<Scenario>{chip, pod, gpu, chip_mb, pod_mb});
    ASSERT_EQ(report.results.size(), 5u);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_TRUE(report.results[i].ok()) << report.results[i].error;
    EXPECT_FALSE(report.results[3].ok());
    EXPECT_FALSE(report.results[4].ok());
    ScenarioResult quoted = report.results[0];
    quoted.error = "a \"quoted\", two-line\nerror";
    report.results.push_back(quoted);

    std::ostringstream csv;
    writeCsv(csv, report);
    const std::vector<std::size_t> widths = csvRowWidths(csv.str());
    ASSERT_EQ(widths.size(), report.results.size() + 1);
    EXPECT_EQ(widths[0], 27u);
    for (std::size_t i = 1; i < widths.size(); ++i)
        EXPECT_EQ(widths[i], widths[0]) << "row " << i;
}

TEST(Emit, JsonIsIndependentOfCacheState)
{
    // The JSON file is a pure function of the scenario list, so a
    // rerun against a warm cache (all hits) emits identical bytes.
    SweepRunner runner;
    SweepSpec spec = smallSpec();
    spec.models = {"ResNet-50"};
    const SweepReport cold = runner.run(spec);
    const SweepReport warm = runner.run(spec);
    EXPECT_EQ(cold.cacheMisses, 4u);
    EXPECT_EQ(warm.cacheHits, 4u);
    std::ostringstream a, b;
    writeJson(a, cold);
    writeJson(b, warm);
    EXPECT_EQ(a.str(), b.str());
    EXPECT_NE(a.str().find("\"results\": ["), std::string::npos);
    EXPECT_NE(a.str().find("\"compute_cycles\": "), std::string::npos);
    EXPECT_EQ(a.str().find("cache"), std::string::npos);
}

TEST(Emit, FormatDoubleGuardsNonFiniteValues)
{
    EXPECT_EQ(formatDouble(std::nan("")), "nan");
    EXPECT_EQ(formatDouble(HUGE_VAL), "inf");
    EXPECT_EQ(formatDouble(-HUGE_VAL), "-inf");
    EXPECT_EQ(formatDouble(0.25), "0.25");
    EXPECT_EQ(jsonNumber(std::nan("")), "null");
    EXPECT_EQ(jsonNumber(HUGE_VAL), "null");
    EXPECT_EQ(jsonNumber(0.25), "0.25");
}

/**
 * formatDouble's text as printf spells it: the shortest round-trip
 * digit count (floored at 6) printed by snprintf's "%.*g", the
 * formula formatDouble replaced with one to_chars call.
 */
std::string
snprintfFormatDouble(double v)
{
    char sci[64];
    const auto res = std::to_chars(sci, sci + sizeof(sci), v,
                                   std::chars_format::scientific);
    int digits = 0;
    for (const char *c = sci; c != res.ptr && *c != 'e'; ++c)
        digits += *c >= '0' && *c <= '9';
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*g", digits < 6 ? 6 : digits, v);
    return buf;
}

TEST(Emit, FormatDoubleMatchesSnprintfReference)
{
    // A seeded corpus of finite doubles: raw bit patterns, latency-range
    // values, decimal-grid values, every power of two, both zeros and
    // the smallest subnormal, each spelled as snprintf would.
    std::mt19937_64 rng(20261019);
    std::vector<double> corpus = {0.0, -0.0, 5e-324, -5e-324,
                                  std::numeric_limits<double>::min(),
                                  std::numeric_limits<double>::max(),
                                  std::numeric_limits<double>::lowest()};
    for (int i = 0; i < 30000; ++i) {
        const double v = std::bit_cast<double>(rng());
        if (std::isfinite(v))
            corpus.push_back(v);
    }
    std::uniform_real_distribution<double> logSec(-7.0, 3.0);
    for (int i = 0; i < 30000; ++i)
        corpus.push_back(std::pow(10.0, logSec(rng)));
    for (int i = 0; i < 20000; ++i) {
        const double k = double(rng() % 1000000);
        corpus.push_back((i % 2 ? -k : k) / std::pow(10.0, double(rng() % 10)));
    }
    for (int e = -1074; e <= 1023; ++e) {
        corpus.push_back(std::ldexp(1.0, e));
        corpus.push_back(-std::ldexp(1.0, e));
    }
    std::size_t mismatches = 0;
    for (double v : corpus) {
        const std::string want = snprintfFormatDouble(v);
        const std::string got = formatDouble(v);
        if (got != want && ++mismatches <= 5)
            ADD_FAILURE() << "bits " << std::bit_cast<std::uint64_t>(v)
                          << ": got " << got << ", snprintf " << want;
    }
    EXPECT_EQ(mismatches, 0u) << "of " << corpus.size() << " values";
}

TEST(Emit, JsonStaysValidWithNonFiniteMetrics)
{
    SweepReport report;
    ScenarioResult r;
    r.scenario.model = "ResNet-50";
    r.seconds = std::nan("");
    r.utilization = HUGE_VAL;
    report.results.push_back(r);
    std::ostringstream oss;
    writeJson(oss, report);
    EXPECT_NE(oss.str().find("\"seconds\": null"), std::string::npos);
    EXPECT_NE(oss.str().find("\"utilization\": null"),
              std::string::npos);
    EXPECT_EQ(oss.str().find("nan"), std::string::npos);
    EXPECT_EQ(oss.str().find("inf"), std::string::npos);
    // The CSV spells them out as text instead.
    const std::string row = csvRow(r);
    EXPECT_NE(row.find("nan"), std::string::npos);
    EXPECT_NE(row.find("inf"), std::string::npos);
}

TEST(Emit, JsonEscapesControlCharacters)
{
    SweepReport report;
    ScenarioResult r;
    r.scenario.model = "ResNet-50";
    r.error = "bad\r\nthing\x01happened";
    report.results.push_back(r);
    std::ostringstream oss;
    writeJson(oss, report);
    const std::string json = oss.str();
    EXPECT_NE(json.find("bad\\r\\nthing\\u0001happened"),
              std::string::npos);
    // No raw control characters survive into the document.
    for (char c : json)
        EXPECT_TRUE(c == '\n' || static_cast<unsigned char>(c) >= 0x20)
            << int(c);
}

TEST(Scenario, BuildModelKnowsTheFullZoo)
{
    for (const std::string &name : knownModels()) {
        const Network net = buildModel(name);
        EXPECT_EQ(net.name, name);
        EXPECT_FALSE(net.layers.empty());
    }
    EXPECT_THROW(buildModel("AlexNet"), std::runtime_error);
}

TEST(Scenario, GpuKeyCoversTimingFieldsNotJustName)
{
    Scenario a;
    a.model = "ResNet-50";
    a.backend = SweepBackend::kGpu;
    a.gpu = GpuConfig::a100Fp16();
    Scenario b = a;
    EXPECT_EQ(a.canonicalKey(), b.canonicalKey());
    b.gpu.gemmEfficiency = 0.5; // same name, different design point
    EXPECT_NE(a.canonicalKey(), b.canonicalKey());
}

TEST(Scenario, PodAxesAreDistinctDesignPoints)
{
    // Interconnect bandwidth and link latency are sweepable pod axes:
    // each value is its own canonical key and survives expansion.
    Scenario base;
    base.config = divaDefault(true);
    base.model = "ResNet-50";
    base.backend = SweepBackend::kMultiChip;
    Scenario fat_links = base;
    fat_links.pod.interconnectGBs = 140.0;
    Scenario long_links = base;
    long_links.pod.linkLatencyCycles = 2000;
    EXPECT_NE(base.canonicalKey(), fat_links.canonicalKey());
    EXPECT_NE(base.canonicalKey(), long_links.canonicalKey());
    EXPECT_NE(fat_links.canonicalKey(), long_links.canonicalKey());

    SweepSpec spec;
    spec.configs = {divaDefault(true)};
    spec.models = {"ResNet-50"};
    spec.batches = {64};
    spec.backends = {SweepBackend::kMultiChip};
    spec.pods = {base.pod, fat_links.pod, long_links.pod};
    const SweepSpec::Expansion e = spec.expand();
    EXPECT_EQ(e.scenarios.size(), 3u);
    EXPECT_EQ(e.duplicatesRemoved, 0u);
}

TEST(Emit, PodRowsAreDistinguishableByLinkDesignPoint)
{
    // Regression: two pods differing only in --ici-gbs/--link-lat
    // must not emit identical identity columns.
    ScenarioResult a;
    a.scenario.config = divaDefault(true);
    a.scenario.model = "ResNet-50";
    a.scenario.backend = SweepBackend::kMultiChip;
    a.scenario.pod.numChips = 2;
    ScenarioResult b = a;
    b.scenario.pod.interconnectGBs = 140.0;
    ScenarioResult c = a;
    c.scenario.pod.linkLatencyCycles = 2000;
    EXPECT_NE(csvRow(a), csvRow(b));
    EXPECT_NE(csvRow(a), csvRow(c));
    EXPECT_NE(a.scenario.label(), b.scenario.label());
    EXPECT_NE(a.scenario.label(), c.scenario.label());
    std::ostringstream json;
    SweepReport report;
    report.results = {a, b};
    writeJson(json, report);
    EXPECT_NE(json.str().find("\"ici_gbs\": 140"), std::string::npos);
}

TEST(Scenario, CanonicalKeySeparatesBackends)
{
    Scenario chip;
    chip.config = divaDefault(true);
    chip.model = "ResNet-50";
    Scenario pod = chip;
    pod.backend = SweepBackend::kMultiChip;
    Scenario gpu = chip;
    gpu.backend = SweepBackend::kGpu;
    gpu.gpu = GpuConfig::a100Fp16();
    EXPECT_NE(chip.canonicalKey(), pod.canonicalKey());
    EXPECT_NE(chip.canonicalKey(), gpu.canonicalKey());
    EXPECT_NE(pod.canonicalKey(), gpu.canonicalKey());
}

// ----------------------------------------- canonical-key byte contract

/**
 * The canonical key built through std::ostringstream, as the
 * reference: every existing disk store is indexed by these bytes.
 */
void
referenceConfigKey(std::ostringstream &oss, const AcceleratorConfig &c)
{
    oss << c.name << ';' << dataflowName(c.dataflow) << ';' << c.peRows
        << ';' << c.peCols << ';' << c.freqGhz << ';' << c.sramBytes
        << ';' << c.dramBandwidthGBs << ';' << c.dramLatencyCycles
        << ';' << c.weightFillRowsPerCycle << ';'
        << c.wsDoubleBufferWeights << ';' << c.drainRowsPerCycle << ';'
        << c.hasPpu << ';' << c.inputBytes << ';' << c.accumBytes << ';'
        << c.vectorLanes;
}

std::string
referenceCanonicalKey(const Scenario &s)
{
    std::ostringstream oss;
    oss << backendName(s.backend) << '|' << s.model << '|' << s.modelScale
        << '|' << algorithmName(s.algorithm) << '|' << s.batch << '|'
        << (s.backend == SweepBackend::kGpu ? 0 : s.microbatch);
    if (s.batch == kAutoBatch)
        oss << "|mem=" << s.memoryBudget;
    switch (s.backend) {
      case SweepBackend::kSingleChip:
        oss << "|cfg=";
        referenceConfigKey(oss, s.config);
        break;
      case SweepBackend::kMultiChip:
        oss << "|cfg=";
        referenceConfigKey(oss, s.config);
        oss << "|chips=" << s.pod.numChips << "|ici="
            << s.pod.interconnectGBs << "|lat=" << s.pod.linkLatencyCycles;
        if (s.microbatch > 0)
            oss << "|mb=per-chip";
        break;
      case SweepBackend::kGpu:
        oss << "|gpu=" << s.gpu.name << ';' << s.gpu.peakTflops << ';'
            << s.gpu.bandwidthGBs << ';' << s.gpu.numSms << ';'
            << s.gpu.tileM << ';' << s.gpu.tileN << ';' << s.gpu.kGranule
            << ';' << s.gpu.kernelOverheadSec << ';'
            << s.gpu.gemmEfficiency;
        break;
    }
    return oss.str();
}

/** Draws scenario fields whose stream and %g spellings are tricky. */
struct KeyFuzzer
{
    std::mt19937_64 rng{0xd1fa5eed};

    template <typename T>
    T pick(const std::vector<T> &from)
    {
        return from[std::uniform_int_distribution<std::size_t>(
            0, from.size() - 1)(rng)];
    }

    bool coin() { return rng() & 1; }

    int integer()
    {
        if (coin())
            return pick<int>({0, 1, -1, 8, 128, 1024,
                              std::numeric_limits<int>::max(),
                              std::numeric_limits<int>::min()});
        return int(std::uniform_int_distribution<std::int64_t>(
            -100000, 100000)(rng));
    }

    std::uint64_t unsignedInteger()
    {
        if (coin())
            return pick<std::uint64_t>(
                {0, 1, 100, 16ull << 20, 16ull << 30,
                 std::numeric_limits<std::uint64_t>::max()});
        return rng() >> (rng() % 64);
    }

    double real()
    {
        switch (rng() % 3) {
          case 0:
            // Shortest round-trip and %g disagree on most of these.
            return pick<double>(
                {0.94, 123456789.0, 1e-7, 5e-6, -0.94, -123456789.0,
                 1e30, 1e-30, -1e30, -1e-30, 450.0, 0.85, 0.0, -0.0,
                 1.0 / 3.0, 999999.5, 1e6, 1234567.0, 0.0001, 0.00001,
                 2.5e-308, 1.7976931348623157e308,
                 std::numeric_limits<double>::infinity(),
                 -std::numeric_limits<double>::infinity(),
                 std::numeric_limits<double>::quiet_NaN()});
          case 1:
            return double(integer()) / 8.0;
          default: {
            const double mantissa =
                std::uniform_real_distribution<double>(-10.0, 10.0)(rng);
            const int exponent =
                std::uniform_int_distribution<int>(-40, 40)(rng);
            return mantissa * std::pow(10.0, exponent);
          }
        }
    }

    Scenario scenario()
    {
        Scenario s;
        s.backend = pick<SweepBackend>({SweepBackend::kSingleChip,
                                        SweepBackend::kMultiChip,
                                        SweepBackend::kGpu});
        s.model = pick<std::string>({"ResNet-50", "BERT-base", "", "a|b;c"});
        s.modelScale = coin() ? 0 : integer();
        s.batch = coin() ? kAutoBatch : integer();
        s.microbatch = coin() ? 0 : integer();
        s.algorithm = pick<TrainingAlgorithm>(
            {TrainingAlgorithm::kSgd, TrainingAlgorithm::kDpSgd,
             TrainingAlgorithm::kDpSgdR});
        s.memoryBudget = unsignedInteger();

        AcceleratorConfig &c = s.config;
        c.name = pick<std::string>({"DiVa", "Systolic-WS", "", "x;y"});
        c.dataflow = pick<Dataflow>({Dataflow::kWeightStationary,
                                     Dataflow::kOutputStationary,
                                     Dataflow::kOuterProduct});
        c.peRows = integer();
        c.peCols = integer();
        c.freqGhz = real();
        c.sramBytes = unsignedInteger();
        c.dramBandwidthGBs = real();
        c.dramLatencyCycles = unsignedInteger();
        c.weightFillRowsPerCycle = integer();
        c.wsDoubleBufferWeights = coin();
        c.drainRowsPerCycle = integer();
        c.hasPpu = coin();
        c.inputBytes = integer();
        c.accumBytes = integer();
        c.vectorLanes = integer();

        s.pod.numChips = integer();
        s.pod.interconnectGBs = real();
        s.pod.linkLatencyCycles = unsignedInteger();

        GpuConfig &g = s.gpu;
        g.name = pick<std::string>({"A100-FP16", "", "v100;fp32"});
        g.peakTflops = real();
        g.bandwidthGBs = real();
        g.numSms = integer();
        g.tileM = integer();
        g.tileN = integer();
        g.kGranule = integer();
        g.kernelOverheadSec = real();
        g.gemmEfficiency = real();
        return s;
    }
};

TEST(Scenario, CanonicalKeyKeepsItsStreamBytes)
{
    KeyFuzzer fuzz;
    for (int i = 0; i < 20000; ++i) {
        const Scenario s = fuzz.scenario();
        const std::string want = referenceCanonicalKey(s);
        ASSERT_EQ(s.canonicalKey(), want) << "scenario " << i;
    }
    // Spot checks of %g (not shortest round-trip) formatting.
    Scenario s;
    s.backend = SweepBackend::kGpu;
    s.batch = 4;
    s.gpu.name = "g";
    s.gpu.peakTflops = 123456789.0;
    s.gpu.bandwidthGBs = 0.94;
    s.gpu.kernelOverheadSec = 1e-7;
    s.gpu.gemmEfficiency = -1e30;
    EXPECT_EQ(s.canonicalKey(), "gpu||0|DP-SGD(R)|4|0|gpu=g;1.23457e+08;"
                                "0.94;0;128;128;1;1e-07;-1e+30");
}

} // namespace
} // namespace diva
