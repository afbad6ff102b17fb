/**
 * @file
 * sweep-design: a cold design-space sweep on empty caches, then fresh
 * runners resolving the same request list from an on-disk store of the
 * same results. Only the paper model and the sweep's caches run; no
 * serve or fleet code does. Operations are scenarios.
 */

#include <filesystem>
#include <iostream>
#include <sstream>
#include <unordered_set>

#include "calib.h"
#include "paper.h"
#include "sweep/emit.h"
#include "sweep/runner.h"
#include "sweep/spec.h"
#include "workloads.h"

using namespace diva;

namespace perfbench
{

namespace
{

/**
 * Every zoo model on {WS, OS, DiVa} x PPU {off, on} (WS+PPU is invalid
 * and dropped by expansion) x {SGD, DP-SGD, DP-SGD(R)} x batches with
 * the auto batch x input scales with the default one, so the Figure
 * 13/16 protocol points are part of the sweep.
 */
SweepSpec
designSpec(bool smoke)
{
    SweepSpec spec;
    AcceleratorConfig wsPpu = tpuV3Ws();
    wsPpu.hasPpu = true;
    spec.configs = {tpuV3Ws(),         wsPpu,
                    systolicOs(false), systolicOs(true),
                    divaDefault(false), divaDefault(true)};
    spec.models = knownModels();
    spec.algorithms = {TrainingAlgorithm::kSgd, TrainingAlgorithm::kDpSgd,
                       TrainingAlgorithm::kDpSgdR};
    spec.batches = smoke ? std::vector<int>{kAutoBatch}
                         : std::vector<int>{kAutoBatch, 8, 16, 32, 64, 128,
                                            256};
    spec.modelScales = smoke ? std::vector<int>{0}
                             : std::vector<int>{0, 48, 64, 96, 128};
    return spec;
}

/** Combos expansion must drop: exactly the WS+PPU ones. */
std::size_t
expectedInvalid(const SweepSpec &spec)
{
    std::size_t invalidConfigs = 0;
    for (const AcceleratorConfig &c : spec.configs)
        invalidConfigs += c.validationError().empty() ? 0 : 1;
    return invalidConfigs * spec.models.size() * spec.modelScales.size() *
           spec.algorithms.size() * spec.batches.size() *
           spec.microbatches.size() * spec.backends.size();
}

/** Warm passes per repetition. */
constexpr int kWarmPasses = 5;

/** The expanded list in a seed-determined order (Fisher-Yates). */
std::vector<Scenario>
shuffled(std::vector<Scenario> v, std::uint64_t seed)
{
    std::uint64_t state = seed;
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[splitmix64(state) % i]);
    return v;
}

std::string
csvOf(const SweepReport &report)
{
    std::ostringstream os;
    writeCsv(os, report);
    return os.str();
}

/** Checks shared by both passes; `hits` is the expected cache hits. */
void
checkPass(Run &run, const SweepReport &report, std::size_t requested,
          std::size_t hits)
{
    run.ops.expect(report.results.size() == requested,
                   "result count differs from the request count");
    run.ops.expect(report.failures == 0,
                   std::to_string(report.failures) + " scenarios failed");
    for (const ScenarioResult &r : report.results)
        if (!r.ok()) {
            run.ops.expect(false, r.scenario.label() + ": " + r.error);
            break;
        }
    run.ops.expect(report.cacheHits == hits,
                   "cache hits " + std::to_string(report.cacheHits) +
                       ", expected " + std::to_string(hits));
}

} // namespace

void
sweepDesign(Run &run)
{
    const Options &opt = run.opt;
    const std::string cacheDir = opt.workDir + "/sweep-cache";

    // Set-up: expansion and the seeded request order.
    std::vector<double> setups;
    SweepSpec spec;
    SweepSpec::Expansion exp;
    std::vector<Scenario> scenarios;
    for (int i = 0; i < (opt.smoke ? 1 : 7); ++i) {
        const double scale = hostScale();
        const Clock::time_point t0 = Clock::now();
        spec = designSpec(opt.smoke);
        exp = spec.expand();
        scenarios = shuffled(exp.scenarios, opt.seed);
        setups.push_back(since(t0) / scale);
    }
    run.set("setup_s", median(setups));

    run.ops.begin("SweepSpec::expand");
    run.ops.expect(exp.invalidSkipped == expectedInvalid(spec),
                   "expansion dropped " + std::to_string(exp.invalidSkipped) +
                       " invalid combos, expected " +
                       std::to_string(expectedInvalid(spec)));
    run.ops.expect(exp.duplicatesRemoved == 0,
                   "expansion removed duplicates");
    {
        std::unordered_set<std::string> keys;
        for (const Scenario &s : scenarios)
            keys.insert(s.canonicalKey());
        for (const Scenario &p : paperPoints())
            run.ops.expect(keys.count(p.canonicalKey()) > 0,
                           "missing Fig. 13/16 point " + p.label());
    }
    std::cout << "sweep-design: " << scenarios.size() << " scenarios ("
              << exp.rawCount << " raw, " << exp.invalidSkipped
              << " invalid dropped), " << opt.threads << " threads\n";

    // Cold passes run on a fresh runner without a disk store, as a
    // plain diva_sweep does. Warm passes run a fresh runner over a store
    // written once here, before timing, so no repetition writes files.
    SweepOptions coldOpts;
    coldOpts.threads = opt.threads;
    SweepOptions warmOpts = coldOpts;
    warmOpts.cacheDir = cacheDir;
    resetDir(cacheDir);
    {
        run.ops.begin("SweepRunner::run writing the disk store");
        SweepRunner runner(warmOpts);
        checkPass(run, runner.run(scenarios), scenarios.size(), 0);
    }
    // One pass's footprint, before repetitions fragment the heap.
    run.set("peak_rss_mb", peakRssMb());

    // Rates are normalised to the reference host (see hostScale).
    std::vector<double> coldRate, warmRate, tracedColdRate;
    std::vector<double> coldRun, scenarioUs, warmRun, hitRate, preload,
        planBuild, scenarioEval, planHit;
    std::string firstCsv;
    repeatFor(opt.seconds, minReps(opt), [&](int rep) {
        // Traced runs alternate traced and untraced repetitions so the
        // tracing overhead is measured on the same inputs.
        const bool traced = opt.trace && rep % 2 == 0;

        traceOn(traced);
        run.ops.begin("cold SweepRunner::run");
        const double coldScale = hostScale();
        const Clock::time_point t0 = Clock::now();
        SweepReport cold;
        {
            SweepRunner runner(coldOpts);
            cold = runner.run(scenarios);
        }
        const double coldSec = since(t0);
        const Phases coldPhases = takePhases();
        checkPass(run, cold, scenarios.size(), 0);
        run.ops.expect(cold.cacheMisses == scenarios.size(),
                       "cold pass served scenarios from a cache");
        const std::string csv = csvOf(cold);
        if (firstCsv.empty())
            firstCsv = csv;
        run.ops.expect(csv == firstCsv,
                       "cold CSV differs between repetitions");
        if (rep == 0) {
            run.ops.begin("Fig. 13/16 fidelity from the cold results");
            const std::string err = addPaperFidelity(cold.results, run);
            run.ops.expect(err.empty(), err);
        }
        const double rate = coldScale * double(cold.cacheMisses) / coldSec;
        if (traced) {
            tracedColdRate.push_back(rate);
            coldRun.push_back(coldSec);
            scenarioUs.push_back(coldSec * 1e6 / double(cold.cacheMisses));
            planBuild.push_back(coldPhases.seconds("plan_build"));
            scenarioEval.push_back(coldPhases.seconds("scenario_eval"));
            planHit.push_back(ratio(double(cold.planHits),
                                    double(cold.planHits + cold.planMisses)));
        } else {
            coldRate.push_back(rate);
        }

        // A warm pass takes a tenth of a cold one, about the time of
        // the calibration kernel, so one kernel run normalises several
        // back-to-back passes and their summed time is the sample.
        const double warmScale = hostScale();
        double warmSec = 0.0;
        for (int pass = 0; pass < kWarmPasses; ++pass) {
            traceOn(traced);
            run.ops.begin("warm SweepRunner::run");
            const Clock::time_point w0 = Clock::now();
            SweepReport warm;
            {
                SweepRunner runner(warmOpts); // preloads the store
                warm = runner.run(scenarios);
            }
            const double passSec = since(w0);
            warmSec += passSec;
            const Phases warmPhases = takePhases();
            traceOn(false);
            checkPass(run, warm, scenarios.size(), scenarios.size());
            run.ops.expect(csvOf(warm) == csv,
                           "warm CSV differs from the cold CSV");
            if (traced) {
                warmRun.push_back(passSec);
                hitRate.push_back(
                    ratio(double(warm.cacheHits),
                          double(warm.cacheHits + warm.cacheMisses)));
                preload.push_back(warmPhases.seconds("disk_preload"));
            }
        }
        if (!traced)
            warmRate.push_back(warmScale * double(kWarmPasses) *
                               double(scenarios.size()) / warmSec);
    });
    std::filesystem::remove_all(cacheDir);

    run.set("ops_per_s", median(coldRate));
    run.set("cached_ops_per_s", median(warmRate));
    std::cout << "cold scenarios/s: " << describe(coldRate) << "\n"
              << "warm scenarios/s: " << describe(warmRate) << "\n";
    if (opt.trace) {
        run.set("bench.trace_overhead_frac",
                1.0 - ratio(median(tracedColdRate), median(coldRate)));
        run.set("sweep.cold_run_s", median(coldRun));
        run.set("sweep.scenario_us", median(scenarioUs));
        run.set("sweep.warm_run_s", median(warmRun));
        run.set("sweep.result_hit_rate", median(hitRate));
        run.set("sweep.disk_preload_s", median(preload));
        run.set("backend.plan_build_s", median(planBuild));
        run.set("backend.scenario_eval_s", median(scenarioEval));
        run.set("backend.plan_hit_rate", median(planHit));
    }

    std::cout << "digest sweep-design: " << digest(firstCsv) << "\n";
}

} // namespace perfbench
