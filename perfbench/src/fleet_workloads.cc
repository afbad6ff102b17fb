/**
 * @file
 * fleet-balanced and fleet-skewed: a 64-pod fleet (32 DiVa + 32 OS)
 * replaying a seeded diurnal trace. fleet-balanced keeps every pod busy
 * under load-aware placement, so the parallel epoch loop, the placement
 * scan and result assembly carry the run. fleet-skewed is first-fit
 * with rebalancing on a light trace: one pod runs almost every step, so
 * its serial serve loop and the migration path set the time.
 * Operations are sessions.
 */

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <sstream>

#include "arrivals/generate.h"
#include "fleet/emit.h"
#include "fleet/engine.h"
#include "obs/slo.h"
#include "calib.h"
#include "paper.h"
#include "workloads.h"

using namespace diva;

namespace perfbench
{

namespace
{

struct FleetWorkload
{
    const char *name;
    /** Diurnal arrival rate (sessions per simulated second). */
    double rate;
    PlacementKind placement;
    bool rebalance;
    bool balanced;
};

ArrivalTrace
makeTrace(const FleetWorkload &w, std::uint64_t seed, int sessions)
{
    std::ostringstream spec;
    spec << "diurnal:rate=" << w.rate << ",horizon=86400,seed=" << seed
         << ",qos=2,cap=" << sessions;
    std::string err;
    const auto gen = parseTraceGenSpec(spec.str(), &err);
    if (!gen)
        throw std::runtime_error("trace spec: " + err);
    return generateTrace(*gen);
}

FleetSpec
makeFleet(const FleetWorkload &w)
{
    std::string err;
    const auto os = parsePodTemplate("df=OS,count=32", &err);
    if (!os)
        throw std::runtime_error("pod template: " + err);
    FleetSpec spec = buildFleet({defaultPodGroup(32), *os});
    spec.placement = w.placement;
    spec.rebalance.enabled = w.rebalance;
    if (w.rebalance)
        spec.controlIntervalSec = 600.0;
    return spec;
}

std::string
emitted(const FleetResult &r)
{
    std::ostringstream os;
    writeFleetPodCsv(os, r);
    writeFleetJson(os, r);
    return os.str();
}

bool
near(double a, double b)
{
    return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

struct Shape
{
    double busiestShare = 0.0;
    double maxOverMean = 0.0;
};

Shape
shapeOf(const FleetResult &r)
{
    std::uint64_t maxSteps = 0;
    std::uint64_t sum = 0;
    for (const FleetPodReport &p : r.pods) {
        maxSteps = std::max(maxSteps, p.stepsDone);
        sum += p.stepsDone;
    }
    Shape s;
    s.busiestShare = ratio(double(maxSteps), double(sum));
    s.maxOverMean =
        ratio(double(maxSteps) * double(r.pods.size()), double(sum));
    return s;
}

/** Every output check of one replay. */
void
checkFleet(Run &run, const FleetWorkload &w, const FleetResult &r,
           std::size_t sessions)
{
    run.ops.expect(r.ok(), "error: " + r.error);
    if (!r.ok())
        return;
    std::uint64_t podSteps = 0, tenantSteps = 0, tenantMig = 0;
    std::size_t migIn = 0, migOut = 0;
    double podJ = 0.0, tenantJ = 0.0;
    for (const FleetPodReport &p : r.pods) {
        podSteps += p.stepsDone;
        migIn += p.migratedIn;
        migOut += p.migratedOut;
        podJ += p.energyJ;
    }
    for (const FleetTenantMetrics &t : r.tenants) {
        tenantSteps += t.stepsDone;
        tenantMig += t.migrations;
        tenantJ += t.energyJ;
    }
    run.ops.expect(r.tenants.size() == sessions,
                   "tenant rows differ from sessions");
    run.ops.expect(r.totalSteps == podSteps && r.totalSteps == tenantSteps,
                   "totalSteps, pod steps and tenant steps differ");
    run.ops.expect(r.migrations == migIn && r.migrations == migOut &&
                       r.migrations == tenantMig,
                   "migrations differ from migrations in/out");
    run.ops.expect(near(r.totalEnergyJ, podJ) && near(r.totalEnergyJ, tenantJ),
                   "fleet, pod and tenant energies disagree");
    run.ops.expect(r.placedCount + r.rejectedCount == sessions,
                   "placed + rejected != sessions");
    const Shape s = shapeOf(r);
    if (w.balanced)
        run.ops.expect(s.maxOverMean <= 2.0,
                       "busiest pod runs " + std::to_string(s.maxOverMean) +
                           "x the mean steps (balanced needs <= 2)");
    else
        run.ops.expect(s.busiestShare >= 0.9,
                       "busiest pod runs " + std::to_string(s.busiestShare) +
                           " of steps (skewed needs >= 0.9)");
}

void
runFleet(Run &run, const FleetWorkload &w)
{
    const Options &opt = run.opt;
    const int sessions = opt.smoke ? 5000 : 100000;
    const std::string cacheDir = opt.workDir + "/fleet-cache";

    // Set-up: the trace and the fleet.
    std::vector<double> setups, generate;
    ArrivalTrace trace;
    FleetSpec spec;
    for (int i = 0; i < (opt.smoke ? 1 : 5); ++i) {
        const double scale = hostScale();
        const Clock::time_point t0 = Clock::now();
        trace = makeTrace(w, opt.seed, sessions);
        generate.push_back(since(t0));
        spec = makeFleet(w);
        setups.push_back(since(t0) / scale);
    }
    run.set("setup_s", median(setups));
    const std::size_t n = trace.jobs.size();
    std::cout << w.name << ": " << n << " sessions on " << spec.pods.size()
              << " pods, " << opt.threads << " threads\n";

    // A cold replay prices on a fresh runner without a disk store; a
    // warm one on a fresh runner over the store written here, before
    // timing, so no repetition writes files.
    auto replay = [&](bool warm, int threads, obs::RunTelemetry *tel) {
        SweepOptions o;
        o.threads = opt.threads;
        if (warm)
            o.cacheDir = cacheDir;
        SweepRunner runner(o);
        return simulateFleet(spec, trace, runner, threads, nullptr, tel);
    };
    resetDir(cacheDir);
    run.ops.begin(std::string(w.name) + " simulateFleet writing the store");
    checkFleet(run, w, replay(true, opt.threads, nullptr), n);
    // One replay's footprint, before repetitions fragment the heap.
    run.set("peak_rss_mb", peakRssMb());

    // Rates are normalised to the reference host (see hostScale).
    std::vector<double> coldRate, warmRate, tracedRate;
    std::vector<double> pricing, runS, placement, epochServe, epochs,
        controls, assemble, planBuild, scenarioEval;
    // What later checks and metrics need of the last cold replay; the
    // result itself is dropped before the next replay, so the harness
    // holds one replay at a time.
    std::string bytes;
    Shape shape;
    std::uint64_t migrations = 0, totalSteps = 0;
    std::size_t planHits = 0, planLookups = 0;
    serve_core::Counters counters;
    repeatFor(opt.seconds, minReps(opt), [&](int rep) {
        const bool traced = opt.trace && rep % 2 == 0;

        traceOn(traced);
        run.ops.begin(std::string(w.name) + " cold simulateFleet");
        const double coldScale = hostScale();
        Clock::time_point t0 = Clock::now();
        double coldSec = 0.0;
        {
            const FleetResult cold = replay(false, opt.threads, nullptr);
            coldSec = since(t0);
            checkFleet(run, w, cold, n);
            bytes = emitted(cold);
            shape = shapeOf(cold);
            migrations = cold.migrations;
            totalSteps = cold.totalSteps;
            planHits = cold.planHits;
            planLookups = cold.planHits + cold.planMisses;
            counters = cold.coreCounters;
        }
        const Phases ph = takePhases();

        traceOn(false);
        run.ops.begin(std::string(w.name) + " warm simulateFleet");
        const double warmScale = hostScale();
        t0 = Clock::now();
        const double warmSec = [&] {
            const FleetResult warm = replay(true, opt.threads, nullptr);
            const double sec = since(t0);
            checkFleet(run, w, warm, n);
            run.ops.expect(emitted(warm) == bytes,
                           "warm replay output differs from the cold one");
            return sec;
        }();

        if (traced) {
            tracedRate.push_back(coldScale * double(n) / coldSec);
            pricing.push_back(ph.seconds("fleet_pricing"));
            runS.push_back(ph.seconds("fleet_run"));
            placement.push_back(ph.seconds("placement"));
            epochServe.push_back(ph.seconds("epoch_serve"));
            epochs.push_back(double(ph.calls("epoch_serve")));
            controls.push_back(ph.seconds("fleet_controls"));
            assemble.push_back(ph.seconds("fleet_assemble"));
            planBuild.push_back(ph.seconds("plan_build"));
            scenarioEval.push_back(ph.seconds("scenario_eval"));
        } else {
            coldRate.push_back(coldScale * double(n) / coldSec);
            warmRate.push_back(warmScale * double(n) / warmSec);
        }
    });
    run.set("ops_per_s", median(coldRate));
    run.set("cached_ops_per_s", median(warmRate));
    std::cout << "cold sessions/s: " << describe(coldRate) << "\n"
              << "warm sessions/s: " << describe(warmRate) << "\n";

    // The same replay on one epoch worker must emit the same bytes.
    traceOn(opt.trace);
    run.ops.begin(std::string(w.name) + " 1-worker simulateFleet");
    {
        const FleetResult serial = replay(true, 1, nullptr);
        checkFleet(run, w, serial, n);
        run.ops.expect(emitted(serial) == bytes,
                       "pod CSV + fleet JSON differ between " +
                           std::to_string(opt.threads) + " workers and 1");
    }
    const Phases serialPhases = takePhases();
    traceOn(false);
    std::cout << "digest " << w.name << ": " << digest(bytes) << "\n";
    std::cout << w.name << ": busiest pod " << shape.maxOverMean
              << "x the mean steps, " << shape.busiestShare
              << " of all steps; " << migrations << " migrations\n";

    if (opt.trace) {
        const double epochN = median(epochServe);
        run.set("bench.trace_overhead_frac",
                1.0 - ratio(median(tracedRate), median(coldRate)));
        run.set("arrivals.generate_s", median(generate));
        run.set("backend.plan_build_s", median(planBuild));
        run.set("backend.scenario_eval_s", median(scenarioEval));
        run.set("backend.plan_hit_rate",
                ratio(double(planHits), double(planLookups)));
        run.set("fleet.pricing_s", median(pricing));
        run.set("fleet.run_s", median(runS));
        run.set("fleet.placement_ns_per_arrival",
                median(placement) * 1e9 / double(n));
        run.set("fleet.epoch_serve_s", epochN);
        run.set("fleet.epochs", median(epochs));
        run.set("fleet.parallel_efficiency",
                ratio(ratio(serialPhases.seconds("epoch_serve"), epochN),
                      run.values["host.effective_cores"]));
        run.set("fleet.controls_s", median(controls));
        run.set("fleet.migrations", double(migrations));
        run.set("fleet.assemble_s", median(assemble));
        run.set("fleet.assemble_ns_per_step",
                median(assemble) * 1e9 / double(totalSteps));
        run.set("fleet.busiest_pod_step_share", shape.busiestShare);
        run.set("fleet.pod_steps_max_over_mean", shape.maxOverMean);
        const serve_core::Counters &c = counters;
        run.set("serve_core.events", double(c.events()));
        run.set("serve_core.ns_per_event",
                epochN * 1e9 / double(c.events()));
        run.set("serve_core.coalesced_frac",
                ratio(double(c.coalescedQuanta),
                      double(c.dispatches + c.coalescedQuanta)));
        run.set("serve_core.idle_jump_frac",
                ratio(double(c.idleJumps), double(c.events())));

        // Telemetry cost: warm replays with obs::RunTelemetry off and
        // on (auto window, global and per-priority SLO targets),
        // interleaved so drift hits both sides alike.
        std::vector<double> off, on;
        for (int i = 0; i < (opt.smoke ? 1 : 3); ++i) {
            run.ops.begin(std::string(w.name) + " telemetry off/on");
            Clock::time_point t0 = Clock::now();
            const FleetResult a = replay(true, opt.threads, nullptr);
            off.push_back(double(n) / since(t0));
            obs::RunTelemetry tel;
            std::string err;
            run.ops.expect(obs::parseSloSpec("0.5,1:0.25", &tel.slo, &err),
                           "SLO spec: " + err);
            t0 = Clock::now();
            const FleetResult b = replay(true, opt.threads, &tel);
            on.push_back(double(n) / since(t0));
            run.ops.expect(a.ok() && b.ok() && emitted(a) == emitted(b),
                           "telemetry changed the fleet output");
        }
        run.set("obs.overhead_frac", 1.0 - ratio(median(on), median(off)));
    }
    std::filesystem::remove_all(cacheDir);
}

} // namespace

void
fleetBalanced(Run &run)
{
    runFleet(run, {"fleet-balanced", 800.0, PlacementKind::kLoadAware,
                   false, true});
}

void
fleetSkewed(Run &run)
{
    runFleet(run, {"fleet-skewed", 12.0, PlacementKind::kFirstFit, true,
                   false});
}

} // namespace perfbench
