/**
 * @file
 * tenant-mix: one DiVa accelerator time-shared by many training
 * tenants through src/tenant/, with per-step costs priced through the
 * paper model. Two serves per repetition: a dense closed-loop
 * round-robin mix (dispatch-heavy) and an open-loop EDF replay of a
 * seeded Poisson trace (gate- and idle-jump-heavy). No fleet code runs.
 * Operations are simulated training steps.
 */

#include <cmath>
#include <filesystem>
#include <iostream>
#include <sstream>

#include "arrivals/generate.h"
#include "arrivals/replay.h"
#include "calib.h"
#include "tenant/emit.h"
#include "tenant/serve.h"
#include "workloads.h"

using namespace diva;

namespace perfbench
{

namespace
{

ArrivalTrace
makeTrace(const std::string &spec)
{
    std::string err;
    const auto gen = parseTraceGenSpec(spec, &err);
    if (!gen)
        throw std::runtime_error("trace spec: " + err);
    return generateTrace(*gen);
}

struct Inputs
{
    /** Dense closed-loop round-robin mix. */
    ServeSpec closedRr;
    /** Open-loop EDF replay. */
    ReplaySpec openEdf;
};

Inputs
makeInputs(std::uint64_t seed, bool smoke)
{
    const int tenants = smoke ? 8 : 96;
    std::ostringstream dense, open;
    // Arrivals 20 ms apart on average against ~ms steps: the ready set
    // is never empty, so every quantum is a scheduler round trip.
    dense << "poisson:rate=50,horizon=100000,seed=" << seed
          << ",cap=" << tenants << ",steps=" << (smoke ? 200 : 12000);
    // Two steps per second per tenant: the engine idles between due
    // steps, so gates, promotions and idle jumps carry the loop.
    open << "poisson:rate=0.5,horizon=100000,seed=" << seed + 1
         << ",cap=" << tenants << ",steps=" << (smoke ? 100 : 2000)
         << ",qos=2";

    Inputs in;
    in.closedRr.workload = makeTrace(dense.str()).workload();
    in.closedRr.config = divaDefault(true);
    in.closedRr.policy = SchedPolicy::kRoundRobin;
    in.closedRr.opts.quantumIters = 8;
    in.openEdf.trace = makeTrace(open.str());
    in.openEdf.config = divaDefault(true);
    in.openEdf.policy = SchedPolicy::kEdf;
    in.openEdf.opts.quantumIters = 8;
    return in;
}

/** The serve replayTrace runs for `spec` (no admission control). */
ServeSpec
serveOf(const ReplaySpec &spec)
{
    ServeSpec s;
    s.workload = spec.trace.workload();
    s.config = spec.config;
    s.chips = spec.chips;
    s.pod = spec.pod;
    s.policy = spec.policy;
    s.backends = spec.backends;
    s.opts = spec.opts;
    s.opts.openLoop = true;
    return s;
}

std::string
emitted(const std::vector<ServeResult> &serves)
{
    std::ostringstream os;
    writeServeCsv(os, serves);
    return os.str();
}

void
checkServe(Run &run, const ServeResult &r, std::size_t tenants)
{
    run.ops.expect(r.ok(), "error: " + r.error);
    if (!r.ok())
        return;
    double energy = 0.0;
    std::uint64_t steps = 0;
    bool allDone = true;
    for (const TenantMetrics &t : r.tenants) {
        energy += t.energyJ;
        steps += t.stepsDone;
        allDone = allDone && t.admitted && t.completed;
    }
    run.ops.expect(r.tenants.size() == tenants,
                   "tenant rows differ from the workload");
    run.ops.expect(std::fabs(energy - r.totalEnergyJ) <=
                       1e-9 * std::max(1.0, std::fabs(r.totalEnergyJ)),
                   "tenant energies do not sum to totalEnergyJ");
    run.ops.expect(steps == r.coreCounters.steps,
                   "tenant steps differ from the serve core's steps");
    run.ops.expect(allDone, "a tenant was not admitted or did not complete");
}

} // namespace

void
tenantMix(Run &run)
{
    const Options &opt = run.opt;
    const std::string dirA = opt.workDir + "/tenant-cache-rr";
    const std::string dirB = opt.workDir + "/tenant-cache-edf";

    std::vector<double> setups, generate;
    Inputs in;
    // Set-up (generating both traces) takes well under a millisecond,
    // so it runs many times for a steady median.
    for (int i = 0; i < (opt.smoke ? 1 : 15); ++i) {
        const double scale = hostScale();
        const Clock::time_point t0 = Clock::now();
        in = makeInputs(opt.seed, opt.smoke);
        generate.push_back(since(t0));
        setups.push_back(generate.back() / scale);
    }
    run.set("setup_s", median(setups));
    const std::size_t nA = in.closedRr.workload.jobs.size();
    const std::size_t nB = in.openEdf.trace.jobs.size();
    std::cout << "tenant-mix: closed-loop RR over " << nA
              << " tenants, open-loop EDF replay of " << nB
              << " sessions, " << opt.threads << " pricing threads\n";

    // Cold serves price on a fresh runner without a disk store; warm
    // ones on a fresh runner over a store written here, before timing,
    // so no repetition writes files.
    auto opts = [&](bool warm, const std::string &dir) {
        SweepOptions o;
        o.threads = opt.threads;
        if (warm)
            o.cacheDir = dir;
        return o;
    };
    auto serveA = [&](bool warm) {
        SweepRunner runner(opts(warm, dirA));
        return simulateServe(in.closedRr, runner);
    };
    auto serveB = [&](bool warm) {
        SweepRunner runner(opts(warm, dirB));
        return replayTrace(in.openEdf, runner);
    };
    resetDir(dirA);
    resetDir(dirB);
    run.ops.begin("simulateServe writing the store");
    checkServe(run, serveA(true), nA);
    run.ops.begin("replayTrace writing the store");
    checkServe(run, serveB(true), nB);
    // Both serves' footprint, before repetitions fragment the heap.
    run.set("peak_rss_mb", peakRssMb());

    // Rates are normalised to the reference host (see hostScale).
    std::vector<double> coldRate, warmRate, tracedRate, planBuild,
        scenarioEval;
    std::string firstBytes;
    std::vector<ServeResult> last;
    repeatFor(opt.seconds, minReps(opt), [&](int rep) {
        const bool traced = opt.trace && rep % 2 == 0;
        for (bool warmPass : {false, true}) {
            traceOn(traced && !warmPass);
            const char *kind = warmPass ? "warm " : "cold ";
            run.ops.begin(std::string(kind) + "simulateServe (closed RR)");
            const double scale = hostScale();
            Clock::time_point t0 = Clock::now();
            ServeResult a = serveA(warmPass);
            double sec = since(t0);
            checkServe(run, a, nA);
            run.ops.begin(std::string(kind) + "replayTrace (open EDF)");
            t0 = Clock::now();
            ServeResult b = serveB(warmPass);
            sec += since(t0);
            checkServe(run, b, nB);
            const Phases ph = takePhases();
            traceOn(false);

            const double rate = scale *
                double(a.coreCounters.steps + b.coreCounters.steps) / sec;
            std::vector<ServeResult> both{std::move(a), std::move(b)};
            const std::string bytes = emitted(both);
            if (firstBytes.empty())
                firstBytes = bytes;
            run.ops.expect(bytes == firstBytes,
                           "serve CSV differs between repetitions");
            if (warmPass) {
                if (!traced)
                    warmRate.push_back(rate);
            } else if (traced) {
                tracedRate.push_back(rate);
                planBuild.push_back(ph.seconds("plan_build"));
                scenarioEval.push_back(ph.seconds("scenario_eval"));
            } else {
                coldRate.push_back(rate);
            }
            last = std::move(both);
        }
    });
    run.set("ops_per_s", median(coldRate));
    run.set("cached_ops_per_s", median(warmRate));
    std::cout << "cold steps/s: " << describe(coldRate) << "\n"
              << "warm steps/s: " << describe(warmRate) << "\n";
    std::cout << "digest tenant-mix: " << digest(firstBytes) << "\n";

    if (opt.trace) {
        run.set("bench.trace_overhead_frac",
                1.0 - ratio(median(tracedRate), median(coldRate)));
        run.set("arrivals.generate_s", median(generate));
        run.set("backend.plan_build_s", median(planBuild));
        run.set("backend.scenario_eval_s", median(scenarioEval));

        // The tenant layer split from outside: price the isolated
        // costs on a fresh runner, then run the scheduling loop over
        // them; together they must reproduce the serves' bytes.
        const ServeSpec specs[] = {in.closedRr, serveOf(in.openEdf)};
        std::vector<double> pricing, loop, hit;
        for (int i = 0; i < (opt.smoke ? 1 : 3); ++i) {
            double pricingSec = 0.0, loopSec = 0.0;
            std::size_t hits = 0, lookups = 0;
            std::vector<ServeResult> split;
            for (const ServeSpec &spec : specs) {
                run.ops.begin("isolatedCosts + runServeLoop");
                SweepOptions o;
                o.threads = opt.threads;
                SweepRunner runner(o);
                std::string err;
                Clock::time_point t0 = Clock::now();
                const std::vector<IterationCost> costs =
                    isolatedCosts(spec, runner, &err);
                pricingSec += since(t0);
                run.ops.expect(err.empty(), "isolatedCosts: " + err);
                const auto stats = runner.planCache().stats();
                hits += stats.hits();
                lookups += stats.hits() + stats.misses();
                const ContextSwitchModel sw(spec.config, spec.chips);
                t0 = Clock::now();
                split.push_back(runServeLoop(spec, costs, sw.cost()));
                loopSec += since(t0);
                checkServe(run, split.back(), spec.workload.jobs.size());
            }
            run.ops.expect(emitted(split) == firstBytes,
                           "isolatedCosts + runServeLoop differ from the "
                           "serves");
            pricing.push_back(pricingSec);
            loop.push_back(loopSec);
            hit.push_back(ratio(double(hits), double(lookups)));
        }
        serve_core::Counters c = last[0].coreCounters;
        c += last[1].coreCounters;
        const double loopSec = median(loop);
        run.set("tenant.pricing_s", median(pricing));
        run.set("tenant.loop_s", loopSec);
        run.set("backend.plan_hit_rate", median(hit));
        run.set("serve_core.events", double(c.events()));
        run.set("serve_core.ns_per_event", loopSec * 1e9 / double(c.events()));
        run.set("serve_core.coalesced_frac",
                ratio(double(c.coalescedQuanta),
                      double(c.dispatches + c.coalescedQuanta)));
        run.set("serve_core.idle_jump_frac",
                ratio(double(c.idleJumps), double(c.events())));
    }
    std::filesystem::remove_all(dirA);
    std::filesystem::remove_all(dirB);
}

} // namespace perfbench
