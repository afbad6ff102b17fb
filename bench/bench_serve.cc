/**
 * @file
 * Serve-core throughput benchmark: drives the shared event-driven
 * scheduling core (src/serve_core/) through runServeLoop with
 * synthetic per-tenant iteration costs, so it times the scheduler
 * itself rather than the cost-pricing pipeline. Three mixes cover the
 * core's regimes: round-robin time slicing (dispatch-heavy), FIFO
 * run-to-completion (coalescing-heavy) and open-loop EDF replay under
 * rate targets (gate/idle-jump-heavy). It writes BENCH_serve.json
 * (path overridable with --out) -- steps/sec, serve-core events/sec and
 * the coalesced-quanta ratio per mix -- so CI can track the serve perf
 * trajectory.
 */

#include <chrono>
#include <iostream>
#include <sstream>
#include <string>

#include "bench_util.h"
#include "common/format.h"
#include "common/table.h"
#include "tenant/serve.h"

using namespace diva;

namespace
{

constexpr int kTenants = 96;
constexpr std::uint64_t kStepsEach = 20000;

/**
 * Deterministic synthetic cost: ~1 ms iterations with a per-tenant
 * spread so no two tenants stay phase-locked (phase-locked quanta
 * would under-count the promotion/preemption paths).
 */
std::vector<IterationCost>
syntheticCosts(std::size_t n)
{
    std::vector<IterationCost> costs(n);
    for (std::size_t i = 0; i < n; ++i) {
        costs[i].seconds = 0.0008 + 0.0001 * double(i % 7);
        costs[i].energyJ = 0.5;
        costs[i].dramBytes = Bytes(1) << 20;
        costs[i].cycles = 1000000;
        costs[i].resolvedBatch = 32;
    }
    return costs;
}

SwitchCost
syntheticSwitch()
{
    SwitchCost sw;
    sw.seconds = 0.0005;
    sw.energyJ = 0.05;
    sw.dramBytes = Bytes(1) << 22;
    return sw;
}

ServeSpec
specOf(SchedPolicy policy, bool openLoop, double ratePerTenant,
       double arriveEverySec)
{
    ServeSpec spec;
    spec.workload =
        defaultWorkload(kTenants, kStepsEach, 32, arriveEverySec);
    if (ratePerTenant > 0.0)
        for (TenantJob &job : spec.workload.jobs)
            job.qosStepsPerSec = ratePerTenant;
    spec.policy = policy;
    spec.opts.quantumIters = 8;
    spec.opts.openLoop = openLoop;
    return spec;
}

struct ServeFigures
{
    std::string mode;
    std::size_t tenants = 0;
    std::uint64_t stepsDone = 0;
    double stepsPerSec = 0.0;
    double eventsPerSec = 0.0;
    double coalescedRatio = 0.0;
};

ServeFigures
timeServe(const std::string &mode, const ServeSpec &spec)
{
    const std::vector<IterationCost> costs =
        syntheticCosts(spec.workload.jobs.size());
    const SwitchCost sw = syntheticSwitch();

    const auto t0 = std::chrono::steady_clock::now();
    const ServeResult r = runServeLoop(spec, costs, sw);
    const auto t1 = std::chrono::steady_clock::now();
    const double sec = std::chrono::duration<double>(t1 - t0).count();

    if (!r.ok()) {
        std::cerr << "bench_serve: " << r.error << "\n";
        std::exit(1);
    }
    ServeFigures f;
    f.mode = mode;
    f.tenants = spec.workload.jobs.size();
    f.stepsDone = r.coreCounters.steps;
    f.stepsPerSec = double(r.coreCounters.steps) / sec;
    f.eventsPerSec = double(r.coreCounters.events()) / sec;
    const double quanta =
        double(r.coreCounters.dispatches + r.coreCounters.coalescedQuanta);
    f.coalescedRatio =
        quanta > 0.0 ? double(r.coreCounters.coalescedQuanta) / quanta
                     : 0.0;
    return f;
}

void
writeServeJson(const std::string &path,
               const std::vector<ServeFigures> &figures)
{
    std::vector<std::string> rows;
    for (const ServeFigures &f : figures) {
        std::ostringstream row;
        row << "{\"mode\": \"" << f.mode << "\""
            << ", \"tenants\": " << f.tenants
            << ", \"steps_done\": " << f.stepsDone
            << ", \"steps_per_sec\": " << jsonNumber(f.stepsPerSec)
            << ", \"events_per_sec\": " << jsonNumber(f.eventsPerSec)
            << ", \"coalesced_quanta_ratio\": "
            << jsonNumber(f.coalescedRatio) << "}";
        rows.push_back(row.str());
    }
    benchutil::writeBenchJson(
        path, "serve",
        {{"tenants", "count"},
         {"steps_done", "count"},
         {"steps_per_sec",
          "simulated training steps scheduled per wall-clock second"},
         {"events_per_sec",
          "serve-core events processed per wall-clock second"},
         {"coalesced_quanta_ratio",
          "fraction in [0,1] of quantum expiries absorbed without a "
          "scheduler round trip"}},
        "serves", rows);
}

void
printServeThroughput(const std::string &outPath)
{
    std::cout << "=== serve-core scheduling throughput (" << kTenants
              << " tenants x " << kStepsEach
              << " steps, synthetic ~1 ms iterations) ===\n";
    TextTable table({"mode", "tenants", "steps", "steps/s", "events/s",
                     "coalesced"});
    std::vector<ServeFigures> figures;
    const struct
    {
        const char *mode;
        SchedPolicy policy;
        bool openLoop;
        double rate;
        double arriveEverySec;
    } mixes[] = {
        // Dense arrivals + time slicing: the ready set is never
        // empty, so every quantum expiry is a scheduler round trip.
        {"closed-rr", SchedPolicy::kRoundRobin, false, 0.0, 0.5},
        // Sparse arrivals (each tenant finishes before the next shows
        // up) run alone, so quanta coalesce into multi-quantum
        // advances; this mode bounds the coalescing win.
        {"closed-fifo-sparse", SchedPolicy::kFifo, false, 0.0, 25.0},
        // Open-loop trace replay at 2 steps/s per tenant: the engine
        // is mostly idle, so gates, promotions and idle jumps carry
        // the run instead of back-to-back dispatches.
        {"open-edf", SchedPolicy::kEdf, true, 2.0, 0.5},
    };
    for (const auto &mix : mixes) {
        const ServeFigures f = timeServe(
            mix.mode, specOf(mix.policy, mix.openLoop, mix.rate,
                             mix.arriveEverySec));
        figures.push_back(f);
        table.addRow({f.mode, std::to_string(f.tenants),
                      std::to_string(f.stepsDone),
                      TextTable::fmt(f.stepsPerSec, 0),
                      TextTable::fmt(f.eventsPerSec, 0),
                      TextTable::fmt(f.coalescedRatio, 3)});
    }
    table.print(std::cout);
    writeServeJson(outPath, figures);
    std::cout << "\nwrote " << outPath << "\n\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out = "BENCH_serve.json";
    if (const auto rc = cli::parseArgs("bench_serve", argc, argv,
                                       {{"Output", {benchutil::outFlag(out)}}}))
        return *rc;
    // Collect phase timings across the artifact runs; writeBenchJson
    // folds them into the envelope's "profile" object.
    obs::Profiler::instance().enable(true);
    printServeThroughput(out);
    return 0;
}
