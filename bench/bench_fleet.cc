/**
 * @file
 * Fleet-engine throughput benchmark: replays generated diurnal traces
 * on 8- and 64-pod fleets (load-aware placement, rebalance on) and
 * reports how fast the engine chews through sessions. It writes
 * BENCH_fleet.json (path overridable with --out) -- sessions/sec,
 * serve-core events/sec, migrations/sec and the isolated-cost
 * plan-cache hit rate per fleet size -- so CI can track the fleet perf
 * trajectory.
 *
 * A thread-scaling sweep (threads 1/2/4/8 at 8 and 64 pods) emits one
 * "scale_p<pods>_t<threads>" row per point, so the regression harness
 * catches scaling regressions (a serialized pool, a contended lock)
 * and not just single-point throughput drift.  An "obs_overhead_p64"
 * row times the 64-pod replay with the windowed telemetry + SLO layer
 * off and on; ci/check_bench.py gates the fractional cost at 5%.
 * `bench_fleet --help` lists the flags.
 */

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "arrivals/generate.h"
#include "bench_util.h"
#include "common/format.h"
#include "common/table.h"
#include "fleet/engine.h"
#include "obs/slo.h"

using namespace diva;

namespace
{

std::vector<PodSpec>
osPodGroup(int n)
{
    std::string err;
    const auto group =
        parsePodTemplate("df=OS,count=" + std::to_string(n), &err);
    if (!group) {
        std::cerr << "bench_fleet: " << err << "\n";
        std::exit(1);
    }
    return *group;
}

ArrivalTrace
diurnalTrace(int sessions)
{
    std::string err;
    const auto gen = parseTraceGenSpec(
        "diurnal:rate=12,horizon=86400,seed=3,qos=2,cap=" +
            std::to_string(sessions),
        &err);
    if (!gen) {
        std::cerr << "bench_fleet: " << err << "\n";
        std::exit(1);
    }
    return generateTrace(*gen);
}

FleetSpec
fleetOf(int pods)
{
    // Half DiVa, half OS pods: the two types price every job class
    // separately but share its workload plan, so the plan cache gets
    // real traffic. First-fit stacks arrivals on the low pods until
    // the rebalance loop drags the skew back down, so migrations/sec
    // measures the migration machinery rather than rounding to zero.
    FleetSpec spec =
        buildFleet({defaultPodGroup(pods - pods / 2),
                    osPodGroup(pods / 2)});
    spec.placement = PlacementKind::kFirstFit;
    spec.rebalance.enabled = true;
    spec.controlIntervalSec = 600.0;
    return spec;
}

/** Epoch workers when --threads is absent: what the machine has. */
int
autoThreads()
{
    const unsigned hc = std::thread::hardware_concurrency();
    return hc > 0 ? int(hc) : 1;
}

/** One replay, timed; returns the throughput figures for the JSON. */
struct ReplayFigures
{
    std::string mode; // non-empty for thread-scaling sweep rows
    int pods = 0;
    int threads = 0;
    std::size_t sessions = 0;
    double sessionsPerSec = 0.0;
    double eventsPerSec = 0.0;
    double migrationsPerSec = 0.0;
    double planHitRate = 0.0;
    /** Set (>= 0) only on the obs_overhead row: the same replay with
     *  full telemetry on, and the fractional throughput cost. */
    double obsSessionsPerSec = -1.0;
    double obsOverheadFrac = -1.0;
};

ReplayFigures
timeReplay(int pods, int sessions, SweepRunner &runner, int threads)
{
    const ArrivalTrace trace = diurnalTrace(sessions);
    const FleetSpec spec = fleetOf(pods);

    const auto t0 = std::chrono::steady_clock::now();
    const FleetResult r = simulateFleet(spec, trace, runner, threads);
    const auto t1 = std::chrono::steady_clock::now();
    const double sec = std::chrono::duration<double>(t1 - t0).count();

    if (!r.ok()) {
        std::cerr << "bench_fleet: " << r.error << "\n";
        std::exit(1);
    }
    ReplayFigures f;
    f.pods = pods;
    f.threads = threads;
    f.sessions = trace.jobs.size();
    f.sessionsPerSec = double(trace.jobs.size()) / sec;
    f.eventsPerSec = double(r.coreCounters.events()) / sec;
    f.migrationsPerSec = double(r.migrations) / sec;
    const double lookups = double(r.planHits + r.planMisses);
    f.planHitRate = lookups > 0.0 ? double(r.planHits) / lookups : 0.0;
    return f;
}

/**
 * Telemetry overhead on the 64-pod replay: the same warm-cache run
 * timed with the windowed-telemetry layer off and on (auto window,
 * global + per-priority SLO targets, i.e. every per-step hook live).
 * Best-of-5 each way, with the off/on pairs interleaved, so scheduler
 * noise and clock drift do not masquerade as overhead;
 * ci/check_bench.py gates obs_overhead_frac at 5%.
 */
ReplayFigures
timeObsOverhead(int pods, int sessions, int threads)
{
    const ArrivalTrace trace = diurnalTrace(sessions);
    const FleetSpec spec = fleetOf(pods);
    SweepOptions opts;
    opts.threads = threads;
    SweepRunner runner(opts);

    auto timeOne = [&](bool telemetryOn) {
        obs::RunTelemetry tel;
        if (telemetryOn) {
            std::string err;
            if (!obs::parseSloSpec("0.5,1:0.25", &tel.slo, &err)) {
                std::cerr << "bench_fleet: " << err << "\n";
                std::exit(1);
            }
        }
        const auto t0 = std::chrono::steady_clock::now();
        const FleetResult r =
            simulateFleet(spec, trace, runner, threads, nullptr,
                          telemetryOn ? &tel : nullptr);
        const auto t1 = std::chrono::steady_clock::now();
        if (!r.ok()) {
            std::cerr << "bench_fleet: " << r.error << "\n";
            std::exit(1);
        }
        return double(trace.jobs.size()) /
               std::chrono::duration<double>(t1 - t0).count();
    };

    // Warm the plan cache so both timed sides price identically, then
    // interleave the off/on pairs so clock drift (turbo decay, a
    // noisy neighbor) hits both sides equally instead of whichever
    // batch ran second.
    simulateFleet(spec, trace, runner, threads);
    double off = 0.0;
    double on = 0.0;
    for (int i = 0; i < 7; ++i) {
        off = std::max(off, timeOne(false));
        on = std::max(on, timeOne(true));
    }

    ReplayFigures f;
    f.mode = "obs_overhead_p" + std::to_string(pods);
    f.pods = pods;
    f.threads = threads;
    f.sessions = trace.jobs.size();
    f.sessionsPerSec = off;
    f.obsSessionsPerSec = on;
    f.obsOverheadFrac = std::max(0.0, 1.0 - on / off);
    return f;
}

void
writeFleetJson(const std::string &path,
               const std::vector<ReplayFigures> &figures)
{
    std::vector<std::string> rows;
    for (const ReplayFigures &f : figures) {
        std::ostringstream row;
        row << "{";
        if (!f.mode.empty())
            row << "\"mode\": \"" << f.mode << "\", ";
        row << "\"pods\": " << f.pods
            << ", \"threads\": " << f.threads
            << ", \"sessions\": " << f.sessions
            << ", \"sessions_per_sec\": " << jsonNumber(f.sessionsPerSec)
            << ", \"events_per_sec\": " << jsonNumber(f.eventsPerSec)
            << ", \"migrations_per_sec\": "
            << jsonNumber(f.migrationsPerSec)
            << ", \"plan_cache_hit_rate\": " << jsonNumber(f.planHitRate);
        if (f.obsSessionsPerSec >= 0.0)
            row << ", \"obs_sessions_per_sec\": "
                << jsonNumber(f.obsSessionsPerSec)
                << ", \"obs_overhead_frac\": "
                << jsonNumber(f.obsOverheadFrac);
        row << "}";
        rows.push_back(row.str());
    }
    benchutil::writeBenchJson(
        path, "fleet",
        {{"mode", "row key (sweep / obs-overhead rows only)"},
         {"pods", "count"},
         {"threads", "epoch workers"},
         {"sessions", "count"},
         {"sessions_per_sec", "sessions replayed per wall-clock second"},
         {"events_per_sec",
          "serve-core events processed per wall-clock second"},
         {"migrations_per_sec", "migrations per wall-clock second"},
         {"plan_cache_hit_rate", "fraction in [0,1]"},
         {"obs_sessions_per_sec",
          "same replay with full windowed telemetry + SLO monitoring"},
         {"obs_overhead_frac",
          "1 - obs_sessions_per_sec / sessions_per_sec, gated <= 0.05"}},
        "fleets", rows);
}

void
addTableRow(TextTable &table, const ReplayFigures &f)
{
    table.addRow({f.mode.empty() ? std::string("-") : f.mode,
                  std::to_string(f.pods), std::to_string(f.threads),
                  std::to_string(f.sessions),
                  TextTable::fmt(f.sessionsPerSec, 0),
                  TextTable::fmt(f.eventsPerSec, 0),
                  TextTable::fmt(f.migrationsPerSec, 1),
                  TextTable::fmt(f.planHitRate, 3)});
}

void
printFleetThroughput(const std::string &outPath, int threads,
                     int sessions, bool scaling)
{
    std::cout << "=== fleet replay throughput (diurnal trace, "
                 "first-fit placement, rebalance on) ===\n";
    TextTable table({"mode", "pods", "threads", "sessions",
                     "sessions/s", "events/s", "migrations/s",
                     "plan hit rate"});
    std::vector<ReplayFigures> figures;
    for (int pods : {8, 64}) {
        // A fresh runner per fleet size keeps the hit rate a
        // self-contained property of one replay's pricing instead of
        // whatever earlier replays happened to warm.
        SweepOptions opts;
        opts.threads = threads;
        SweepRunner runner(opts);
        const ReplayFigures f =
            timeReplay(pods, sessions, runner, threads);
        figures.push_back(f);
        addTableRow(table, f);
    }
    if (scaling) {
        // The scaling sweep reports how the *same* replay responds to
        // the worker count.  The simulated outcome is identical at
        // every point (the regression harness only reads the rates);
        // what moves is wall-clock, so a pool serialization or a
        // contended stripe shows up as a flat or inverted curve.
        for (int pods : {8, 64})
            for (int t : {1, 2, 4, 8}) {
                SweepOptions opts;
                opts.threads = t;
                SweepRunner runner(opts);
                ReplayFigures f = timeReplay(pods, sessions, runner, t);
                f.mode = "scale_p" + std::to_string(pods) + "_t" +
                         std::to_string(t);
                figures.push_back(f);
                addTableRow(table, f);
            }
    }
    table.print(std::cout);

    // Telemetry cost on the big fleet (warm cache, best of 3/side).
    const ReplayFigures obs = timeObsOverhead(64, sessions, threads);
    figures.push_back(obs);
    std::cout << "\ntelemetry overhead @" << obs.pods << " pods: off="
              << TextTable::fmt(obs.sessionsPerSec, 0)
              << " sessions/s, on="
              << TextTable::fmt(obs.obsSessionsPerSec, 0)
              << " sessions/s, overhead="
              << TextTable::fmt(obs.obsOverheadFrac * 100.0, 2)
              << "%\n";

    writeFleetJson(outPath, figures);
    std::cout << "\nwrote " << outPath << "\n\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out = "BENCH_fleet.json";
    int threads = autoThreads();
    int sessions = 200000;
    bool scaling = true;
    const cli::FlagTable flags = {
        {"Options",
         {benchutil::outFlag(out),
          {"--threads", "N",
           "epoch workers for the headline rows (default: the machine's "
           "hardware concurrency)",
           cli::set(threads, cli::integer(1, 1024))},
          {"--sessions", "N", "sessions per replay (default 200000)",
           cli::set(sessions, cli::integer(1))},
          {"--no-scaling", "", "skip the thread-scaling sweep",
           cli::toggle(scaling, false)}}}};
    if (const auto rc = cli::parseArgs("bench_fleet", argc, argv, flags))
        return *rc;
    // Collect phase timings across the artifact runs; writeBenchJson
    // folds them into the envelope's "profile" object.
    obs::Profiler::instance().enable(true);
    printFleetThroughput(out, threads, sessions, scaling);
    return 0;
}
