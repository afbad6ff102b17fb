/**
 * @file
 * diva_fleet: datacenter-scale fleet simulator driver.
 *
 * Replays an arrival trace (generated with --arrivals or recorded with
 * --trace) across a fleet of N pods -- each an independent time-shared
 * serve instance, heterogeneous fleets mixing dataflows, chip counts
 * and interconnects via repeated --pod templates -- under a
 * cluster-level placement policy, optional tenant migration on load
 * skew, and an optional fleet energy budget, then reports per-pod and
 * per-tenant utilization, energy share, QoS attainment, migration
 * counts/costs and p50/p95/p99 step latency.
 *
 * Per-(pod type, tenant class) isolated costs are ordinary sweep
 * scenarios run through the sweep engine, so --threads parallelizes
 * them and --cache-dir shares the persistent result cache with
 * diva_sweep/diva_serve. All fleet output on stdout (or --csv /
 * --pod-csv / --json files) is a pure function of the spec: --threads
 * N and warm-cache reruns are byte-identical. Progress and cache
 * accounting go to stderr.
 *
 * The flags are declared once, in flagTable(): the argv driver
 * (common/cli.h) parses them and prints --help from the same rows.
 */

#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "arrivals/generate.h"
#include "common/cli.h"
#include "common/format.h"
#include "common/logging.h"
#include "common/table.h"
#include "fleet/emit.h"
#include "fleet/engine.h"
#include "obs/cli.h"
#include "obs/profile.h"
#include "sweep/disk_cache.h"
#include "sweep/runner.h"

using namespace diva;

namespace
{

constexpr const char *kTool = "diva_fleet";

struct Args
{
    int pods = 8;
    std::vector<std::string> podSpecs;
    std::string arrivalsSpec;
    std::string tracePath;
    std::string saveTracePath;
    /** Policy, placement, rebalance, budget and serving knobs. */
    FleetSpec fleet;
    double rebalanceEvery = 0.0;
    SweepOptions runner;
    bool quiet = false;
    bool summary = true;
    std::string podCsvPath;
    std::string csvPath;
    std::string jsonPath;
    bool jsonTenants = false;
    bool verbose = false;
    obs::CliObs obs;
};

cli::FlagTable
flagTable(Args &args)
{
    FleetSpec &f = args.fleet;
    return {
        {"Fleet shape",
         {{"--pods", "N", "N identical single-chip DiVa pods (default 8)",
           cli::set(args.pods, cli::integer(1, 65536))},
          {"--pod", "SPEC",
           "add a pod group; SPEC is key=value pairs: df=WS|OS|DiVa, "
           "ppu=on|off, chips=N, count=N, ici-gbs=G, link-lat=C -- e.g. "
           "df=OS,chips=4,count=16. Repeat for a heterogeneous fleet "
           "(replaces --pods)",
           [&args](const std::string &v) {
               args.podSpecs.push_back(v);
               return std::string();
           }}}},
        {"Arrival trace (open-loop replay drives the fleet)",
         {{"--arrivals", "SPEC",
           "generate a seeded arrival trace: kind[:key=val,...], kind "
           "poisson|onoff|diurnal, keys rate, horizon, seed, cap, on, "
           "off, peak, steps, batch, qos, hold, prios -- e.g. "
           "diurnal:rate=40,horizon=64,seed=1 (default "
           "diurnal:rate=4,horizon=16,seed=1)",
           cli::text(args.arrivalsSpec)},
          {"--trace", "FILE",
           "replay a recorded trace (.csv, or .jsonl/.json with one "
           "object per line)",
           cli::text(args.tracePath)},
          {"--save-trace", "PATH",
           "write the replayed trace as canonical CSV (same seed => "
           "byte-identical file)",
           cli::text(args.saveTracePath)}}},
        {"Cluster policy",
         {{"--placement", "NAME",
           "first-fit, load, or energy (default first-fit)",
           cli::set(f.placement,
                    cli::Parser<PlacementKind>{
                        placementFromName,
                        "must be first-fit, load, or energy"})},
          {"--policy", "NAME",
           "per-pod scheduler: fifo, rr, prio, or edf (default rr)",
           cli::set(f.policy, cli::Parser<SchedPolicy>{
                                  policyFromName,
                                  "must be fifo, rr, prio, or edf"})},
          {"--admission-cap", "U",
           "fraction of one pod the admitted QoS demand placed there may "
           "claim (default 1.0); infeasible tenants are rejected",
           cli::set(f.podDemandCap, cli::real(0.0))},
          {"--rebalance-every", "S",
           "enable tenant migration between pods, checking load skew "
           "every S simulated seconds (0 = auto: an eighth of the trace "
           "span)",
           [&args](const std::string &v) {
               args.fleet.rebalance.enabled = true;
               return cli::set(args.rebalanceEvery, cli::real(0.0, true))(v);
           }},
          {"--skew", "F",
           "utilization gap that triggers migration (default 0.25)",
           cli::set(f.rebalance.skewThreshold, cli::real(0.0))},
          {"--max-migrations", "N",
           "migration cap per control round (default 64)",
           cli::set(f.rebalance.maxPerRound, cli::integer(1))}}},
        {"Energy budget",
         {{"--power-cap-w", "W",
           "sustained fleet power cap in watts; low-priority tenants "
           "preempt when the projected draw exceeds it",
           cli::set(f.budget.powerCapW, cli::real(0.0))},
          {"--budget-j", "J",
           "total joule budget for the whole run; a draining budget "
           "throttles progressively",
           cli::set(f.budget.totalJ, cli::real(0.0))},
          {"--control-every", "S",
           "control-loop interval for budget/rebalance decisions "
           "(overrides auto)",
           cli::set(f.controlIntervalSec, cli::real(0.0))}}},
        {"Serving",
         {{"--working-set", "F",
           "fraction of SRAM a context switch or migration moves, in "
           "(0, 1] (default 1)",
           cli::set(f.workingSetFraction, cli::real(0.0, false, 1.0))},
          {"--quantum", "N", "iterations per scheduling quantum (default 1)",
           cli::set(f.quantumIters, cli::integer<std::uint64_t>(1))},
          {"--wall-s", "S",
           "wall-clock budget in simulated seconds; 0 = run to "
           "completion",
           cli::set(f.wallLimitSec, cli::real(0.0))},
          {"--backends", "LIST",
           "allowed isolated-cost backends (default: all)",
           [&f](const std::string &v) {
               return parseBackendList(v, &f.backends);
           }}}},
        {"Execution",
         {{"--threads", "N",
           "worker threads for cost pricing and the per-epoch pod "
           "simulations (default 1; output is byte-identical for any "
           "value)",
           cli::set(args.runner.threads, cli::integer(1, 1024))},
          {"--cache-dir", "PATH",
           "persistent result cache shared with diva_sweep/diva_serve",
           cli::text(args.runner.cacheDir)},
          {"--cache", "", "like --cache-dir with the default dir",
           [&args](const std::string &) {
               args.runner.cacheDir = DiskCache::defaultDir();
               return std::string();
           }},
          {"--quiet", "", "no stderr progress", cli::toggle(args.quiet)}}},
        {"Output (deterministic; independent of --threads and cache)",
         {{"--pod-csv", "PATH",
           "write the per-pod CSV to PATH instead of stdout",
           cli::text(args.podCsvPath)},
          {"--csv", "PATH",
           "also write the per-tenant CSV (one row per session; large "
           "traces make this big)",
           cli::text(args.csvPath)},
          {"--json", "PATH", "also write a JSON report (fleet + pods)",
           cli::text(args.jsonPath)},
          {"--json-tenants", "", "include every tenant in the JSON report",
           cli::toggle(args.jsonTenants)},
          {"--no-summary", "", "skip the stdout summary tables",
           cli::toggle(args.summary, false)}}},
        obs::cliObsFlags(args.obs, args.verbose),
    };
}

/** The fleet the flags describe; "" or the first problem found. */
std::string
buildFleetSpec(Args &args)
{
    std::vector<std::vector<PodSpec>> groups;
    for (const std::string &text : args.podSpecs) {
        std::string err;
        const auto group = parsePodTemplate(text, &err);
        if (!group)
            return "--pod '" + text + "': " + err;
        groups.push_back(*group);
    }
    if (groups.empty())
        groups.push_back(defaultPodGroup(args.pods));
    FleetSpec built = buildFleet(groups);
    args.fleet.name = built.name;
    args.fleet.pods = std::move(built.pods);
    if (args.fleet.controlIntervalSec == 0.0)
        args.fleet.controlIntervalSec = args.rebalanceEvery;
    return args.fleet.validationError();
}

void
printSummary(std::ostream &os, const FleetResult &f)
{
    os << "\n=== fleet summary ===\n";
    TextTable run({"fleet", "trace", "policy", "placement", "placed",
                   "rejected", "steps", "makespan_s", "energy_j",
                   "migrations", "suspensions", "mean_qos_pct",
                   "lat_p50_s", "lat_p99_s"});
    run.addRow({f.fleetName, f.traceName, policyName(f.policy),
                placementName(f.placement),
                std::to_string(f.placedCount),
                std::to_string(f.rejectedCount),
                std::to_string(f.totalSteps),
                formatDouble(f.makespanSec),
                formatDouble(f.totalEnergyJ),
                std::to_string(f.migrations),
                std::to_string(f.suspensions),
                formatDouble(f.meanQosAttainmentPct),
                formatDouble(f.aggStepLatency.p50Sec),
                formatDouble(f.aggStepLatency.p99Sec)});
    run.print(os);

    os << "\n--- pods ---\n";
    TextTable table({"pod", "config", "chips", "placed", "in", "out",
                     "steps", "busy_s", "util", "energy_share",
                     "qos_pct", "p99_s"});
    for (const FleetPodReport &p : f.pods)
        table.addRow({p.name, p.configName, std::to_string(p.chips),
                      std::to_string(p.placed),
                      std::to_string(p.migratedIn),
                      std::to_string(p.migratedOut),
                      std::to_string(p.stepsDone),
                      formatDouble(p.busySec),
                      formatDouble(p.utilization),
                      formatDouble(p.energyShare),
                      formatDouble(p.meanQosAttainmentPct),
                      formatDouble(p.stepLatency.p99Sec)});
    table.print(os);
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (const auto rc = cli::parseArgs(kTool, argc, argv, flagTable(args)))
        return *rc;
    if (!args.arrivalsSpec.empty() && !args.tracePath.empty())
        return cli::fail(kTool,
                         "--arrivals and --trace are mutually exclusive");
    if (args.verbose)
        setLogVerbosity(LogVerbosity::kVerbose);
    if (!args.obs.activate())
        return 1;
    if (const std::string err = buildFleetSpec(args); !err.empty())
        return cli::fail(kTool, err);
    const FleetSpec &spec = args.fleet;

    std::string err;
    const std::optional<ArrivalTrace> trace =
        traceFromFlags(args.tracePath,
                       args.arrivalsSpec.empty()
                           ? "diurnal:rate=4,horizon=16,seed=1"
                           : args.arrivalsSpec,
                       [](TraceGenSpec &) {}, args.saveTracePath, &err);
    if (!trace)
        return cli::fail(kTool, err);

    SweepRunner runner(args.runner);
    if (!args.quiet) {
        runner.printDiskCacheBanner(std::cerr);
        std::cerr << "replaying trace '" << trace->name << "' ("
                  << trace->jobs.size() << " sessions) on " << spec.name
                  << " under " << policyName(spec.policy) << "/"
                  << placementName(spec.placement)
                  << (spec.rebalance.enabled ? ", rebalance on" : "")
                  << (spec.budget.enabled() ? ", budget on" : "")
                  << "...\n";
    }

    const FleetResult fleet = simulateFleet(
        spec, *trace, runner, args.runner.threads, args.obs.sink.get(),
        args.obs.telemetry.get());
    if (!fleet.ok())
        std::cerr << "diva_fleet: " << fleet.error << "\n";
    else if (!args.quiet)
        std::cerr << "plan cache: " << fleet.planHits << " hits, "
                  << fleet.planMisses << " misses\n";

    {
        obs::ScopedPhase emit_phase("emit");
        if (!cli::writeOutputs(
                kTool,
                {{args.podCsvPath,
                  [&](std::ostream &os) { writeFleetPodCsv(os, fleet); },
                  true},
                 {args.csvPath,
                  [&](std::ostream &os) { writeFleetTenantCsv(os, fleet); }},
                 {args.jsonPath, [&](std::ostream &os) {
                      writeFleetJson(os, fleet, args.jsonTenants);
                  }}}))
            return 1;
    }

    if (args.summary && fleet.ok())
        printSummary(std::cout, fleet);
    if (!args.obs.finish())
        return 1;
    return fleet.ok() ? 0 : 2;
}
