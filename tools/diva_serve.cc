/**
 * @file
 * diva_serve: multi-tenant time-sharing serve simulator driver.
 *
 * Runs N tenant training jobs (generated with --tenants or spelled out
 * with repeated --tenant flags) time-sharing one accelerator (or pod)
 * under one or more scheduling policies, and reports per-tenant
 * achieved rate, slowdown vs. an isolated run, QoS attainment and
 * energy share plus the run-level context-switch bill.
 *
 * The per-tenant isolated iteration costs are ordinary sweep scenarios
 * run through the sweep engine, so --threads parallelizes them and
 * --cache-dir shares the persistent result cache with diva_sweep. All
 * serve output on stdout (or --csv/--json files) is a pure function of
 * the spec: --threads N and warm-cache reruns are byte-identical.
 * Progress and cache accounting go to stderr.
 *
 * The flags are declared once, in flagTable(): the argv driver
 * (common/cli.h) parses them and prints --help from the same rows.
 */

#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "arrivals/generate.h"
#include "arrivals/replay.h"
#include "common/cli.h"
#include "common/format.h"
#include "common/logging.h"
#include "common/table.h"
#include "obs/cli.h"
#include "obs/profile.h"
#include "sweep/disk_cache.h"
#include "sweep/runner.h"
#include "tenant/emit.h"
#include "tenant/serve.h"

using namespace diva;

namespace
{

constexpr const char *kTool = "diva_serve";

/** "Steps not given in the spec": resolved to --steps after parsing,
 *  so --tenant and --steps may appear in any order. */
constexpr std::uint64_t kStepsUnset = ~std::uint64_t(0);

/** --qos auto: fair share of the isolated rate (none = 0, else rate). */
constexpr double kQosAuto = -1.0;

struct Args
{
    int tenants = 3;
    std::vector<TenantJob> explicitTenants;
    std::string arrivalsSpec;
    std::string tracePath;
    std::string saveTracePath;
    bool admission = false;
    AdmissionOptions admissionOpts;
    std::uint64_t steps = 32;
    int batch = 8;
    double arriveEvery = 0.0;
    double qos = kQosAuto;
    std::vector<SchedPolicy> policies = {SchedPolicy::kRoundRobin};
    Dataflow dataflow = Dataflow::kOuterProduct;
    std::optional<bool> ppu;
    /** Chips, backends, quantum and wall budget; policy set per run,
     *  trace and admission after parsing. */
    ReplaySpec serve;
    SweepOptions runner;
    bool quiet = false;
    bool summary = true;
    std::string csvPath;
    std::string jsonPath;
    bool verbose = false;
    obs::CliObs obs;
};

cli::FlagTable
flagTable(Args &args)
{
    const cli::Parser<SchedPolicy> policy = {
        policyFromName, "must be fifo, rr, prio, or edf"};
    return {
        {"Tenant mix",
         {{"--tenants", "N",
           "N generated tenants rotating through a fixed model mix "
           "(default 3)",
           cli::set(args.tenants, cli::integer(1, 65536))},
          {"--tenant", "SPEC",
           "add an explicit tenant; SPEC is model[:batch[:qos_sps"
           "[:arrival_s[:prio[:steps[:depart_s]]]]]], e.g. "
           "ResNet-50:32:2.5:0:1:64 (batch 'auto' = largest that fits; "
           "depart_s 0 = stays)",
           [&args](const std::string &v) {
               TenantJob job;
               job.steps = kStepsUnset;
               const std::string rule = parseTenantSpec(v, &job);
               if (!rule.empty())
                   return cli::reject(rule, v);
               args.explicitTenants.push_back(std::move(job));
               return std::string();
           }},
          {"--steps", "N",
           "steps per generated tenant (default 32; 0 = unbounded, "
           "needs --wall-s)",
           cli::set(args.steps, cli::integer<std::uint64_t>(0))},
          {"--batch", "N|auto", "batch per generated tenant (default 8)",
           cli::set(args.batch,
                    cli::orWord(cli::integer(1), "auto", kAutoBatch))},
          {"--arrive-every", "S",
           "stagger generated arrivals (default 0)",
           cli::set(args.arriveEvery, cli::real(0.0, true))},
          {"--qos", "auto|none|R",
           "generated tenants' steps/sec target: auto = fair share of "
           "the isolated rate (default), none, or an explicit rate",
           cli::set(args.qos,
                    cli::orWord(cli::orWord(cli::real(0.0), "auto",
                                            kQosAuto),
                                "none", 0.0))}}},
        {"Arrival traces (replace the static mix; open-loop replay)",
         {{"--arrivals", "SPEC",
           "generate a seeded arrival trace: kind[:key=val,...], kind "
           "poisson|onoff|diurnal, keys rate, horizon, seed, cap, on, "
           "off, peak, steps, batch, qos, hold, prios -- e.g. "
           "poisson:rate=4,seed=7,hold=2",
           cli::text(args.arrivalsSpec)},
          {"--trace", "FILE",
           "replay a recorded trace (.csv, or .jsonl/.json with one "
           "object per line)",
           cli::text(args.tracePath)},
          {"--save-trace", "PATH",
           "write the replayed trace as canonical CSV (seeded "
           "generators: same seed => byte-identical file)",
           cli::text(args.saveTracePath)},
          {"--admission", "",
           "run the QoS admission controller: shed tenants whose "
           "aggregate demand exceeds capacity (also works without a "
           "trace)",
           cli::toggle(args.admission)},
          {"--admission-cap", "U",
           "utilization the admitted QoS demand may claim (default 1.0)",
           cli::set(args.admissionOpts.utilizationCap, cli::real(0.0))}}},
        {"Scheduling",
         {{"--policy", "NAME", "fifo, rr, prio, or edf (default rr)",
           cli::list(args.policies, policy)},
          {"--policies", "LIST",
           "compare several policies in one run (or 'all')",
           [&args, policy](const std::string &v) {
               if (v != "all")
                   return cli::list(args.policies, policy)(v);
               args.policies = allPolicies();
               return std::string();
           }},
          {"--quantum", "N", "iterations per scheduling quantum (default 1)",
           cli::set(args.serve.opts.quantumIters,
                    cli::integer<std::uint64_t>(1))},
          {"--wall-s", "S",
           "wall-clock budget in simulated seconds; 0 = run every tenant "
           "to completion",
           cli::set(args.serve.opts.wallLimitSec, cli::real(0.0))}}},
        {"Platform",
         {{"--dataflow", "NAME", "WS, OS, or DiVa (default DiVa)",
           cli::set(args.dataflow,
                    cli::Parser<Dataflow>{dataflowFromName,
                                         "must be WS, OS, or DiVa"})},
          {"--ppu", "on|off",
           "post-processing unit (default on, off for WS, which has no "
           "PPU datapath)",
           cli::set(args.ppu, cli::oneOf<std::optional<bool>>(
                                  {{"on", true}, {"off", false}}))},
          {"--chips", "N",
           "time-share a data-parallel pod of N chips (default 1)",
           cli::set(args.serve.chips,
                    cli::integer(1, MultiChipConfig::kMaxChips))},
          {"--backends", "LIST",
           "allowed isolated-cost backends (default: all); the serve "
           "prices tenants on 'pod' when --chips > 1, else 'chip'",
           [&args](const std::string &v) {
               return parseBackendList(v, &args.serve.backends);
           }}}},
        {"Execution",
         {{"--threads", "N",
           "worker threads for the isolated-cost simulations (default 1)",
           cli::set(args.runner.threads, cli::integer(1, 1024))},
          {"--cache-dir", "PATH",
           "persistent result cache shared with diva_sweep",
           cli::text(args.runner.cacheDir)},
          {"--cache", "", "like --cache-dir with the default dir",
           [&args](const std::string &) {
               args.runner.cacheDir = DiskCache::defaultDir();
               return std::string();
           }},
          {"--quiet", "", "no stderr progress", cli::toggle(args.quiet)}}},
        {"Output (deterministic; independent of --threads and cache)",
         {{"--csv", "PATH",
           "write per-tenant CSV to PATH instead of stdout",
           cli::text(args.csvPath)},
          {"--json", "PATH", "also write a JSON report",
           cli::text(args.jsonPath)},
          {"--no-summary", "", "skip the stdout summary tables",
           cli::toggle(args.summary, false)}}},
        obs::cliObsFlags(args.obs, args.verbose),
    };
}

TenantWorkload
buildWorkload(const Args &args)
{
    if (!args.explicitTenants.empty()) {
        TenantWorkload mix;
        std::ostringstream oss;
        oss << "custom-" << args.explicitTenants.size();
        mix.name = oss.str();
        for (std::size_t i = 0; i < args.explicitTenants.size(); ++i) {
            TenantJob job = args.explicitTenants[i];
            if (job.steps == kStepsUnset)
                job.steps = args.steps;
            std::ostringstream name;
            name << "t" << i << ":" << job.model;
            job.name = name.str();
            mix.jobs.push_back(std::move(job));
        }
        return mix;
    }
    TenantWorkload mix = defaultWorkload(args.tenants, args.steps,
                                         args.batch, args.arriveEvery);
    if (args.qos > 0.0)
        for (TenantJob &job : mix.jobs)
            job.qosStepsPerSec = args.qos;
    return mix;
}

void
printSummary(std::ostream &os, const std::vector<ServeResult> &serves)
{
    os << "\n=== serve summary ===\n";
    TextTable runs({"policy", "makespan_s", "energy_j", "switches",
                    "switch_s", "mean_qos_pct", "lat_p50_s",
                    "lat_p99_s", "admitted"});
    for (const ServeResult &s : serves) {
        if (!s.ok()) {
            runs.addRow({policyName(s.policy), "-", "-", "-", "-", "-",
                         "-", "-", "error: " + s.error});
            continue;
        }
        const std::size_t admitted = s.admittedCount();
        runs.addRow({policyName(s.policy), formatDouble(s.makespanSec),
                     formatDouble(s.totalEnergyJ),
                     std::to_string(s.contextSwitches),
                     formatDouble(s.switchSec),
                     formatDouble(s.meanQosAttainmentPct),
                     formatDouble(s.aggStepLatency.p50Sec),
                     formatDouble(s.aggStepLatency.p99Sec),
                     std::to_string(admitted) + "/" +
                         std::to_string(s.tenants.size())});
    }
    runs.print(os);

    for (const ServeResult &s : serves) {
        if (!s.ok())
            continue;
        os << "\n--- policy " << policyName(s.policy) << " ("
           << s.configName;
        if (s.chips > 1)
            os << " x" << s.chips;
        os << ") ---\n";
        TextTable table({"tenant", "adm", "steps", "done",
                         "achieved/s", "isolated/s", "slowdown",
                         "p50_s", "p99_s", "qos_pct", "energy_share",
                         "switches"});
        for (const TenantMetrics &t : s.tenants)
            table.addRow({t.job.name, t.admitted ? "y" : "n",
                          std::to_string(t.job.steps),
                          std::to_string(t.stepsDone),
                          formatDouble(t.achievedStepsPerSec),
                          formatDouble(t.isolatedStepsPerSec),
                          formatDouble(t.slowdown),
                          formatDouble(t.stepLatency.p50Sec),
                          formatDouble(t.stepLatency.p99Sec),
                          formatDouble(t.qosAttainmentPct),
                          formatDouble(t.energyShare),
                          std::to_string(t.switchesIn)});
        table.print(os);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (const auto rc = cli::parseArgs(kTool, argc, argv, flagTable(args)))
        return *rc;
    const bool trace_mode =
        !args.arrivalsSpec.empty() || !args.tracePath.empty();
    if (!args.arrivalsSpec.empty() && !args.tracePath.empty())
        return cli::fail(kTool,
                         "--arrivals and --trace are mutually exclusive");
    if (trace_mode && !args.explicitTenants.empty())
        return cli::fail(kTool, "--tenant cannot be combined with "
                                "--arrivals/--trace (the trace is the mix)");
    if (!args.saveTracePath.empty() && !trace_mode)
        return cli::fail(kTool, "--save-trace needs --arrivals or --trace");
    if (args.steps == 0 && args.serve.opts.wallLimitSec <= 0.0 &&
        args.explicitTenants.empty() && !trace_mode)
        return cli::fail(kTool, "--steps 0 (unbounded) needs --wall-s");
    ReplaySpec &spec = args.serve;
    spec.config = presetConfig(args.dataflow, args.ppu);
    if (!spec.config.validationError().empty())
        return cli::fail(kTool, "--dataflow WS has no PPU datapath (use "
                                "--ppu off)");
    if (args.verbose)
        setLogVerbosity(LogVerbosity::kVerbose);
    if (!args.obs.activate())
        return 1;

    SweepRunner runner(args.runner);
    if (!args.quiet)
        runner.printDiskCacheBanner(std::cerr);

    // Trace replay: the arrival stream (generated or recorded)
    // replaces the static mix and drives the serve loop open-loop.
    if (trace_mode) {
        std::string err;
        std::optional<ArrivalTrace> t = traceFromFlags(
            args.tracePath, args.arrivalsSpec,
            [&args](TraceGenSpec &gen) {
                // Spec keys win; otherwise the mix-level flags fill
                // the per-session template.
                if (!gen.stepsSet)
                    gen.steps = args.steps;
                if (!gen.batchSet)
                    gen.batch = args.batch;
                if (!gen.qosSet && args.qos > 0.0)
                    gen.qosStepsPerSec = args.qos;
            },
            args.saveTracePath, &err);
        if (!t)
            return cli::fail(kTool, err);
        spec.trace = std::move(*t);
    }

    spec.workload = buildWorkload(args);
    spec.opts.autoQosFairShare = !trace_mode &&
                                 args.explicitTenants.empty() &&
                                 args.qos == kQosAuto;
    // One telemetry bundle across all policy runs; the serve loop
    // prefixes its series "serve.<policy>.", so runs never collide.
    spec.opts.telemetry = args.obs.telemetry.get();
    if (args.admission)
        spec.opts.admission = args.admissionOpts;

    std::vector<ServeResult> serves;
    bool any_error = false;
    int policy_idx = 0;
    for (SchedPolicy policy : args.policies) {
        spec.policy = policy;
        // One track per policy run: the serve loop is sequential, so
        // each track keeps a single writer.
        if (args.obs.sink)
            spec.opts.traceTrack = args.obs.sink->track(
                policy_idx++, std::string("serve ") + policyName(policy));
        if (!args.quiet)
            std::cerr << (trace_mode ? "replaying trace '" +
                                           spec.trace.name + "', "
                                     : "serving ")
                      << (trace_mode ? spec.trace.jobs.size()
                                     : spec.workload.jobs.size())
                      << " tenant(s) under " << policyName(policy)
                      << " on " << spec.config.name
                      << (spec.chips > 1
                              ? " x" + std::to_string(spec.chips)
                              : "")
                      << (args.admission ? ", admission on" : "")
                      << "...\n";
        ServeResult r = trace_mode ? replayTrace(spec, runner)
                                   : simulateServe(spec, runner);
        if (!r.ok()) {
            std::cerr << "diva_serve: " << policyName(policy) << ": "
                      << r.error << "\n";
            any_error = true;
        }
        serves.push_back(std::move(r));
    }

    {
        obs::ScopedPhase emit_phase("emit");
        if (!cli::writeOutputs(
                kTool,
                {{args.csvPath,
                  [&](std::ostream &os) { writeServeCsv(os, serves); },
                  true},
                 {args.jsonPath,
                  [&](std::ostream &os) { writeServeJson(os, serves); }}}))
            return 1;
        if (args.summary)
            printSummary(std::cout, serves);
    }
    if (!args.obs.finish())
        return 1;
    return any_error ? 2 : 0;
}
