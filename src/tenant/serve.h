/**
 * @file
 * Event-driven time-sharing serve simulator: N tenant training jobs
 * share one accelerator (or data-parallel pod) under a scheduling
 * policy, with Executor/SimResult iteration costs as the quantum
 * granularity and a context-switch bill charged whenever the running
 * tenant changes.
 *
 * The expensive part -- each tenant's isolated per-iteration cost --
 * is obtained by running ordinary sweep scenarios through a
 * SweepRunner, so tenant serves share the sweep engine's in-memory and
 * on-disk result caches: re-serving a mix under a different policy
 * re-simulates nothing. The scheduling loop itself is sequential,
 * closed-form arithmetic, so serve results are byte-deterministic
 * whatever the runner's thread count.
 */

#ifndef DIVA_TENANT_SERVE_H
#define DIVA_TENANT_SERVE_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "arch/accelerator_config.h"
#include "arrivals/admission.h"
#include "common/percentile.h"
#include "serve_core/core.h"
#include "sim/multichip.h"
#include "sweep/runner.h"
#include "tenant/context_switch.h"
#include "tenant/scheduler.h"
#include "tenant/tenant.h"

namespace diva
{

namespace obs
{
class TraceTrack;
struct RunTelemetry;
}

/** Serve-loop knobs independent of the workload and platform. */
struct ServeOptions
{
    /** Training iterations per scheduling quantum (>= 1). */
    std::uint64_t quantumIters = 1;

    /**
     * Wall-clock budget in simulated seconds; 0 = run until every
     * bounded tenant completes (duration mode sets this and may leave
     * tenant step counts unbounded).
     */
    double wallLimitSec = 0.0;

    /**
     * Give tenants without an explicit QoS target a fair-share rate
     * target: isolated steps/sec divided by the number of tenants.
     */
    bool autoQosFairShare = false;

    /**
     * Open-loop serving (trace replay): a tenant with a rate target
     * only becomes runnable when its next step is due (arrival +
     * done/rate), i.e. steps are issued by the trace clock rather
     * than back-to-back, and step latency is measured from the due
     * time. Tenants without a rate target are always eligible. Off
     * (closed loop): tenants run whenever scheduled and latency is
     * measured from step eligibility (arrival / previous completion).
     */
    bool openLoop = false;

    /**
     * Optional sim-time trace destination (see obs/trace.h). The
     * serve loop is sequential, so one single-writer track suffices:
     * step spans and context-switch instants land here. Null (the
     * default) disables tracing; results are unaffected either way.
     */
    obs::TraceTrack *traceTrack = nullptr;

    /**
     * Optional windowed-telemetry destination (see obs/slo.h). When
     * set, the loop records each step's exact latency decomposition
     * into per-tenant and per-priority windows, publishes them as
     * `serve.<policy>.`-prefixed series/sketches, and -- when the
     * bundle's SLO spec monitors anything -- fills the attainment
     * report. The window width is resolved from the workload if the
     * caller has not pinned it. Null (the default) disables all of it;
     * serve results are byte-identical either way.
     */
    obs::RunTelemetry *telemetry = nullptr;

    /**
     * Optional QoS admission control (see arrivals/admission.h). When
     * set, the loop decides admission over the targets it enforces
     * (fair-share targets filled in first), serves only the admitted
     * tenants and reports the shed ones in place with admitted =
     * false, zero steps and NaN rates. Unset (the default) admits
     * everyone.
     */
    std::optional<AdmissionOptions> admission;
};

/** Everything one serve simulation needs. */
struct ServeSpec
{
    TenantWorkload workload;

    /** The shared accelerator design point. */
    AcceleratorConfig config;

    /** Chip count; > 1 time-shares a data-parallel pod. */
    int chips = 1;

    /** Pod link parameters (used when chips > 1). */
    MultiChipConfig pod;

    SchedPolicy policy = SchedPolicy::kRoundRobin;

    /**
     * Backends the serve may price isolated costs on; empty = any.
     * The backend the spec actually needs (pod when chips > 1, else
     * chip) must be in the list -- otherwise simulateServe returns an
     * error-carrying result.
     */
    std::vector<SweepBackend> backends;

    ServeOptions opts;
};

/** What one tenant experienced over the serve run. */
struct TenantMetrics
{
    /** The job as served (auto QoS targets filled in). */
    TenantJob job;

    int resolvedBatch = 0;

    std::uint64_t stepsDone = 0;

    /** Whether the job's full step budget completed. */
    bool completed = false;

    /** Whether the tenant left at departSec with steps outstanding. */
    bool departed = false;

    /**
     * Whether the admission controller let the tenant in. Always true
     * for serves without admission control; rejected tenants keep
     * their row with zero steps and NaN rates.
     */
    bool admitted = true;

    /**
     * End of the tenant's service window: completion time if it
     * completed, else its departure, else the end of the simulation.
     */
    double endSec = 0.0;

    /** Seconds between arrival and first scheduled step (NaN if none). */
    double waitSec = 0.0;

    /** stepsDone over the service window (arrival -> endSec). */
    double achievedStepsPerSec = 0.0;

    /** Steps/sec the tenant would sustain alone on the accelerator. */
    double isolatedStepsPerSec = 0.0;

    /**
     * isolated rate / achieved rate (>= 1 when sharing hurts); NaN
     * when the achieved rate is zero or non-finite.
     */
    double slowdown = 0.0;

    /**
     * QoS attainment in percent: of the steps the target demanded by
     * endSec, the share that completed by their deadline (capped at
     * 100). NaN for tenants without a target or before the target
     * demands anything.
     */
    double qosAttainmentPct = 0.0;

    /**
     * Exact-sort tail latency of this tenant's executed steps. Open
     * loop measures completion minus the step's due time; closed loop
     * measures completion minus eligibility (arrival or previous
     * completion). count 0 / NaN stats when no step ran.
     */
    LatencyStats stepLatency;

    /** Joules consumed: executed steps + switches into this tenant. */
    double energyJ = 0.0;

    /** energyJ over the run's total joules (NaN if total is zero). */
    double energyShare = 0.0;

    /** Context switches that loaded this tenant onto the engine. */
    std::uint64_t switchesIn = 0;
};

/** Outcome of one serve simulation. */
struct ServeResult
{
    /** Inputs echoed for reporting. */
    std::string workloadName;
    std::string configName;
    SchedPolicy policy = SchedPolicy::kRoundRobin;
    int chips = 1;
    std::uint64_t quantumIters = 1;
    double wallLimitSec = 0.0;

    std::vector<TenantMetrics> tenants;

    /** End of the last serviced work (switches included). */
    double makespanSec = 0.0;

    /** Joules over the whole run (tenant energies sum to this). */
    double totalEnergyJ = 0.0;

    std::uint64_t contextSwitches = 0;

    /** Time / energy / traffic lost to context switches. */
    double switchSec = 0.0;
    double switchEnergyJ = 0.0;
    Bytes switchDramBytes = 0;

    /** Mean attainment over tenants with targets; NaN if none. */
    double meanQosAttainmentPct = 0.0;

    /** Tail latency over every executed step of every tenant. */
    LatencyStats aggStepLatency;

    /**
     * serve_core event counters for this run (steps, dispatches,
     * coalesced quanta, promotions, idle jumps, switches, retires).
     * Reporting-only: not emitted in CSV/JSON, surfaced by bench_serve.
     */
    serve_core::Counters coreCounters;

    /** Non-empty when the serve could not run (bad spec, sim error). */
    std::string error;

    bool ok() const { return error.empty(); }

    /** Tenants the admission controller let in (all, without one). */
    std::size_t admittedCount() const;
};

/**
 * num / den with the zero/non-finite denominator guarded to NaN
 * (rendered as "nan" in CSV and null in JSON by the emit helpers).
 */
double safeRatio(double num, double den);

/** How one session's service window ended (see TenantMetrics). */
struct SessionOutcome
{
    bool departed = false;
    double endSec = 0.0;
    double achievedStepsPerSec = 0.0;
    double qosAttainmentPct = 0.0;
};

/** The serve-core task of `job`: its scheduling facts, fresh state. */
serve_core::Task taskOf(const TenantJob &job);

/**
 * The session-end rule the tenant loop and the fleet share: the
 * outcome of `task` in a run whose last work ended at `makespanSec`
 * under the wall budget `wallLimitSec` (0 = none).
 */
SessionOutcome sessionOutcome(const serve_core::Task &task,
                              double makespanSec, double wallLimitSec);

/**
 * The latency-slot rule the tenant loop and the fleet share: how many
 * slots `task` reserves in its loop's step-latency arena, where the
 * core stores step k in the task's slot k - 1. A bounded session gets
 * one slot per budgeted step when that whole budget can run before
 * its departure or the wall budget `wallLimitSec` (0 = none) at its
 * cheapest step cost `minStepSec`; any other session gets none and
 * keeps its samples in its overflow vector, so a budget the run can
 * never reach reserves nothing.
 */
std::uint64_t latencySlots(const serve_core::Task &task, double minStepSec,
                           double wallLimitSec);

/** Add a run's serve-core event counters to the metrics registry. */
void publishCoreCounters(const serve_core::Counters &c);

/** A result echoing `spec`'s inputs, with no tenant rows yet. */
ServeResult serveHeader(const ServeSpec &spec);

/**
 * The scheduling loop, over explicit per-tenant iteration costs
 * (costs[i] belongs to workload.jobs[i]) and an explicit switch bill:
 * every serve runs through here, admission control included. Exposed
 * for tests and custom cost models; validates the spec and costs,
 * returning an error-carrying result instead of running on bad input.
 */
ServeResult runServeLoop(const ServeSpec &spec,
                         const std::vector<IterationCost> &costs,
                         const SwitchCost &switchCost);

/**
 * Each tenant's isolated iteration cost, priced by running its sweep
 * scenario through `runner` (cache-, disk-cache- and thread-pool-
 * aware). Validates the spec's config, workload and backend list
 * first; on any failure returns an empty vector and sets *error.
 */
std::vector<IterationCost> isolatedCosts(const ServeSpec &spec,
                                         SweepRunner &runner,
                                         std::string *error);

/**
 * Full pipeline: derive each tenant's isolated iteration cost by
 * running its sweep scenario through `runner` (cache-, disk-cache- and
 * thread-pool-aware), derive the switch bill from the spec's
 * accelerator, then run the scheduling loop.
 */
ServeResult simulateServe(const ServeSpec &spec, SweepRunner &runner);

/** Convenience overload with a private single-threaded runner. */
ServeResult simulateServe(const ServeSpec &spec);

/**
 * The sweep scenario whose result prices one iteration of `job` on
 * `chips` chips of `config`: a single-chip scenario, or a pod scenario
 * over `pod`'s links when chips > 1.
 */
Scenario tenantScenario(const AcceleratorConfig &config, int chips,
                        const MultiChipConfig &pod, const TenantJob &job);

/** One iteration's cost, read off the scenario result that priced it. */
IterationCost iterationCost(const ScenarioResult &r);

} // namespace diva

#endif // DIVA_TENANT_SERVE_H
