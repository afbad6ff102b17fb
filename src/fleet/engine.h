/**
 * @file
 * The datacenter-scale fleet engine: replays an arrival trace across N
 * heterogeneous pods, each an independent time-shared serve instance
 * running the src/tenant/ scheduling policies, under a cluster-level
 * placement policy, an optional migration/rebalance loop and an
 * optional fleet energy budget.
 *
 * Unlike the single-pod serve loop (which rescans every tenant per
 * quantum), each pod here keeps its runnable tenants in policy-ordered
 * queues with O(log n) updates, so million-session fleets replay in
 * seconds. Time advances in *control epochs*: within an epoch pods
 * simulate independently (and in parallel across worker threads --
 * their state is disjoint, so the simulation is byte-deterministic
 * whatever the thread count); at epoch boundaries the cluster level
 * runs, in order: energy-budget enforcement, then rebalance
 * migrations, then placement of the next epoch's arrivals.
 *
 * Isolated per-step costs are priced once per (pod type, tenant class)
 * through the shared SweepRunner, so fleets share the sweep engine's
 * plan/result/disk caches and --threads parallelizes the pricing.
 */

#ifndef DIVA_FLEET_ENGINE_H
#define DIVA_FLEET_ENGINE_H

#include <cstdint>
#include <string>
#include <vector>

#include "arrivals/trace.h"
#include "common/percentile.h"
#include "fleet/fleet.h"
#include "serve_core/core.h"
#include "fleet/placement.h"
#include "sweep/runner.h"

namespace diva
{

namespace obs
{
class TraceSink;
struct RunTelemetry;
}

/** What one tenant session experienced over the fleet run. */
struct FleetTenantMetrics
{
    /** The session as served. */
    TenantJob job;

    int resolvedBatch = 0;

    /** Pod the session ended on (kNoPod when it was rejected, or when
     *  the wall ended the run before its arrival was placed). */
    std::size_t finalPod = kNoPod;

    /** False when placement found no feasible pod. */
    bool admitted = true;

    bool completed = false;
    bool departed = false;

    std::uint64_t stepsDone = 0;

    /** End of the session's service window (see tenant/serve.h). */
    double endSec = 0.0;

    double achievedStepsPerSec = 0.0;

    /** Isolated rate on the session's final pod (NaN if rejected). */
    double isolatedStepsPerSec = 0.0;

    /** See TenantMetrics::qosAttainmentPct. */
    double qosAttainmentPct = 0.0;

    /** Exact-sort latency of the session's executed steps. */
    LatencyStats stepLatency;

    /** Joules: steps + switches into it + its migrations. */
    double energyJ = 0.0;

    std::uint32_t switchesIn = 0;

    /** Times this session moved pods. */
    std::uint32_t migrations = 0;

    /** Off-the-air seconds / joules its migrations cost. */
    double migrationSec = 0.0;
    double migrationEnergyJ = 0.0;

    /** Control intervals this session sat preempted by the budget. */
    std::uint32_t suspensions = 0;
};

/** What one pod did over the fleet run. */
struct FleetPodReport
{
    std::string name;
    std::string configName;
    int chips = 1;
    std::string backend;

    /** Sessions first placed here / moved in / moved out. */
    std::size_t placed = 0;
    std::size_t migratedIn = 0;
    std::size_t migratedOut = 0;

    /** Sessions whose service ended here. */
    std::size_t ended = 0;

    std::uint64_t stepsDone = 0;

    /** Engine-occupied seconds: steps + switches + migration refills. */
    double busySec = 0.0;

    /** busySec over the fleet makespan (NaN on an empty run). */
    double utilization = 0.0;

    double energyJ = 0.0;

    /** energyJ over the fleet total (NaN if the total is zero). */
    double energyShare = 0.0;

    std::uint64_t contextSwitches = 0;
    double switchSec = 0.0;
    double switchEnergyJ = 0.0;

    /** In-migration bill landed on this pod. */
    double migrationSec = 0.0;
    double migrationEnergyJ = 0.0;
    Bytes migrationBytes = 0;

    /** Tail latency over the steps executed on this pod. */
    LatencyStats stepLatency;

    /** Mean attainment over targeted sessions ended here; NaN if none. */
    double meanQosAttainmentPct = 0.0;
};

/** Outcome of one fleet simulation. */
struct FleetResult
{
    /** Inputs echoed for reporting. */
    std::string fleetName;
    std::string traceName;
    SchedPolicy policy = SchedPolicy::kRoundRobin;
    PlacementKind placement = PlacementKind::kFirstFit;
    std::uint64_t quantumIters = 1;
    double wallLimitSec = 0.0;

    std::vector<FleetPodReport> pods;

    /** One entry per trace session, in trace order. */
    std::vector<FleetTenantMetrics> tenants;

    /** Sessions placed on a pod / refused by placement.  Sessions
     *  arriving at or after the wall are neither. */
    std::size_t placedCount = 0;
    std::size_t rejectedCount = 0;

    std::uint64_t totalSteps = 0;

    /** End of the last serviced work across the fleet. */
    double makespanSec = 0.0;

    /** Joules fleet-wide (pod energies and tenant energies sum here). */
    double totalEnergyJ = 0.0;

    std::uint64_t contextSwitches = 0;

    /** Migration totals (reconcile with the per-pod in-migration sums). */
    std::uint64_t migrations = 0;
    double migrationSec = 0.0;
    double migrationEnergyJ = 0.0;
    Bytes migrationBytes = 0;

    /** Energy-budget preemptions applied over the run. */
    std::uint64_t suspensions = 0;

    /** Mean attainment over sessions with targets; NaN if none. */
    double meanQosAttainmentPct = 0.0;

    /** Tail latency over every executed step fleet-wide. */
    LatencyStats aggStepLatency;

    /** Cost-pricing cache accounting (stderr reporting only; never
     *  emitted into the CSV/JSON so reruns stay byte-identical). */
    std::size_t planHits = 0;
    std::size_t planMisses = 0;

    /**
     * serve_core event counters summed over every pod (steps,
     * dispatches, coalesced quanta, promotions, idle jumps, switches,
     * retires). Reporting-only: not emitted in CSV/JSON, surfaced by
     * bench_fleet.
     */
    serve_core::Counters coreCounters;

    /** Non-empty when the fleet could not run (bad spec, sim error). */
    std::string error;

    bool ok() const { return error.empty(); }
};

/**
 * Replay `trace` on the fleet. `threads` parallelizes the per-epoch
 * pod simulations (the output is byte-identical for any value);
 * isolated-cost pricing parallelism comes from `runner`'s own options.
 * Validation failures return an error-carrying result instead of
 * running.
 *
 * `traceSink`, when non-null, receives a sim-time trace of the run:
 * one track per pod (step spans, context-switch instants) plus a
 * cluster control track (placement/admission/migration/suspension
 * instants and budget-epoch spans). Tracks are timestamped in
 * simulated seconds, so the trace too is byte-identical across
 * `threads`. Null leaves the run untouched.
 *
 * `telemetry`, when non-null, receives the windowed time-series view
 * of the run (see obs/slo.h): per-pod window series (steps, switches,
 * busy seconds, utilization, energy, power, queue depth, gated
 * count), per-priority latency decompositions and per-window latency
 * sketches, cluster control-event series, and -- when its SLO spec
 * monitors anything -- the per-window p99 attainment report, with
 * breach instants appended to the trace's cluster control track when
 * `traceSink` is also set. Every telemetry value is accumulated by
 * the entity that owns it (one pod, one priority class on one pod)
 * and merged sequentially in pod-index order, so the bundle is
 * byte-identical across `threads` and reruns.
 */
FleetResult simulateFleet(const FleetSpec &spec,
                          const ArrivalTrace &trace,
                          SweepRunner &runner, int threads = 1,
                          obs::TraceSink *traceSink = nullptr,
                          obs::RunTelemetry *telemetry = nullptr);

/** Convenience overload with a private single-threaded runner. */
FleetResult simulateFleet(const FleetSpec &spec,
                          const ArrivalTrace &trace);

} // namespace diva

#endif // DIVA_FLEET_ENGINE_H
