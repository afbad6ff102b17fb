/**
 * @file
 * Open-loop trace replay engine: drives the src/tenant/ serve loop
 * from an ArrivalTrace -- tenants arrive and depart mid-run, rate
 * targets issue steps by the trace clock (ServeOptions::openLoop),
 * and per-step latency percentiles land in the usual ServeResult.
 * With admission on, the QoS demand of the trace is checked against
 * capacity first (arrivals/admission.h) and only the feasible subset
 * is scheduled; rejected sessions keep their rows with admitted =
 * false so every replay reports the whole trace.
 *
 * Isolated iteration costs are priced through the shared SweepRunner,
 * so replays share the sweep engine's in-memory and on-disk caches:
 * replaying the same trace under four policies simulates each distinct
 * (model, batch, algorithm) once. The scheduling loop itself is
 * sequential closed-form arithmetic, so replay output is
 * byte-deterministic whatever the runner thread count.
 */

#ifndef DIVA_ARRIVALS_REPLAY_H
#define DIVA_ARRIVALS_REPLAY_H

#include <string>
#include <vector>

#include "arrivals/admission.h"
#include "arrivals/trace.h"
#include "tenant/serve.h"

namespace diva
{

/** Everything one trace replay needs. */
struct ReplaySpec
{
    ArrivalTrace trace;

    /** The shared accelerator design point. */
    AcceleratorConfig config;

    /** Chip count; > 1 time-shares a data-parallel pod. */
    int chips = 1;

    /** Pod link parameters (used when chips > 1). */
    MultiChipConfig pod;

    SchedPolicy policy = SchedPolicy::kRoundRobin;

    /** Allowed isolated-cost backends, as in ServeSpec::backends. */
    std::vector<SweepBackend> backends;

    /**
     * Serve knobs. openLoop is forced on by replayTrace: replay is
     * the open-loop driver by definition.
     */
    ServeOptions opts;

    /** Run the admission controller before scheduling. */
    bool admission = false;

    AdmissionOptions admissionOpts;
};

/**
 * Replay `spec.trace` and return the serve result: one TenantMetrics
 * per trace session in trace order (rejected sessions carry admitted
 * = false, zero steps and NaN rates). Validation failures return an
 * error-carrying result instead of running.
 */
ServeResult replayTrace(const ReplaySpec &spec, SweepRunner &runner);

/** Convenience overload with a private single-threaded runner. */
ServeResult replayTrace(const ReplaySpec &spec);

/**
 * simulateServe with the admission controller in front: price the
 * isolated costs, shed infeasible QoS demand, schedule the admitted
 * subset and weave the rejected tenants back into the report. Works
 * for static mixes too (closed loop unless spec.opts.openLoop).
 */
ServeResult serveWithAdmission(const ServeSpec &spec,
                               const AdmissionOptions &admission,
                               SweepRunner &runner);

} // namespace diva

#endif // DIVA_ARRIVALS_REPLAY_H
