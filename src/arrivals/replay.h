/**
 * @file
 * Open-loop trace replay: a serve whose tenants are an ArrivalTrace's
 * sessions. Tenants arrive and depart mid-run, rate targets issue
 * steps by the trace clock (ServeOptions::openLoop), and per-step
 * latency percentiles land in the usual ServeResult. A replay is one
 * more caller of simulateServe, so admission control
 * (ServeOptions::admission), tracing and telemetry work as they do
 * for static mixes: shed sessions keep their rows with admitted =
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

#include "arrivals/trace.h"
#include "tenant/serve.h"

namespace diva
{

/**
 * A serve over a trace: replayTrace replaces `workload` with the
 * trace's sessions and forces `opts.openLoop` on.
 */
struct ReplaySpec : ServeSpec
{
    ArrivalTrace trace;
};

/**
 * Replay `spec.trace` and return the serve result: one TenantMetrics
 * per trace session in trace order (shed sessions carry admitted =
 * false, zero steps and NaN rates). Validation failures return an
 * error-carrying result instead of running.
 */
ServeResult replayTrace(const ReplaySpec &spec, SweepRunner &runner);

/** Convenience overload with a private single-threaded runner. */
ServeResult replayTrace(const ReplaySpec &spec);

} // namespace diva

#endif // DIVA_ARRIVALS_REPLAY_H
