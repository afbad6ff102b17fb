/**
 * @file
 * Seeded deterministic arrival-trace generators: Poisson (memoryless
 * open traffic), bursty on-off (a two-state MMPP -- exponential
 * arrivals during "on" windows, silence during "off"), and a diurnal
 * ramp (sinusoidal rate between trough and peak, sampled by
 * thinning). All three draw from the repo's fixed xoshiro256** Rng,
 * so a (kind, parameters, seed) triple maps to exactly one trace on
 * every platform: same seed => byte-identical trace CSV, different
 * seed => a different trace. Generated tenants rotate through the
 * default model cycle and carry an open-loop step rate so the replay
 * engine can drive them by the trace clock.
 */

#ifndef DIVA_ARRIVALS_GENERATE_H
#define DIVA_ARRIVALS_GENERATE_H

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "arrivals/trace.h"

namespace diva
{

/** Arrival-process families offered by the generators. */
enum class ArrivalKind
{
    /** Exponential inter-arrivals at a constant rate. */
    kPoisson,
    /** On-off bursts: Poisson at `ratePerSec` while on, silent off. */
    kOnOff,
    /** Diurnal ramp: rate swings 1x..peakX over the horizon. */
    kDiurnal,
};

const char *arrivalKindName(ArrivalKind k);

/** Everything a generator run needs; parseTraceGenSpec fills one. */
struct TraceGenSpec
{
    ArrivalKind kind = ArrivalKind::kPoisson;

    /** Mean tenant arrivals per second (on-phase rate for on-off). */
    double ratePerSec = 2.0;

    /** Trace horizon in simulated seconds. */
    double horizonSec = 4.0;

    std::uint64_t seed = 1;

    /** Hard cap on generated sessions (safety against rate*horizon). */
    int maxTenants = 256;

    /** On-off phase lengths (kOnOff only). */
    double onSec = 1.0;
    double offSec = 1.0;

    /** Peak-to-trough rate ratio (kDiurnal only, >= 1). */
    double peakX = 4.0;

    /** Per-session template: steps (0 = until departure). */
    std::uint64_t steps = 16;

    int batch = 8;

    /** Open-loop step issue rate per tenant (0 = closed loop). */
    double qosStepsPerSec = 0.0;

    /** Session length; departure = arrival + holdSec (0 = stays). */
    double holdSec = 0.0;

    /** Rotate priorities 0..priorityLevels-1 over sessions. */
    int priorityLevels = 3;

    /** Fields an explicit spec text overrode (CLI defaults yield). */
    bool stepsSet = false;
    bool batchSet = false;
    bool qosSet = false;

    /** Why the spec is malformed, or "". */
    std::string validationError() const;
};

/**
 * Generate the trace for `spec`. The trace is named
 * "<kind>-r<rate>-s<seed>" and is empty only if the process produced
 * no arrival inside the horizon/cap (callers validate before replay).
 */
ArrivalTrace generateTrace(const TraceGenSpec &spec);

/**
 * Parse a generator spec of the form
 *   kind[:key=value[,key=value...]]
 * with kind poisson|onoff|diurnal and keys rate, horizon, seed, cap,
 * on, off, peak, steps, batch, qos, hold, prios. Unknown keys or
 * malformed values return nullopt and set *error.
 */
std::optional<TraceGenSpec> parseTraceGenSpec(const std::string &text,
                                              std::string *error);

/**
 * The trace a CLI replays: the recorded file `tracePath` (--trace)
 * when set, else the trace of the `arrivalsSpec` generator (--arrivals)
 * after `adjust` fills the tool's defaults into the parsed spec; a
 * generated trace must hold at least one session. A non-empty
 * `savePath` (--save-trace) receives the trace as canonical CSV.
 * nullopt, with *error set, on any failure.
 */
std::optional<ArrivalTrace>
traceFromFlags(const std::string &tracePath, const std::string &arrivalsSpec,
               const std::function<void(TraceGenSpec &)> &adjust,
               const std::string &savePath, std::string *error);

} // namespace diva

#endif // DIVA_ARRIVALS_GENERATE_H
