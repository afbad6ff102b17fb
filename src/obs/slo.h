/**
 * @file
 * SLO monitor groundwork over the windowed telemetry layer: a parsed
 * --slo-p99-s target spec (global or per tenant-priority), per-window
 * p99-attainment evaluation from the merged latency windows, and the
 * RunTelemetry bundle the engines fill and the CLIs emit as the
 * `diva-timeseries-v1` JSON/CSV document.
 *
 * Target semantics: every priority serves under its own override when
 * one is given, else under the global target (0 = unmonitored). The
 * report carries one scope per monitored priority plus, when a global
 * target is set, a "global" scope over every step. A window breaches
 * when its sketch p99 exceeds the scope's target (the sketch
 * overestimates by at most 1/16 -- see obs/sketch.h -- so a breach
 * verdict can be at most that margin pessimistic, never optimistic).
 */

#ifndef DIVA_OBS_SLO_H
#define DIVA_OBS_SLO_H

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/timeseries.h"

namespace diva
{
namespace obs
{

/** Parsed --slo-p99-s: "T" (global) or "P:T[,P:T...]" (priority). */
struct SloSpec
{
    double globalTargetSec = 0.0; ///< 0 = no global target
    /** Per-priority overrides, sorted by priority. */
    std::vector<std::pair<int, double>> perPriority;

    bool
    enabled() const
    {
        return globalTargetSec > 0.0 || !perPriority.empty();
    }

    /** Effective p99 target for `priority` (0 = unmonitored). */
    double targetFor(int priority) const;
};

/**
 * Parse an --slo-p99-s spec. Accepts a bare positive seconds value
 * (global target) or comma-separated `priority:seconds` pairs; both
 * may be combined ("0.5,1:0.2"). Returns false with *error set on
 * malformed input.
 */
bool parseSloSpec(const std::string &text, SloSpec *out,
                  std::string *error);

/** One evaluated window of one SLO scope. */
struct SloWindow
{
    std::int64_t w = 0;
    std::uint64_t steps = 0;
    std::uint64_t withinTarget = 0;
    double p99Sec = 0.0;
    bool breach = false;
};

/** One monitored scope: a priority class or the global aggregate. */
struct SloScope
{
    std::string name; ///< "global" or "priority <p>"
    double targetSec = 0.0;
    std::vector<SloWindow> windows; ///< window-sorted

    // Run-level attainment summary.
    std::uint64_t steps = 0;
    std::uint64_t withinTarget = 0;
    std::size_t breachedWindows = 0;
    double worstP99Sec = 0.0;
    std::int64_t worstWindow = 0;

    /** 100 * withinTarget / steps (NaN when no step ran). */
    double attainmentPct() const;
};

struct SloReport
{
    std::vector<SloScope> scopes;

    bool
    any() const
    {
        return !scopes.empty();
    }
};

/**
 * Everything one telemetry-enabled run produces. The CLI layer owns
 * it (obs::CliObs), the engines fill it at their sequential publish
 * points, and finish() renders it. All fields are pure functions of
 * the simulated work, so the rendered document is byte-identical
 * across --threads and reruns.
 */
struct RunTelemetry
{
    /** --obs-window-s; <= 0 resolves to trace span / 64 at run time. */
    double windowSec = 0.0;

    SloSpec slo;

    TimeSeriesSnapshot snapshot;
    SloReport report;

    /** Per-step decomposition audit: every step's components must
     *  reconstruct its latency bitwise; failures stay 0 by design and
     *  CI asserts as much. */
    std::uint64_t decompSteps = 0;
    std::uint64_t decompExactFailures = 0;

    /** 1 / windowSec, set by resolveWindow. */
    double invWindowSec = 0.0;

    /**
     * Pin the window width before the run: an explicit positive
     * windowSec stands; otherwise spanSec / 64 (or 1s for an empty
     * span). Deterministic -- spanSec must come from the input trace
     * or workload, never from measured state. Returns false, leaving
     * the bundle unresolved and *error naming --obs-window-s, when
     * spanSec / windowSec is 2^53 or more: window indices that large
     * stop being exact integers and soon leave the int64 range.
     */
    bool resolveWindow(double spanSec, std::string *error);

    /** Render the whole diva-timeseries-v1 document. */
    void writeJson(std::ostream &os) const;

    /** Flat CSV form: kind,series,window,t0_s,value rows. */
    void writeCsv(std::ostream &os) const;

    /** Run-level SLO attainment table (stderr reporting). */
    void printSloSummary(std::ostream &os) const;
};

/**
 * Fold merged per-priority latency windows into the telemetry bundle:
 * per-priority and aggregate component series + per-window latency
 * sketches into the snapshot, and -- when the spec monitors anything
 * -- the SLO report. `byPriority` maps priority -> window -> row,
 * each row the fixed-order merge of that priority's per-writer
 * ComponentWindows rows; `prefix` namespaces the series (empty for
 * the fleet, "serve.<policy>." for the tenant loop).
 */
void publishLatencyWindows(
    const std::map<int, std::map<std::int64_t, ComponentWindows::Row>>
        &byPriority,
    const std::string &prefix, RunTelemetry *telemetry);

/**
 * Merge `rows` (one writer's flushed windows) into the cross-writer
 * accumulator `into`. Call in a fixed writer order (pod index order):
 * the float sums replay in that order, keeping them byte-stable.
 */
void mergeComponentRows(const std::vector<ComponentWindows::Row> &rows,
                        std::map<std::int64_t, ComponentWindows::Row>
                            *into);

/**
 * Emit one scope's merged windows as the standard component series
 * (`<base>steps`, `<base>queue_wait_s`, ..., `<base>total_s`) plus
 * the `<base>step_latency_s` sketch. publishLatencyWindows uses this
 * for the priority scopes; the tenant loop reuses it for per-tenant
 * series.
 */
void publishComponentSeries(
    const std::map<std::int64_t, ComponentWindows::Row> &rows,
    const std::string &base, TimeSeriesSnapshot *snap);

} // namespace obs
} // namespace diva

#endif // DIVA_OBS_SLO_H
