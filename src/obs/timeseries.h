/**
 * @file
 * Windowed sim-time telemetry: fixed-width windows over the simulated
 * clock, per-window counter/sum/gauge series, per-window latency
 * sketches, and the exact per-step latency decomposition feeding them.
 *
 * Determinism contract (the point of the whole layer): every value
 * here is a pure function of the simulated work. Series and sketches
 * are accumulated single-writer in sim order (one tenant, one
 * priority class on one pod, one pod), then merged at a sequential
 * publish point in a fixed order (pod index order) -- the same
 * shard-merge discipline MetricsRegistry uses, with the merge order
 * pinned so floating-point sums cannot depend on the thread count.
 * The emitted document is name- and window-sorted, so the byte stream
 * is identical across --threads and reruns.
 *
 * Window rule: an event at simulated time t lands in window
 * floor(t * (1/windowSec)), i.e. window w covers [w*W, (w+1)*W). The
 * product form makes the edge case deterministic: a sample exactly on
 * a window edge lands in the upper window whenever t * (1/W) is exact
 * (always for power-of-two W), and on a fixed, run-independent side
 * otherwise.
 */

#ifndef DIVA_OBS_TIMESERIES_H
#define DIVA_OBS_TIMESERIES_H

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "obs/sketch.h"

namespace diva
{
namespace obs
{

/**
 * The window holding sim-time `tSec` (see the file comment),
 * saturated to the int64 range: converting a floor outside it is
 * undefined behaviour, so a time past the last representable window
 * lands in the top window instead. RunTelemetry::resolveWindow
 * rejects a run whose trace span alone would need 2^53 windows or
 * more, so only a clock running far past the span can saturate.
 */
inline std::int64_t
windowIndexOf(double tSec, double invWindowSec)
{
    const double w = std::floor(tSec * invWindowSec);
    if (!(w < 0x1p63)) // and NaN
        return std::numeric_limits<std::int64_t>::max();
    if (w < -0x1p63)
        return std::numeric_limits<std::int64_t>::min();
    return std::int64_t(w);
}

/**
 * The exact upper edge of window `w`: the smallest double t with
 * windowIndexOf(t, invWindowSec) > w, and +inf for the top window,
 * which nothing lies above. Lets hot loops replace the per-event
 * floor with one compare against a cached edge --
 * `t >= windowUpperEdge(w, ...)` is bitwise-equivalent to
 * `windowIndexOf(t, ...) > w` for every finite t, including the ulp
 * neighborhood of the edge for non-power-of-two windows.
 */
double windowUpperEdge(std::int64_t w, double windowSec,
                       double invWindowSec);

/**
 * One step's end-to-end latency split into where the time went:
 *
 *   queueWaitSec  -- eligible-to-dispatch time not otherwise billed
 *                    (may be a few ulps negative: it absorbs the
 *                    rounding of the other components)
 *   switchSec     -- context-switch stall overlapping the wait
 *   migrationSec  -- migration state-transfer stall overlapping the
 *                    wait (fleet only)
 *   serviceSec    -- the step's own execution time
 *
 * Invariant (enforced by decomposeLatencyAudited, checked per step by
 * the engines): reconstructLatency(c) == the step's emitted latency,
 * bitwise, so the existing p50/p95/p99 columns are untouched.
 */
struct LatencyComponents
{
    double queueWaitSec = 0.0;
    double switchSec = 0.0;
    double migrationSec = 0.0;
    double serviceSec = 0.0;
};

/** The fixed-order sum the exactness invariant is defined over. */
inline double
reconstructLatency(const LatencyComponents &c)
{
    return ((c.queueWaitSec + c.switchSec) + c.migrationSec) +
           c.serviceSec;
}

/** Out-of-line fixup ladder (see decomposeLatencyAudited). */
LatencyComponents decomposeLatencySlow(double totalSec,
                                       double serviceSec,
                                       double switchOverlapSec,
                                       double migOverlapSec);

/**
 * Split `totalSec` (the step latency the engines already emit) into
 * components, given the measured service time and the switch /
 * migration stall overlaps, and audit the split: true means
 * reconstructLatency(*out) equals `totalSec`. The queue-wait component
 * is the residual, nudged by ulps where needed so the fixed-order
 * reconstruction is bitwise equal to `totalSec` -- never
 * approximately. The common serve-core case (no switch, no migration
 * stall ahead of the step) stays on this inline two-op path, where
 * the check q + s == totalSec IS the reconstruction (the zero
 * components add nothing), so the engines' per-step audit costs no
 * extra arithmetic there.
 */
inline bool
decomposeLatencyAudited(double totalSec, double serviceSec,
                        double switchOverlapSec, double migOverlapSec,
                        LatencyComponents *out)
{
    if (switchOverlapSec == 0.0 && migOverlapSec == 0.0) {
        const double q = totalSec - serviceSec;
        if (q + serviceSec == totalSec) {
            *out = {q, 0.0, 0.0, serviceSec};
            return true;
        }
    }
    *out = decomposeLatencySlow(totalSec, serviceSec,
                                switchOverlapSec, migOverlapSec);
    return reconstructLatency(*out) == totalSec;
}

/**
 * Single-writer window accumulator for one latency scope (a tenant, a
 * priority class on one pod). record() is called in sim-time order,
 * so rows flush in nondecreasing window order; finish() flushes the
 * open window. Cross-writer merging (the same priority class across
 * pods) happens later, in pod-index order, over the flushed rows.
 */
class ComponentWindows
{
  public:
    /** Row::w default: never a real window (events land at t >= 0,
     *  so real windows are >= 0), letting the recording hot path
     *  test "same window?" with one integer compare and no
     *  separate open flag. */
    static constexpr std::int64_t kNoWindow =
        std::numeric_limits<std::int64_t>::min();

    struct Row
    {
        std::int64_t w = kNoWindow;
        std::uint64_t steps = 0;
        /** Steps with total <= the scope's / the global p99 target. */
        std::uint64_t withinTarget = 0;
        std::uint64_t withinGlobal = 0;
        double queueWaitSec = 0.0;
        double switchSec = 0.0;
        double migrationSec = 0.0;
        double serviceSec = 0.0;
        double totalSec = 0.0;
        QuantileSketch sketch; ///< total-latency samples
    };

    void
    configure(double invWindowSec, double targetSec,
              double globalTargetSec)
    {
        // Disabled targets become -inf so the recording path can
        // count attainment branchlessly: totalSec <= -inf is false
        // for every sample, keeping the counts at zero.
        const double ninf =
            -std::numeric_limits<double>::infinity();
        inv_ = invWindowSec;
        target_ = targetSec > 0.0 ? targetSec : ninf;
        globalTarget_ = globalTargetSec > 0.0 ? globalTargetSec : ninf;
    }

    void
    record(double endSec, double totalSec,
           const LatencyComponents &c)
    {
        recordAt(windowIndexOf(endSec, inv_), totalSec, c);
    }

    /** record() with the window precomputed -- for callers that
     *  already derived it for their own bookkeeping this step. */
    void
    recordAt(std::int64_t w, double totalSec,
             const LatencyComponents &c)
    {
        if (w != cur_.w)
            roll(w);
        bump(totalSec);
        cur_.queueWaitSec += c.queueWaitSec;
        cur_.switchSec += c.switchSec;
        cur_.migrationSec += c.migrationSec;
        cur_.serviceSec += c.serviceSec;
        cur_.totalSec += totalSec;
        cur_.sketch.add(totalSec);
    }

    /**
     * recordAt for the stall-free fast path: the switch and migration
     * components are exactly zero, so their accumulators are left
     * untouched. Bit-identical to recordAt with zero components --
     * the stall overlaps are clamped nonnegative, so neither the
     * components nor the accumulators are ever -0.0, and x += +0.0
     * cannot change x's bits.
     */
    void
    recordAtFast(std::int64_t w, double totalSec,
                 double queueWaitSec, double serviceSec)
    {
        if (w != cur_.w)
            roll(w);
        bump(totalSec);
        cur_.queueWaitSec += queueWaitSec;
        cur_.serviceSec += serviceSec;
        cur_.totalSec += totalSec;
        cur_.sketch.add(totalSec);
    }

    /** Flush the open window; call once, after the last record(). */
    void
    finish()
    {
        if (cur_.steps > 0)
            rows_.push_back(std::move(cur_));
        cur_ = Row{};
    }

    /** Flushed rows, in nondecreasing window order. */
    const std::vector<Row> &
    rows() const
    {
        return rows_;
    }

  private:
    void
    bump(double totalSec)
    {
        ++cur_.steps;
        cur_.withinTarget += std::uint64_t(totalSec <= target_);
        cur_.withinGlobal +=
            std::uint64_t(totalSec <= globalTarget_);
    }

    void
    roll(std::int64_t w)
    {
        if (cur_.steps > 0)
            rows_.push_back(std::move(cur_));
        cur_ = Row{};
        cur_.w = w;
    }

    double inv_ = 0.0;
    double target_ = 0.0;
    double globalTarget_ = 0.0;
    Row cur_;
    std::vector<Row> rows_;
};

/** One named per-window series in the emitted document. */
struct TimeSeries
{
    enum class Kind
    {
        kCounter, ///< integer event counts, summed per window
        kSum,     ///< seconds/joules summed per window (pinned order)
        kGauge    ///< one sampled value per window (single writer)
    };

    Kind kind = Kind::kCounter;
    std::map<std::int64_t, double> points; ///< window -> value
};

const char *timeSeriesKindName(TimeSeries::Kind kind);

/**
 * The merged, emit-ready document body: name-sorted series and
 * sketches, each window-sorted. Filled only from sequential code (the
 * engines' assemble/publish points), in a fixed order, so every float
 * in it is independent of the worker count.
 */
class TimeSeriesSnapshot
{
  public:
    double windowSec = 0.0;

    std::map<std::string, TimeSeries> series;
    std::map<std::string, std::map<std::int64_t, QuantileSketch>>
        sketches;

    /** Accumulate `delta` into (name, window). */
    void
    add(const std::string &name, TimeSeries::Kind kind,
        std::int64_t w, double delta)
    {
        seriesRef(name, kind).points[w] += delta;
    }

    /** The named series, created with `kind` on first use. Publishers
     *  emitting many windows of one series hoist this lookup out of
     *  their window loop. */
    TimeSeries &
    seriesRef(const std::string &name, TimeSeries::Kind kind)
    {
        TimeSeries &s = series[name];
        s.kind = kind;
        return s;
    }

    /** Set (name, window) outright -- gauges with one writer. */
    void
    set(const std::string &name, std::int64_t w, double value)
    {
        TimeSeries &s = series[name];
        s.kind = TimeSeries::Kind::kGauge;
        s.points[w] = value;
    }

    void
    mergeSketch(const std::string &name, std::int64_t w,
                const QuantileSketch &sk)
    {
        sketches[name][w].merge(sk);
    }

    bool
    empty() const
    {
        return series.empty() && sketches.empty();
    }
};

} // namespace obs
} // namespace diva

#endif // DIVA_OBS_TIMESERIES_H
