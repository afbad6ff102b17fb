/**
 * @file
 * Tests of the windowed telemetry layer (src/obs/): quantile-sketch
 * exactness on all-equal samples, sub-bucket-width spreads, the
 * documented 1/16 relative error bound cross-checked against the
 * exact nearest-rank percentiles in src/common/percentile.cc,
 * merge order-independence, the underflow/top buckets' edge
 * samples, window-edge determinism and index saturation, the bitwise
 * latency-decomposition invariant (fast and slow paths), the SLO spec
 * parser, and end-to-end byte-determinism of the fleet and serve-loop
 * telemetry across engine thread counts and warm plan caches --
 * including that turning telemetry on perturbs no existing output --
 * and both engines' refusal of a window too narrow for the span.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "arrivals/generate.h"
#include "common/percentile.h"
#include "fleet/emit.h"
#include "fleet/engine.h"
#include "fleet/fleet.h"
#include "obs/slo.h"
#include "tenant/emit.h"
#include "tenant/serve.h"

namespace diva
{
namespace
{

using obs::ComponentWindows;
using obs::LatencyComponents;
using obs::QuantileSketch;

/** Deterministic xorshift64* stream (tests must not use rand()). */
struct Rng
{
    std::uint64_t state;

    std::uint64_t
    next()
    {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        return state * 0x2545F4914F6CDD1DULL;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return double(next() >> 11) * 0x1p-53;
    }
};

TEST(QuantileSketchTest, AllEqualSamplesAreExact)
{
    QuantileSketch sk;
    for (int i = 0; i < 1000; ++i)
        sk.add(0.125);
    EXPECT_EQ(sk.count(), 1000u);
    for (double p : {0.0, 1.0, 50.0, 95.0, 99.0, 100.0})
        EXPECT_EQ(sk.percentile(p), 0.125) << "p" << p;
}

TEST(QuantileSketchTest, SubBucketWidthSpreadStaysWithinMinMax)
{
    // All samples land inside one bucket: [1.0, 1.0625). Every
    // percentile must then be clamped into [min, max] -- never the
    // raw bucket upper bound, which exceeds the largest sample.
    QuantileSketch sk;
    const std::vector<double> vals = {1.0, 1.01, 1.02, 1.05, 1.06};
    for (double v : vals)
        sk.add(v);
    EXPECT_EQ(QuantileSketch::bucketIndex(vals.front()),
              QuantileSketch::bucketIndex(vals.back()));
    for (double p : {0.0, 50.0, 99.0, 100.0}) {
        const double r = sk.percentile(p);
        EXPECT_GE(r, 1.0) << "p" << p;
        EXPECT_LE(r, 1.06) << "p" << p;
    }
}

TEST(QuantileSketchTest, BucketIndexIsMonotone)
{
    Rng rng{7};
    double prev = 0.0;
    int prevIdx = QuantileSketch::bucketIndex(prev);
    std::vector<double> vals;
    for (int i = 0; i < 4096; ++i)
        vals.push_back(std::exp((rng.uniform() - 0.5) * 80.0));
    std::sort(vals.begin(), vals.end());
    for (double v : vals) {
        const int idx = QuantileSketch::bucketIndex(v);
        EXPECT_GE(idx, prevIdx) << v << " after " << prev;
        // The documented bound: upper(v's bucket) in [v, v * 17/16].
        EXPECT_GE(QuantileSketch::bucketUpperBound(idx), v);
        EXPECT_LE(QuantileSketch::bucketUpperBound(idx),
                  v * (1.0 + QuantileSketch::kRelativeError));
        prev = v;
        prevIdx = idx;
    }
}

TEST(QuantileSketchTest, ErrorBoundHoldsAgainstExactPercentiles)
{
    // Log-uniform latencies over ~6 decades, cross-checked against
    // the exact nearest-rank selection in common/percentile.cc: the
    // sketch may overestimate by at most kRelativeError and must
    // never underestimate.
    Rng rng{42};
    QuantileSketch sk;
    std::vector<double> samples;
    for (int i = 0; i < 20000; ++i) {
        const double v = std::pow(10.0, rng.uniform() * 6.0 - 4.0);
        samples.push_back(v);
        sk.add(v);
    }
    std::sort(samples.begin(), samples.end());
    for (double p : {1.0, 10.0, 50.0, 90.0, 95.0, 99.0, 99.9}) {
        const double exact = percentileSorted(samples, p);
        const double approx = sk.percentile(p);
        EXPECT_GE(approx, exact) << "p" << p;
        EXPECT_LE(approx,
                  exact * (1.0 + QuantileSketch::kRelativeError))
            << "p" << p;
    }
    EXPECT_EQ(sk.minValue(), samples.front());
    EXPECT_EQ(sk.maxValue(), samples.back());
}

TEST(QuantileSketchTest, MergeIsOrderIndependent)
{
    Rng rng{9};
    std::vector<QuantileSketch> shards(4);
    QuantileSketch whole;
    for (int i = 0; i < 8000; ++i) {
        const double v = 1e-3 + rng.uniform() * 10.0;
        shards[i % 4].add(v);
        whole.add(v);
    }

    auto mergedIn = [&](std::vector<int> order) {
        QuantileSketch m;
        for (int s : order)
            m.merge(shards[std::size_t(s)]);
        return m;
    };
    const QuantileSketch a = mergedIn({0, 1, 2, 3});
    const QuantileSketch b = mergedIn({3, 1, 0, 2});

    EXPECT_EQ(a.count(), whole.count());
    EXPECT_EQ(a.buckets(), b.buckets());
    EXPECT_EQ(a.buckets(), whole.buckets());
    EXPECT_EQ(a.minValue(), b.minValue());
    EXPECT_EQ(a.maxValue(), b.maxValue());
    for (double p : {50.0, 95.0, 99.0}) {
        EXPECT_EQ(a.percentile(p), b.percentile(p)) << "p" << p;
        EXPECT_EQ(a.percentile(p), whole.percentile(p)) << "p" << p;
    }
}

TEST(QuantileSketchTest, EmptyAndNaNHandling)
{
    QuantileSketch sk;
    EXPECT_TRUE(sk.empty());
    EXPECT_TRUE(std::isnan(sk.percentile(99.0)));
    sk.add(std::numeric_limits<double>::quiet_NaN());
    EXPECT_TRUE(sk.empty()) << "NaN samples are excluded";
    sk.add(2.0);
    EXPECT_EQ(sk.count(), 1u);
    EXPECT_EQ(sk.percentile(50.0), 2.0);
}

TEST(QuantileSketchTest, EdgeSamplesFileIntoTheEndBuckets)
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const int under = QuantileSketch::kUnderflowBucket;
    EXPECT_EQ(QuantileSketch::bucketUpperBound(under), 0.0);
    for (const double v : {0.0, -0.0, -1.0, -1e300, -kInf})
        EXPECT_EQ(QuantileSketch::bucketIndex(v), under) << v;

    const int top = QuantileSketch::bucketIndex(kInf);
    EXPECT_EQ(QuantileSketch::bucketUpperBound(top), kInf);
    EXPECT_GT(top, QuantileSketch::bucketIndex(
                       std::numeric_limits<double>::max()));

    for (const double v :
         {1e-300, std::numeric_limits<double>::denorm_min()}) {
        const int idx = QuantileSketch::bucketIndex(v);
        EXPECT_GT(idx, under) << v;
        EXPECT_GE(QuantileSketch::bucketUpperBound(idx), v) << v;
    }

    QuantileSketch sk;
    sk.add(std::numeric_limits<double>::quiet_NaN());
    for (const double v : {0.0, -0.0, -1.0, -1e300, -kInf, kInf})
        sk.add(v);
    EXPECT_EQ(sk.count(), 6u) << "NaN samples are not counted";
    const std::map<int, std::uint64_t> expect = {{under, 5}, {top, 1}};
    EXPECT_EQ(sk.buckets(), expect);
}

TEST(QuantileSketchTest, AllNegativePercentilesStayWithinMinMax)
{
    // Every sample shares the underflow bucket, whose bound (0) lies
    // above them all: the clamp must pull each percentile back into
    // [min, max].
    QuantileSketch sk;
    for (const double v : {-3.0, -2.5, -1.0, -0.5, -1e-9})
        sk.add(v);
    for (const double p : {0.0, 1.0, 50.0, 95.0, 99.0, 100.0}) {
        const double r = sk.percentile(p);
        EXPECT_GE(r, sk.minValue()) << "p" << p;
        EXPECT_LE(r, sk.maxValue()) << "p" << p;
    }
}

TEST(TimeSeriesWindowTest, EdgeSamplesLandDeterministically)
{
    // Power-of-two window: t * (1/W) is exact, so an edge sample
    // lands in the upper window -- the documented rule.
    const double inv = 1.0 / 0.25;
    EXPECT_EQ(obs::windowIndexOf(0.0, inv), 0);
    EXPECT_EQ(obs::windowIndexOf(0.249999, inv), 0);
    EXPECT_EQ(obs::windowIndexOf(0.25, inv), 1);
    EXPECT_EQ(obs::windowIndexOf(0.5, inv), 2);
    EXPECT_EQ(obs::windowIndexOf(
                  std::nextafter(0.25, 0.0), inv),
              0);

    // Non-power-of-two widths still give one fixed, run-independent
    // answer per (t, W) pair -- spot-check stability over a scan.
    const double inv3 = 1.0 / 0.3;
    for (int i = 0; i < 1000; ++i) {
        const double t = double(i) * 0.0301;
        EXPECT_EQ(obs::windowIndexOf(t, inv3),
                  std::int64_t(std::floor(t * inv3)));
    }
}

TEST(TimeSeriesWindowTest, UpperEdgeMatchesFloorExactly)
{
    // windowUpperEdge must be the exact threshold of the floor rule:
    // the edge itself crosses, its predecessor does not. Cover both
    // power-of-two and awkward widths across a range of windows.
    for (const double windowSec : {0.25, 0.5, 1.0, 0.3, 0.1, 0.0301}) {
        const double inv = 1.0 / windowSec;
        for (const std::int64_t w :
             {std::int64_t(0), std::int64_t(1), std::int64_t(7),
              std::int64_t(1000), std::int64_t(123456789)}) {
            const double e = obs::windowUpperEdge(w, windowSec, inv);
            EXPECT_GT(obs::windowIndexOf(e, inv), w)
                << "W=" << windowSec << " w=" << w;
            const double below = std::nextafter(
                e, -std::numeric_limits<double>::infinity());
            EXPECT_LE(obs::windowIndexOf(below, inv), w)
                << "W=" << windowSec << " w=" << w;
        }
    }
}

TEST(TimeSeriesWindowTest, IndicesSaturateAndTheTopWindowIsOpen)
{
    // 1e17 s over a 1 ms window is window 1e20, past int64: the index
    // saturates instead of converting out of range, and the top
    // window's upper edge is +inf so no finite time rolls past it.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    constexpr std::int64_t kTop = std::numeric_limits<std::int64_t>::max();
    const double inv = 1.0 / 0.001;
    EXPECT_EQ(obs::windowIndexOf(1e17, inv), kTop);
    EXPECT_EQ(obs::windowIndexOf(kInf, inv), kTop);
    EXPECT_EQ(obs::windowIndexOf(-1e17, inv),
              std::numeric_limits<std::int64_t>::min());
    EXPECT_EQ(obs::windowUpperEdge(kTop, 0.001, inv), kInf);

    // The window below the top still has an exact, finite edge.
    const double e = obs::windowUpperEdge(kTop - 1, 0.001, inv);
    EXPECT_TRUE(std::isfinite(e));
    EXPECT_EQ(obs::windowIndexOf(e, inv), kTop);
    EXPECT_LT(obs::windowIndexOf(std::nextafter(e, -kInf), inv), kTop);
}

/** Bitwise equality, stricter than EXPECT_EQ on doubles. */
bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
           std::bit_cast<std::uint64_t>(b);
}

TEST(DecomposeLatencyTest, FastPathIsExact)
{
    LatencyComponents c;
    EXPECT_TRUE(obs::decomposeLatencyAudited(1.5, 0.5, 0.0, 0.0, &c));
    EXPECT_TRUE(sameBits(obs::reconstructLatency(c), 1.5));
    EXPECT_EQ(c.queueWaitSec, 1.0);
    EXPECT_EQ(c.switchSec, 0.0);
    EXPECT_EQ(c.migrationSec, 0.0);
    EXPECT_EQ(c.serviceSec, 0.5);
}

TEST(DecomposeLatencyTest, ExactnessFuzzAcrossMagnitudes)
{
    Rng rng{1234};
    for (int i = 0; i < 200000; ++i) {
        // Magnitudes spanning ~12 decades, with overlaps that are
        // often zero (fast path) and sometimes larger than the
        // residual wait (forcing the slow-path fold-down ladder).
        const double scale = std::pow(10.0, rng.uniform() * 12.0 - 6.0);
        const double service = rng.uniform() * scale;
        const double wait = rng.uniform() * scale;
        const double total = service + wait;
        const bool stalls = (rng.next() & 3) == 0;
        const double sw =
            stalls ? rng.uniform() * wait * 1.5 : 0.0;
        const double mig =
            stalls && (rng.next() & 1) ? rng.uniform() * wait : 0.0;
        LatencyComponents c;
        const bool exact =
            obs::decomposeLatencyAudited(total, service, sw, mig, &c);
        ASSERT_TRUE(exact) << "total=" << total << " service=" << service
                           << " sw=" << sw << " mig=" << mig;
        ASSERT_TRUE(sameBits(obs::reconstructLatency(c), total))
            << "total=" << total << " service=" << service
            << " sw=" << sw << " mig=" << mig;
        EXPECT_GE(c.serviceSec, 0.0);
    }
}

TEST(ComponentWindowsTest, RollsWindowsAndCountsTargets)
{
    ComponentWindows cw;
    cw.configure(1.0, 0.6, 1.0); // 1s windows, target 0.6s, global 1s

    auto step = [&](double end, double total) {
        LatencyComponents c;
        EXPECT_TRUE(obs::decomposeLatencyAudited(total, total * 0.5, 0.0,
                                                 0.0, &c));
        cw.record(end, total, c);
    };
    step(0.3, 0.5); // window 0, within both targets
    step(0.9, 0.8); // window 0, misses 0.6 target, within global
    step(2.1, 1.5); // window 2, misses both
    cw.finish();

    ASSERT_EQ(cw.rows().size(), 2u);
    const ComponentWindows::Row &w0 = cw.rows()[0];
    EXPECT_EQ(w0.w, 0);
    EXPECT_EQ(w0.steps, 2u);
    EXPECT_EQ(w0.withinTarget, 1u);
    EXPECT_EQ(w0.withinGlobal, 2u);
    EXPECT_DOUBLE_EQ(w0.totalSec, 1.3);
    EXPECT_DOUBLE_EQ(w0.serviceSec, 0.65);
    EXPECT_EQ(w0.sketch.count(), 2u);
    const ComponentWindows::Row &w2 = cw.rows()[1];
    EXPECT_EQ(w2.w, 2);
    EXPECT_EQ(w2.steps, 1u);
    EXPECT_EQ(w2.withinTarget, 0u);
    EXPECT_EQ(w2.withinGlobal, 0u);
}

TEST(SloSpecTest, ParseAcceptsGlobalAndPerPriority)
{
    obs::SloSpec s;
    std::string err;
    ASSERT_TRUE(obs::parseSloSpec("0.5", &s, &err)) << err;
    EXPECT_DOUBLE_EQ(s.globalTargetSec, 0.5);
    EXPECT_TRUE(s.perPriority.empty());
    EXPECT_DOUBLE_EQ(s.targetFor(7), 0.5);

    s = {};
    ASSERT_TRUE(obs::parseSloSpec("0.5,1:0.2,0:0.8", &s, &err)) << err;
    EXPECT_DOUBLE_EQ(s.globalTargetSec, 0.5);
    ASSERT_EQ(s.perPriority.size(), 2u);
    EXPECT_EQ(s.perPriority[0].first, 0) << "sorted by priority";
    EXPECT_DOUBLE_EQ(s.targetFor(1), 0.2);
    EXPECT_DOUBLE_EQ(s.targetFor(0), 0.8);
    EXPECT_DOUBLE_EQ(s.targetFor(2), 0.5) << "falls back to global";
}

TEST(SloSpecTest, ParseRejectsMalformedSpecs)
{
    for (const char *bad :
         {"", "x", "1:", ":0.5", "0", "-1", "1:0", "1:-2",
          "1:0.2,1:0.3", "0.5,0.6", "1:0.2,"}) {
        obs::SloSpec s;
        std::string err;
        EXPECT_FALSE(obs::parseSloSpec(bad, &s, &err))
            << "accepted '" << bad << "'";
        EXPECT_NE(err.find("--slo-p99-s"), std::string::npos) << bad;
    }
}

/** A serve job with explicit steps, arrival and priority. */
TenantJob
job(const std::string &name, double arrival, std::uint64_t steps,
    int priority)
{
    TenantJob j;
    j.name = name;
    j.model = "SqueezeNet";
    j.batch = 8;
    j.arrivalSec = arrival;
    j.steps = steps;
    j.priority = priority;
    return j;
}

TEST(ServeTelemetryTest, DecompositionAuditsCleanAndSeriesAppear)
{
    ServeSpec s;
    s.workload.name = "test";
    s.workload.jobs = {job("a", 0.0, 40, 0), job("b", 0.1, 40, 1)};
    s.config = divaDefault(true);
    s.policy = SchedPolicy::kRoundRobin;

    obs::RunTelemetry tel;
    tel.windowSec = 1.0;
    std::string err;
    ASSERT_TRUE(obs::parseSloSpec("0.5,1:0.25", &tel.slo, &err)) << err;
    s.opts.telemetry = &tel;

    IterationCost cost;
    cost.seconds = 0.05;
    cost.energyJ = 1.0;
    cost.resolvedBatch = 8;
    SwitchCost sw;
    sw.seconds = 0.01;
    sw.energyJ = 0.5;
    sw.dramBytes = 1024;
    const ServeResult r =
        runServeLoop(s, {cost, cost}, sw);
    ASSERT_TRUE(r.ok()) << r.error;

    EXPECT_EQ(tel.decompSteps, 80u);
    EXPECT_EQ(tel.decompExactFailures, 0u);
    EXPECT_GT(tel.snapshot.series.count("serve.rr.tenant.a.steps"),
              0u);
    EXPECT_GT(tel.snapshot.series.count("serve.rr.lat.all.service_s"),
              0u);
    EXPECT_GT(tel.snapshot.series.count("serve.rr.switches"), 0u);
    EXPECT_GT(tel.snapshot.sketches.count(
                  "serve.rr.lat.all.step_latency_s"),
              0u);
    ASSERT_TRUE(tel.report.any());

    // Per window, the component sums must reconstruct the total to
    // rounding (the bitwise invariant is per step; window sums of
    // each component accumulate independently).
    const auto &series = tel.snapshot.series;
    const auto &total = series.at("serve.rr.lat.all.total_s").points;
    for (const auto &[w, t] : total) {
        const double sum =
            series.at("serve.rr.lat.all.queue_wait_s").points.at(w) +
            series.at("serve.rr.lat.all.switch_s").points.at(w) +
            series.at("serve.rr.lat.all.migration_s").points.at(w) +
            series.at("serve.rr.lat.all.service_s").points.at(w);
        EXPECT_NEAR(sum, t, 1e-9 * std::max(1.0, std::abs(t)));
    }

    // The telemetry hook must not perturb the serve results: a run
    // without it emits identical CSV/JSON bytes.
    ServeSpec off = s;
    off.opts.telemetry = nullptr;
    const ServeResult r2 = runServeLoop(off, {cost, cost}, sw);
    ASSERT_TRUE(r2.ok()) << r2.error;
    auto emit = [](const ServeResult &res) {
        std::ostringstream os;
        writeServeCsv(os, {res});
        writeServeJson(os, {res});
        return os.str();
    };
    EXPECT_EQ(emit(r), emit(r2));
}

/** A short trace moved to ~1e17 s, where one ulp of the clock is
 *  16 s: a 1 ms window there is window ~1e20, past int64. */
ArrivalTrace
farFutureTrace()
{
    std::string err;
    const auto gen = parseTraceGenSpec(
        "poisson:rate=4,horizon=4,seed=3,cap=6,steps=20,qos=0", &err);
    EXPECT_TRUE(gen.has_value()) << err;
    ArrivalTrace t = generateTrace(*gen);
    for (TenantJob &j : t.jobs)
        j.arrivalSec += 1e17;
    return t;
}

/** Every window index in the snapshot, series and sketches alike. */
std::vector<std::int64_t>
windowsOf(const obs::TimeSeriesSnapshot &snap)
{
    std::vector<std::int64_t> ws;
    for (const auto &[name, series] : snap.series)
        for (const auto &[w, value] : series.points)
            ws.push_back(w);
    for (const auto &[name, sketches] : snap.sketches)
        for (const auto &[w, sk] : sketches)
            ws.push_back(w);
    return ws;
}

TEST(ServeTelemetryTest, TooManyWindowsForTheSpanAreRejected)
{
    ServeSpec s;
    s.workload.name = "far";
    s.workload.jobs = farFutureTrace().jobs;
    s.config = divaDefault(true);
    s.opts.openLoop = true;
    IterationCost cost;
    cost.seconds = 0.002;
    cost.energyJ = 1.0;
    cost.resolvedBatch = 8;
    const std::vector<IterationCost> costs(s.workload.jobs.size(), cost);

    obs::RunTelemetry pinned;
    pinned.windowSec = 0.001;
    s.opts.telemetry = &pinned;
    const ServeResult bad = runServeLoop(s, costs, SwitchCost{});
    EXPECT_FALSE(bad.ok());
    EXPECT_NE(bad.error.find("--obs-window-s"), std::string::npos)
        << bad.error;

    obs::RunTelemetry automatic;
    s.opts.telemetry = &automatic;
    const ServeResult r = runServeLoop(s, costs, SwitchCost{});
    ASSERT_TRUE(r.ok()) << r.error;
    const std::vector<std::int64_t> ws = windowsOf(automatic.snapshot);
    EXPECT_FALSE(ws.empty());
    for (const std::int64_t w : ws)
        EXPECT_GE(w, 0);
}

TEST(FleetTelemetryTest, TooManyWindowsForTheSpanAreRejected)
{
    const ArrivalTrace t = farFutureTrace();
    const FleetSpec spec = buildFleet({defaultPodGroup(2)});
    SweepRunner runner;

    obs::RunTelemetry pinned;
    pinned.windowSec = 0.001;
    const FleetResult bad =
        simulateFleet(spec, t, runner, 1, nullptr, &pinned);
    EXPECT_FALSE(bad.ok());
    EXPECT_NE(bad.error.find("--obs-window-s"), std::string::npos)
        << bad.error;

    obs::RunTelemetry automatic;
    const FleetResult r =
        simulateFleet(spec, t, runner, 1, nullptr, &automatic);
    ASSERT_TRUE(r.ok()) << r.error;
    const std::vector<std::int64_t> ws = windowsOf(automatic.snapshot);
    EXPECT_FALSE(ws.empty());
    for (const std::int64_t w : ws)
        EXPECT_GE(w, 0);
}

TEST(FleetTelemetryTest, ByteIdenticalAcrossThreadsAndReruns)
{
    std::string err;
    const auto gen = parseTraceGenSpec(
        "diurnal:rate=24,horizon=6,seed=11,qos=4,hold=4,cap=160",
        &err);
    ASSERT_TRUE(gen.has_value()) << err;
    const ArrivalTrace t = generateTrace(*gen);
    ASSERT_FALSE(t.jobs.empty());

    const auto group = parsePodTemplate("df=DiVa,count=3", &err);
    ASSERT_TRUE(group.has_value()) << err;
    const auto extra = parsePodTemplate("df=OS", &err);
    ASSERT_TRUE(extra.has_value()) << err;
    FleetSpec spec = buildFleet({*group, *extra});
    spec.placement = PlacementKind::kLoadAware;
    spec.rebalance.enabled = true;
    spec.controlIntervalSec = 0.5;

    auto runWith = [&](int threads, std::string *fleetBytes) {
        obs::RunTelemetry tel;
        std::string perr;
        EXPECT_TRUE(
            obs::parseSloSpec("0.5,1:0.25", &tel.slo, &perr))
            << perr;
        SweepOptions opts;
        opts.threads = threads;
        SweepRunner runner(opts);
        const FleetResult r =
            simulateFleet(spec, t, runner, threads, nullptr, &tel);
        EXPECT_TRUE(r.ok()) << r.error;
        EXPECT_GT(tel.decompSteps, 0u);
        EXPECT_EQ(tel.decompExactFailures, 0u);
        EXPECT_FALSE(tel.snapshot.empty());
        std::ostringstream fb;
        writeFleetTenantCsv(fb, r);
        writeFleetPodCsv(fb, r);
        writeFleetJson(fb, r, true);
        *fleetBytes = fb.str();
        std::ostringstream ts;
        tel.writeJson(ts);
        std::ostringstream cs;
        tel.writeCsv(cs);
        return ts.str() + "\n====\n" + cs.str();
    };

    std::string fleet1, fleet4, fleetWarm;
    const std::string serial = runWith(1, &fleet1);
    const std::string threaded = runWith(4, &fleet4);
    EXPECT_EQ(serial, threaded);
    EXPECT_EQ(fleet1, fleet4);

    // Rerun against the warm plan cache: cache state must not leak
    // into either the fleet emitters or the telemetry document.
    const std::string warm = runWith(4, &fleetWarm);
    EXPECT_EQ(serial, warm);
    EXPECT_EQ(fleet1, fleetWarm);

    // Telemetry off: the fleet CSV/JSON stays bitwise what it was.
    SweepOptions opts;
    SweepRunner runner(opts);
    const FleetResult off = simulateFleet(spec, t, runner, 1);
    ASSERT_TRUE(off.ok()) << off.error;
    std::ostringstream ob;
    writeFleetTenantCsv(ob, off);
    writeFleetPodCsv(ob, off);
    writeFleetJson(ob, off, true);
    EXPECT_EQ(ob.str(), fleet1);
}

} // namespace
} // namespace diva
