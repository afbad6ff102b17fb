/**
 * @file
 * Tests of the observability layer: metrics-histogram percentile
 * bounds against the exact nearest-rank implementation,
 * metrics-snapshot byte-identity across engine thread counts (the
 * registry's shard-merge determinism contract), trace span nesting
 * and per-track event caps, Chrome-trace JSON well-formedness, the
 * no-op guarantee (enabling collection does not perturb simulation
 * output), and stderr verbosity gating.
 */

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "arrivals/generate.h"
#include "common/logging.h"
#include "common/percentile.h"
#include "fleet/emit.h"
#include "fleet/engine.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace diva
{
namespace
{

/** Snapshot-as-JSON helper; the byte-identity tests compare these. */
std::string
metricsJson()
{
    std::ostringstream os;
    obs::MetricsRegistry::instance().snapshot().writeJson(os);
    return os.str();
}

/** RAII: enable the registry for one test, reset + disable after. */
struct ScopedMetrics
{
    ScopedMetrics()
    {
        obs::MetricsRegistry::instance().reset();
        obs::MetricsRegistry::instance().enable(true);
    }
    ~ScopedMetrics()
    {
        obs::MetricsRegistry::instance().enable(false);
        obs::MetricsRegistry::instance().reset();
    }
};

FleetSpec
smallFleet()
{
    std::string err;
    const auto diva_pods = parsePodTemplate("df=DiVa,count=2", &err);
    EXPECT_TRUE(diva_pods.has_value()) << err;
    const auto os_pods = parsePodTemplate("df=OS", &err);
    EXPECT_TRUE(os_pods.has_value()) << err;
    FleetSpec spec = buildFleet({*diva_pods, *os_pods});
    spec.placement = PlacementKind::kLoadAware;
    spec.rebalance.enabled = true;
    spec.controlIntervalSec = 0.5;
    return spec;
}

ArrivalTrace
smallTrace()
{
    std::string err;
    const auto gen = parseTraceGenSpec(
        "diurnal:rate=18,horizon=4,seed=11,qos=3,hold=3,cap=120", &err);
    EXPECT_TRUE(gen.has_value()) << err;
    return generateTrace(*gen);
}

TEST(ObsHistogram, PercentilesTrackExactNearestRank)
{
    ScopedMetrics scoped;
    auto &reg = obs::MetricsRegistry::instance();

    // A skewed latency-like sample set: many fast, few slow.
    std::vector<double> samples;
    for (int i = 1; i <= 200; ++i)
        samples.push_back(0.001 * double(i % 17 + 1));
    for (int i = 0; i < 10; ++i)
        samples.push_back(0.5 + 0.1 * double(i));
    for (double v : samples)
        reg.recordValue("test.latency", v);
    std::sort(samples.begin(), samples.end());

    const auto snap = reg.snapshot();
    const auto it = snap.histograms.find("test.latency");
    ASSERT_NE(it, snap.histograms.end());
    const obs::QuantileSketch &h = it->second;
    EXPECT_EQ(h.count(), samples.size());
    EXPECT_DOUBLE_EQ(h.minValue(), samples.front());
    EXPECT_DOUBLE_EQ(h.maxValue(), samples.back());

    // The sketched estimate is the upper bound of the bucket holding
    // the nearest-rank sample, so it is >= the exact value and within
    // the 1/16 relative bucket width (clamping to max can only bring
    // it closer).
    for (double p : {10.0, 50.0, 90.0, 95.0, 99.0, 100.0}) {
        const double exact = percentileSorted(samples, p);
        const double est = h.percentile(p);
        EXPECT_GE(est, exact) << "p" << p;
        EXPECT_LE(est, exact * (1.0 + obs::QuantileSketch::kRelativeError))
            << "p" << p;
    }
}

TEST(ObsHistogram, BatchRecordMatchesOneByOne)
{
    // recordValues takes one lookup and one lock for a whole run; it
    // must build the histogram per-sample recordValue calls build,
    // skipping NaNs alike, and a batch with nothing but NaNs must
    // leave no histogram behind.
    ScopedMetrics scoped;
    auto &reg = obs::MetricsRegistry::instance();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const std::vector<double> samples = {0.004, nan,  0.5, 0.004,
                                         3.0,   1e-6, nan, 0.25};
    for (double v : samples)
        reg.recordValue("test.one", v);
    reg.recordValues("test.batch", samples.data(), samples.size());
    reg.recordValues("test.none", &nan, 1);
    reg.recordValues("test.none", samples.data(), 0);

    const auto snap = reg.snapshot();
    ASSERT_EQ(snap.histograms.count("test.one"), 1u);
    ASSERT_EQ(snap.histograms.count("test.batch"), 1u);
    EXPECT_EQ(snap.histograms.count("test.none"), 0u);
    const obs::QuantileSketch &one = snap.histograms.at("test.one");
    const obs::QuantileSketch &batch = snap.histograms.at("test.batch");
    EXPECT_EQ(batch.count(), 6u);
    EXPECT_EQ(batch.count(), one.count());
    EXPECT_EQ(batch.minValue(), one.minValue());
    EXPECT_EQ(batch.maxValue(), one.maxValue());
    EXPECT_EQ(batch.buckets(), one.buckets());
}

TEST(ObsMetrics, CountersMergeAcrossShortLivedThreads)
{
    ScopedMetrics scoped;
    auto &reg = obs::MetricsRegistry::instance();

    // Fleet epochs spawn short-lived worker threads; their shards
    // must survive thread exit and merge into the snapshot.
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t)
        workers.emplace_back([&reg] {
            for (int i = 0; i < 1000; ++i)
                reg.addCounter("test.work");
        });
    for (std::thread &w : workers)
        w.join();
    reg.addCounter("test.work", 5);

    const auto snap = reg.snapshot();
    ASSERT_EQ(snap.counters.count("test.work"), 1u);
    EXPECT_EQ(snap.counters.at("test.work"), 4005u);
}

TEST(ObsMetrics, SnapshotIsByteIdenticalAcrossEngineThreadCounts)
{
    const FleetSpec spec = smallFleet();
    const ArrivalTrace trace = smallTrace();

    auto runAt = [&](int threads) {
        ScopedMetrics scoped;
        SweepOptions opts;
        opts.threads = 2;
        SweepRunner runner(opts);
        const FleetResult r = simulateFleet(spec, trace, runner, threads);
        EXPECT_TRUE(r.ok()) << r.error;
        return metricsJson();
    };

    const std::string one = runAt(1);
    const std::string four = runAt(4);
    EXPECT_FALSE(one.empty());
    EXPECT_TRUE(one == four)
        << "metrics snapshot diverged across engine thread counts";
    // The snapshot carries the headline fleet counters.
    EXPECT_NE(one.find("\"fleet.placed\""), std::string::npos);
    EXPECT_NE(one.find("\"serve_core.steps\""), std::string::npos);
    EXPECT_NE(one.find("\"fleet.step_latency_sec\""), std::string::npos);
}

TEST(ObsMetrics, DisabledRegistryRecordsNothing)
{
    auto &reg = obs::MetricsRegistry::instance();
    reg.reset();
    ASSERT_FALSE(reg.enabled());
    reg.addCounter("test.ignored");
    reg.recordValue("test.ignored_h", 1.0);
    reg.setGauge("test.ignored_g", 1.0);
    const auto snap = reg.snapshot();
    EXPECT_TRUE(snap.counters.empty());
    EXPECT_TRUE(snap.histograms.empty());
    EXPECT_TRUE(snap.gauges.empty());
}

TEST(ObsNoOp, EnablingCollectionDoesNotPerturbFleetOutput)
{
    const FleetSpec spec = smallFleet();
    const ArrivalTrace trace = smallTrace();

    auto emitAll = [](const FleetResult &r) {
        std::ostringstream os;
        writeFleetTenantCsv(os, r);
        writeFleetPodCsv(os, r);
        writeFleetJson(os, r, true);
        return os.str();
    };

    SweepRunner off_runner;
    const FleetResult off = simulateFleet(spec, trace, off_runner, 2);
    ASSERT_TRUE(off.ok()) << off.error;

    std::string with_obs;
    {
        ScopedMetrics scoped;
        obs::TraceSink sink;
        SweepRunner on_runner;
        const FleetResult on =
            simulateFleet(spec, trace, on_runner, 2, &sink);
        EXPECT_TRUE(on.ok()) << on.error;
        with_obs = emitAll(on);
    }
    EXPECT_TRUE(emitAll(off) == with_obs)
        << "collection perturbed the simulation output";
}

TEST(ObsTrace, SpansNestPerTrackAndJsonIsWellFormed)
{
    obs::TraceSink sink;
    const FleetSpec spec = smallFleet();
    const ArrivalTrace trace = smallTrace();
    SweepRunner runner;
    const FleetResult r = simulateFleet(spec, trace, runner, 2, &sink);
    ASSERT_TRUE(r.ok()) << r.error;

    std::ostringstream os;
    sink.write(os);
    const std::string json = os.str();
    ASSERT_FALSE(json.empty());
    EXPECT_EQ(json.rfind("{\n\"traceEvents\": [", 0), 0u) << json.substr(0, 40);
    EXPECT_NE(json.find("\"droppedEvents\": 0"), std::string::npos);
    // Balanced braces/brackets (events carry no nested strings with
    // braces beyond the escaped names, so a raw count is a fair
    // well-formedness smoke check).
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));

    // Per track: 'X' spans, visited in append order, must nest -- a
    // span either starts at/after the end of every still-open span
    // above it or lies entirely inside it. The fleet emits disjoint
    // sequential step spans per pod and tiling budget-epoch spans on
    // the control track, so this holds by construction.
    bool saw_span = false;
    for (int tid = 0; tid < int(spec.pods.size()) + 1; ++tid) {
        const obs::TraceTrack *track = sink.track(tid, "probe");
        ASSERT_NE(track, nullptr);
        std::vector<double> open_ends;
        for (const obs::TraceEvent &ev : track->events()) {
            if (ev.ph != 'X')
                continue;
            saw_span = true;
            const double t0 = ev.tsSec;
            const double t1 = ev.tsSec + ev.durSec;
            EXPECT_GE(ev.durSec, 0.0) << track->name();
            while (!open_ends.empty() &&
                   t0 >= open_ends.back() - 1e-12)
                open_ends.pop_back();
            if (!open_ends.empty())
                EXPECT_LE(t1, open_ends.back() + 1e-9)
                    << "span overlaps an open span on " << track->name();
            open_ends.push_back(t1);
        }
    }
    EXPECT_TRUE(saw_span) << "fleet run emitted no spans";
}

TEST(ObsTrace, PerTrackCapDropsAndCounts)
{
    obs::TraceSink sink(2);
    obs::TraceTrack *t = sink.track(0, "tiny");
    t->instant(0.0, "a", "test");
    t->instant(1.0, "b", "test");
    t->instant(2.0, "c", "test");
    t->instant(3.0, "d", "test");
    EXPECT_EQ(t->events().size(), 2u);
    EXPECT_EQ(t->dropped(), 2u);
    EXPECT_EQ(sink.dropped(), 2u);

    std::ostringstream os;
    sink.write(os);
    EXPECT_NE(os.str().find("\"droppedEvents\": 2"), std::string::npos);
}

TEST(ObsProfile, ScopedPhaseAccumulatesOnlyWhenEnabled)
{
    auto &prof = obs::Profiler::instance();
    prof.reset();
    {
        obs::ScopedPhase off("test_phase_off");
    }
    EXPECT_TRUE(prof.phases().empty());

    prof.enable(true);
    {
        obs::ScopedPhase on("test_phase_on");
    }
    {
        obs::ScopedPhase on("test_phase_on");
    }
    prof.enable(false);
    const auto phases = prof.phases();
    ASSERT_EQ(phases.count("test_phase_on"), 1u);
    EXPECT_EQ(phases.at("test_phase_on").calls, 2u);
    EXPECT_GE(phases.at("test_phase_on").seconds, 0.0);
    prof.reset();
}

TEST(ObsLogging, VerbosityGatesInformAndVerbose)
{
    // kQuiet drops warn/inform; kNormal drops verbose; kVerbose
    // prints everything.
    setLogVerbosity(LogVerbosity::kQuiet);
    testing::internal::CaptureStderr();
    DIVA_WARN("quiet-warn");
    DIVA_INFORM("quiet-inform");
    DIVA_VERBOSE("quiet-verbose");
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");

    setLogVerbosity(LogVerbosity::kNormal);
    testing::internal::CaptureStderr();
    DIVA_WARN("normal-warn");
    DIVA_VERBOSE("normal-verbose");
    std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("normal-warn"), std::string::npos);
    EXPECT_EQ(err.find("normal-verbose"), std::string::npos);

    setLogVerbosity(LogVerbosity::kVerbose);
    testing::internal::CaptureStderr();
    DIVA_VERBOSE("verbose-note");
    err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("verbose-note"), std::string::npos);
    setLogVerbosity(LogVerbosity::kNormal);
}

} // namespace
} // namespace diva
