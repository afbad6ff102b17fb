/**
 * @file
 * Tests of open-loop trace replay: departures ending sessions mid-run,
 * open-loop step issue (latency measured against the trace clock and
 * growing under overload), EDF <= FIFO on p99 step latency in a
 * constructed overload, admission control (ServeOptions::admission)
 * keeping the admitted subset's QoS attainment above the uncontrolled
 * run and serving exactly what a run over that subset serves, and
 * byte-determinism of replayed CSV across runner thread counts and
 * reruns.
 */

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "arrivals/generate.h"
#include "arrivals/replay.h"
#include "obs/slo.h"
#include "tenant/emit.h"
#include "tenant/serve.h"

namespace diva
{
namespace
{

TenantJob
job(const std::string &name, double arrival, std::uint64_t steps,
    double rate)
{
    TenantJob j;
    j.name = name;
    j.model = "SqueezeNet"; // irrelevant when costs are injected
    j.batch = 8;
    j.arrivalSec = arrival;
    j.steps = steps;
    j.qosStepsPerSec = rate;
    return j;
}

ServeSpec
spec(std::vector<TenantJob> jobs, SchedPolicy policy)
{
    ServeSpec s;
    s.workload.name = "test";
    s.workload.jobs = std::move(jobs);
    s.config = divaDefault(true);
    s.policy = policy;
    return s;
}

IterationCost
cost(double seconds)
{
    IterationCost c;
    c.seconds = seconds;
    c.energyJ = 1.0;
    c.resolvedBatch = 8;
    return c;
}

const SwitchCost kFreeSwitch{};

/** Bit-for-bit equality, with any NaN equal to any NaN. */
bool
sameBits(double a, double b)
{
    if (std::isnan(a) || std::isnan(b))
        return std::isnan(a) && std::isnan(b);
    return std::bit_cast<std::uint64_t>(a) ==
           std::bit_cast<std::uint64_t>(b);
}

void
expectSameLatency(const LatencyStats &a, const LatencyStats &b)
{
    EXPECT_EQ(a.count, b.count);
    EXPECT_TRUE(sameBits(a.meanSec, b.meanSec));
    EXPECT_TRUE(sameBits(a.p50Sec, b.p50Sec));
    EXPECT_TRUE(sameBits(a.p95Sec, b.p95Sec));
    EXPECT_TRUE(sameBits(a.p99Sec, b.p99Sec));
    EXPECT_TRUE(sameBits(a.maxSec, b.maxSec));
}

void
expectSameRow(const TenantMetrics &a, const TenantMetrics &b)
{
    SCOPED_TRACE(a.job.name);
    EXPECT_EQ(a.job.name, b.job.name);
    EXPECT_TRUE(sameBits(a.job.qosStepsPerSec, b.job.qosStepsPerSec));
    EXPECT_EQ(a.resolvedBatch, b.resolvedBatch);
    EXPECT_EQ(a.stepsDone, b.stepsDone);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.departed, b.departed);
    EXPECT_EQ(a.admitted, b.admitted);
    EXPECT_TRUE(sameBits(a.endSec, b.endSec));
    EXPECT_TRUE(sameBits(a.waitSec, b.waitSec));
    EXPECT_TRUE(sameBits(a.achievedStepsPerSec, b.achievedStepsPerSec));
    EXPECT_TRUE(sameBits(a.isolatedStepsPerSec, b.isolatedStepsPerSec));
    EXPECT_TRUE(sameBits(a.slowdown, b.slowdown));
    EXPECT_TRUE(sameBits(a.qosAttainmentPct, b.qosAttainmentPct));
    expectSameLatency(a.stepLatency, b.stepLatency);
    EXPECT_TRUE(sameBits(a.energyJ, b.energyJ));
    EXPECT_TRUE(sameBits(a.energyShare, b.energyShare));
    EXPECT_EQ(a.switchesIn, b.switchesIn);
}

TEST(Departure, SessionEndsAtDepartureWithStepsOutstanding)
{
    // 1 s/step, arrives at 0, departs at 3.5: exactly 3 steps run and
    // the session ends at its departure, not the sim end.
    TenantJob leaves = job("leaves", 0.0, 100, 0.0);
    leaves.departSec = 3.5;
    const ServeResult r =
        runServeLoop(spec({leaves, job("stays", 0.0, 10, 0.0)},
                          SchedPolicy::kFifo),
                     {cost(1.0), cost(1.0)}, kFreeSwitch);
    ASSERT_TRUE(r.ok()) << r.error;
    const TenantMetrics &t = r.tenants[0];
    EXPECT_EQ(t.stepsDone, 3u);
    EXPECT_FALSE(t.completed);
    EXPECT_TRUE(t.departed);
    EXPECT_LE(t.endSec, 3.5 + 1e-9);
    EXPECT_EQ(r.tenants[1].stepsDone, 10u) << "the other tenant runs on";
    EXPECT_FALSE(r.tenants[1].departed);
}

TEST(Departure, UnboundedStepsTerminateViaDeparture)
{
    // steps=0 with a departure is a bounded session: no wall needed.
    TenantJob session = job("session", 1.0, 0, 0.0);
    session.departSec = 5.0;
    const ServeResult r = runServeLoop(
        spec({session}, SchedPolicy::kFifo), {cost(1.0)}, kFreeSwitch);
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.tenants[0].stepsDone, 4u) << "t=1..5 fits 4 steps";
    EXPECT_TRUE(r.tenants[0].departed);

    // Without the departure the same job is rejected (cannot end).
    const ServeResult bad = runServeLoop(
        spec({job("forever", 1.0, 0, 0.0)}, SchedPolicy::kFifo),
        {cost(1.0)}, kFreeSwitch);
    EXPECT_FALSE(bad.ok());
}

TEST(Departure, ValidationRejectsDepartureBeforeArrival)
{
    TenantJob backwards = job("backwards", 5.0, 4, 0.0);
    backwards.departSec = 2.0;
    EXPECT_NE(backwards.validationError(false).find("departure"),
              std::string::npos);
    const ServeResult r =
        runServeLoop(spec({backwards}, SchedPolicy::kFifo),
                     {cost(1.0)}, kFreeSwitch);
    EXPECT_FALSE(r.ok());

    TenantJob negative = job("negative", -1.0, 4, 0.0);
    EXPECT_FALSE(negative.validationError(false).empty());
    TenantJob inf_qos = job("inf", 0.0, 4, 0.0);
    inf_qos.qosStepsPerSec = std::numeric_limits<double>::infinity();
    EXPECT_FALSE(inf_qos.validationError(false).empty());
    TenantJob nan_dl = job("nan", 0.0, 4, 0.0);
    nan_dl.qosDeadlineSec = std::nan("");
    EXPECT_FALSE(nan_dl.validationError(false).empty());
}

TEST(OpenLoop, StepsIssueByTheTraceClock)
{
    // Closed loop: a lone 0.1 s/step tenant with a 1 step/s target
    // races ahead of its schedule (10 steps/s). Open loop: steps wait
    // for their due times, so the run takes ~10 s and every latency
    // is the bare service time.
    ServeSpec s = spec({job("paced", 0.0, 10, 1.0)}, SchedPolicy::kFifo);
    const ServeResult closed =
        runServeLoop(s, {cost(0.1)}, kFreeSwitch);
    ASSERT_TRUE(closed.ok()) << closed.error;
    EXPECT_LT(closed.makespanSec, 2.0);

    s.opts.openLoop = true;
    const ServeResult open = runServeLoop(s, {cost(0.1)}, kFreeSwitch);
    ASSERT_TRUE(open.ok()) << open.error;
    // Step k due at k-1; the last (10th) step is due at t=9 and takes
    // 0.1 s.
    EXPECT_NEAR(open.makespanSec, 9.1, 1e-9);
    EXPECT_EQ(open.tenants[0].stepsDone, 10u);
    EXPECT_EQ(open.tenants[0].stepLatency.count, 10u);
    EXPECT_NEAR(open.tenants[0].stepLatency.p99Sec, 0.1, 1e-9);
    EXPECT_NEAR(open.tenants[0].stepLatency.p50Sec, 0.1, 1e-9);
}

TEST(OpenLoop, OverloadGrowsTailLatency)
{
    // Offered load 2 steps/s on a 1 step/s machine: the queue builds
    // and completion drifts ever further behind the due times, so p99
    // latency far exceeds p50.
    ServeSpec s =
        spec({job("swamped", 0.0, 16, 2.0)}, SchedPolicy::kFifo);
    s.opts.openLoop = true;
    const ServeResult r = runServeLoop(s, {cost(1.0)}, kFreeSwitch);
    ASSERT_TRUE(r.ok()) << r.error;
    const LatencyStats &lat = r.tenants[0].stepLatency;
    ASSERT_EQ(lat.count, 16u);
    // Step k due at (k-1)/2 but completes at k: latency grows
    // linearly from 1 s to 16 - 7.5 = 8.5 s.
    EXPECT_NEAR(lat.maxSec, 8.5, 1e-9);
    EXPECT_NEAR(lat.p99Sec, 8.5, 1e-9);
    EXPECT_NEAR(lat.p50Sec, 4.5, 1e-9);
    EXPECT_GT(lat.p99Sec, 1.5 * lat.p50Sec);
}

TEST(OpenLoop, EdfNoWorseThanFifoOnP99UnderOverload)
{
    // Constructed overload: a best-effort batch tenant (no target,
    // always runnable) plus a rate tenant whose steps are issued one
    // per second, on a 1 step/s machine. FIFO ties on arrival and
    // keeps serving the batch tenant's backlog, so the rate tenant's
    // due steps queue for 12 s; EDF serves the finite deadlines first
    // and the rate tenant's latency stays at the bare service time.
    const std::vector<TenantJob> mix = {
        job("batch", 0.0, 12, 0.0), job("rate", 0.0, 12, 1.0)};
    ServeSpec fifo = spec(mix, SchedPolicy::kFifo);
    fifo.opts.openLoop = true;
    ServeSpec edf = spec(mix, SchedPolicy::kEdf);
    edf.opts.openLoop = true;
    const std::vector<IterationCost> costs = {cost(1.0), cost(1.0)};
    const ServeResult f = runServeLoop(fifo, costs, kFreeSwitch);
    const ServeResult e = runServeLoop(edf, costs, kFreeSwitch);
    ASSERT_TRUE(f.ok()) << f.error;
    ASSERT_TRUE(e.ok()) << e.error;
    EXPECT_LE(e.aggStepLatency.p99Sec, f.aggStepLatency.p99Sec);
    EXPECT_LT(e.aggStepLatency.p95Sec, f.aggStepLatency.p95Sec);
    EXPECT_LT(e.tenants[1].stepLatency.p99Sec,
              f.tenants[1].stepLatency.p99Sec)
        << "the rate tenant is the one FIFO starves";
    EXPECT_GT(e.meanQosAttainmentPct, f.meanQosAttainmentPct);
}

TEST(Replay, AdmissionKeepsAttainmentAboveUncontrolledRun)
{
    // Three rate tenants demanding 0.6 of the machine each (1.8x
    // capacity). Uncontrolled, everyone misses; with admission, the
    // loop sheds the infeasible demand and the admitted tenant meets
    // its schedule.
    std::vector<TenantJob> mix;
    for (int i = 0; i < 3; ++i) {
        // 0.6 steps/s x cost 1.0 => demand 0.6
        TenantJob j =
            job("t" + std::to_string(i) + ":SqueezeNet", 0.0, 20, 0.6);
        j.priority = i;
        mix.push_back(j);
    }
    ServeSpec s = spec(mix, SchedPolicy::kEdf);
    s.opts.openLoop = true;
    const std::vector<IterationCost> costs = {cost(1.0), cost(1.0),
                                              cost(1.0)};
    const ServeResult all = runServeLoop(s, costs, kFreeSwitch);
    ASSERT_TRUE(all.ok()) << all.error;

    s.opts.admission = AdmissionOptions{};
    const ServeResult kept = runServeLoop(s, costs, kFreeSwitch);
    ASSERT_TRUE(kept.ok()) << kept.error;
    EXPECT_EQ(kept.admittedCount(), 1u) << "0.6 + 0.6 already exceeds 1.0";
    EXPECT_GT(kept.meanQosAttainmentPct, all.meanQosAttainmentPct)
        << "shedding infeasible demand must raise attainment";
    EXPECT_DOUBLE_EQ(kept.meanQosAttainmentPct, 100.0);
}

TEST(Replay, AdmissionServesExactlyTheFeasibleSubset)
{
    // A mixed-priority open-loop trace under a 0.9 cap. In admission
    // order (priority desc, arrival asc): g alone claims 1.5 (shed),
    // b 0.5 (in), f 0.5 (shed), c 0.3 (in, 0.8), e 0.2 (shed), a 0.5
    // (shed), best-effort d 0 (in). The shed g is the only priority-3
    // tenant and the shed f the last arrival, so per-priority series
    // and the auto window span both notice a shed tenant leaking in.
    auto rate = [](const std::string &name, double arrival,
                   std::uint64_t steps, double sps, int prio) {
        TenantJob j = job(name, arrival, steps, sps);
        j.priority = prio;
        return j;
    };
    std::vector<TenantJob> mix = {
        rate("a", 0.0, 8, 0.5, 0),  rate("b", 0.5, 6, 0.25, 2),
        rate("c", 1.0, 10, 1.0, 1), rate("d", 1.5, 5, 0.0, 0),
        rate("e", 2.0, 4, 0.5, 1),  rate("f", 2.5, 6, 2.0, 2),
        rate("g", 0.2, 3, 5.0, 3)};
    mix[5].departSec = 6.0;
    const std::vector<IterationCost> costs = {
        cost(1.0), cost(2.0), cost(0.3), cost(0.5),
        cost(0.4), cost(0.25), cost(0.3)};
    const std::set<std::string> feasible = {"b", "c", "d"};
    SwitchCost sw;
    sw.seconds = 0.05;
    sw.energyJ = 0.5;

    ServeSpec s = spec(mix, SchedPolicy::kEdf);
    s.opts.openLoop = true;
    s.opts.quantumIters = 2;
    AdmissionOptions cap;
    cap.utilizationCap = 0.9;
    s.opts.admission = cap;
    std::string err;
    obs::RunTelemetry tel;
    ASSERT_TRUE(obs::parseSloSpec("0.5,1:0.25", &tel.slo, &err)) << err;
    s.opts.telemetry = &tel;
    const ServeResult r = runServeLoop(s, costs, sw);
    ASSERT_TRUE(r.ok()) << r.error;
    ASSERT_EQ(r.tenants.size(), mix.size());

    ServeSpec subset = spec({}, SchedPolicy::kEdf);
    subset.opts = s.opts;
    subset.opts.admission.reset();
    std::vector<IterationCost> subset_costs;
    for (std::size_t i = 0; i < mix.size(); ++i)
        if (feasible.count(mix[i].name)) {
            subset.workload.jobs.push_back(mix[i]);
            subset_costs.push_back(costs[i]);
        }
    obs::RunTelemetry subset_tel;
    subset_tel.slo = tel.slo;
    subset.opts.telemetry = &subset_tel;
    const ServeResult want = runServeLoop(subset, subset_costs, sw);
    ASSERT_TRUE(want.ok()) << want.error;

    std::size_t next = 0;
    for (std::size_t i = 0; i < mix.size(); ++i) {
        const TenantMetrics &t = r.tenants[i];
        ASSERT_EQ(t.job.name, mix[i].name) << "rows stay in input order";
        if (feasible.count(t.job.name)) {
            expectSameRow(t, want.tenants[next++]);
            continue;
        }
        SCOPED_TRACE(t.job.name);
        EXPECT_FALSE(t.admitted);
        EXPECT_EQ(t.stepsDone, 0u);
        EXPECT_TRUE(std::isnan(t.qosAttainmentPct));
        EXPECT_EQ(t.endSec, t.job.arrivalSec);
        EXPECT_EQ(t.stepLatency.count, 0u);
        EXPECT_EQ(t.energyShare, 0.0);
    }
    EXPECT_EQ(next, want.tenants.size());
    EXPECT_TRUE(sameBits(r.makespanSec, want.makespanSec));
    EXPECT_TRUE(sameBits(r.totalEnergyJ, want.totalEnergyJ));
    EXPECT_EQ(r.contextSwitches, want.contextSwitches);
    EXPECT_TRUE(sameBits(r.meanQosAttainmentPct, want.meanQosAttainmentPct));
    expectSameLatency(r.aggStepLatency, want.aggStepLatency);
    EXPECT_EQ(r.coreCounters.events(), want.coreCounters.events());

    std::ostringstream got_json, want_json;
    tel.writeJson(got_json);
    subset_tel.writeJson(want_json);
    EXPECT_EQ(got_json.str(), want_json.str());
}

TEST(Replay, AdmissionThatShedsEveryoneReportsUndefinedEnergyShare)
{
    // Nothing fits under the cap: no loop runs, no energy is spent,
    // and each tenant's share of zero joules is NaN, not 0.
    ServeSpec s = spec({job("a", 0.0, 4, 0.5), job("b", 1.0, 4, 0.5)},
                       SchedPolicy::kEdf);
    s.opts.openLoop = true;
    AdmissionOptions cap;
    cap.utilizationCap = 0.1;
    s.opts.admission = cap;
    obs::RunTelemetry tel;
    s.opts.telemetry = &tel;
    const ServeResult r =
        runServeLoop(s, {cost(1.0), cost(1.0)}, kFreeSwitch);
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.admittedCount(), 0u);
    EXPECT_EQ(r.coreCounters.events(), 0u);
    EXPECT_EQ(r.totalEnergyJ, 0.0);
    EXPECT_TRUE(std::isnan(r.meanQosAttainmentPct));
    for (const TenantMetrics &t : r.tenants) {
        EXPECT_FALSE(t.admitted);
        EXPECT_EQ(t.endSec, t.job.arrivalSec);
        EXPECT_TRUE(std::isnan(t.energyShare)) << t.job.name;
    }
    EXPECT_TRUE(tel.snapshot.series.empty()) << "no telemetry without a run";
}

TEST(Replay, FullPipelineAdmissionReportsRejectedRows)
{
    // Real pipeline overload: per-tenant QoS targets far beyond the
    // isolated rates force the controller to shed. Rejected tenants
    // keep their rows with admitted=false and zero service.
    ReplaySpec rs;
    rs.trace.name = "pipeline-overload";
    for (int i = 0; i < 3; ++i) {
        TenantJob j;
        j.name = "s" + std::to_string(i) + ":SqueezeNet";
        j.model = "SqueezeNet";
        j.batch = 8;
        j.steps = 4;
        j.arrivalSec = 0.0001 * i;
        j.priority = i;
        j.qosStepsPerSec = 1e7; // demand >> 1 for any real cost
        rs.trace.jobs.push_back(j);
    }
    rs.config = divaDefault(true);
    rs.policy = SchedPolicy::kEdf;
    rs.opts.admission = AdmissionOptions{};
    const ServeResult r = replayTrace(rs);
    ASSERT_TRUE(r.ok()) << r.error;
    ASSERT_EQ(r.tenants.size(), 3u);
    std::size_t admitted = 0;
    for (const TenantMetrics &t : r.tenants)
        admitted += t.admitted ? 1 : 0;
    EXPECT_LT(admitted, 3u) << "1e7 steps/s cannot all be feasible";
    for (const TenantMetrics &t : r.tenants)
        if (!t.admitted) {
            EXPECT_EQ(t.stepsDone, 0u);
            EXPECT_TRUE(std::isnan(t.qosAttainmentPct));
            EXPECT_EQ(t.stepLatency.count, 0u);
        }

    // The uncontrolled replay serves everyone (worse attainment or
    // equal, never more admitted context).
    rs.opts.admission.reset();
    const ServeResult open = replayTrace(rs);
    ASSERT_TRUE(open.ok()) << open.error;
    for (const TenantMetrics &t : open.tenants)
        EXPECT_TRUE(t.admitted);
}

TEST(Replay, AdmissionSeesAutoFairShareTargets)
{
    // With --qos auto the fair-share targets are assigned inside the
    // pipeline; the admission controller must price those targets,
    // not the unset (zero-demand) jobs. Each of three identical
    // tenants demands a 1/3 fair share, so a 0.5 cap admits exactly
    // one plus nothing else -- if admission ran before target
    // assignment it would see zero demand and admit all three.
    ServeSpec s;
    s.workload = defaultWorkload(3, 4, 8, 0.0);
    s.config = divaDefault(true);
    s.policy = SchedPolicy::kEdf;
    s.opts.autoQosFairShare = true;
    // Identical models so every fair share is exactly 1/3.
    for (TenantJob &j : s.workload.jobs)
        j.model = "SqueezeNet";
    AdmissionOptions cap;
    cap.utilizationCap = 0.5;
    s.opts.admission = cap;
    SweepRunner runner;
    const ServeResult r = simulateServe(s, runner);
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.admittedCount(), 1u)
        << "two 1/3 shares exceed the 0.5 cap";
    for (const TenantMetrics &t : r.tenants)
        EXPECT_GT(t.job.qosStepsPerSec, 0.0)
            << "reported jobs must echo the priced fair-share target";
}

TEST(Replay, GeneratedTraceByteIdenticalAcrossThreadsAndReruns)
{
    TraceGenSpec gen;
    gen.kind = ArrivalKind::kPoisson;
    gen.ratePerSec = 6.0;
    gen.horizonSec = 1.0;
    gen.seed = 11;
    gen.steps = 4;
    gen.qosStepsPerSec = 2.0;
    const ArrivalTrace trace = generateTrace(gen);
    ASSERT_FALSE(trace.jobs.empty());

    auto emit = [&](int threads) {
        SweepOptions opts;
        opts.threads = threads;
        SweepRunner runner(opts);
        std::vector<ServeResult> serves;
        for (SchedPolicy p : allPolicies()) {
            ReplaySpec rs;
            rs.trace = trace;
            rs.config = divaDefault(true);
            rs.policy = p;
            serves.push_back(replayTrace(rs, runner));
            EXPECT_TRUE(serves.back().ok()) << serves.back().error;
        }
        std::ostringstream csv, json;
        writeServeCsv(csv, serves);
        writeServeJson(json, serves);
        return csv.str() + "\n===\n" + json.str();
    };
    const std::string serial = emit(1);
    EXPECT_EQ(serial, emit(4));
    EXPECT_EQ(serial, emit(1)) << "reruns must replay identically";
    EXPECT_NE(serial.find("lat_p99_s"), std::string::npos);
}

} // namespace
} // namespace diva
