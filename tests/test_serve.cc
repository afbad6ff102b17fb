/**
 * @file
 * Tests of the time-sharing serve loop and the full serve pipeline:
 * scheduling behavior under constructed iteration costs, context
 * switch accounting, QoS attainment (EDF vs FIFO under overload),
 * duration mode, NaN guards, and byte-determinism of the emitted
 * CSV/JSON across sweep-runner thread counts.
 */

#include <cmath>
#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "sim/result.h"
#include "tenant/emit.h"
#include "tenant/serve.h"

namespace diva
{
namespace
{

/** A bounded job with a rate target (0 = no target). */
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

/** A spec over explicit jobs, defaulting to one DiVa chip. */
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
cost(double seconds, double energy)
{
    IterationCost c;
    c.seconds = seconds;
    c.energyJ = energy;
    c.resolvedBatch = 8;
    return c;
}

const SwitchCost kFreeSwitch{};

SwitchCost
switchCost(double seconds, double energy)
{
    SwitchCost c;
    c.seconds = seconds;
    c.energyJ = energy;
    c.dramBytes = 1024;
    return c;
}

TEST(ServeLoop, SingleTenantMatchesIsolatedRun)
{
    const ServeResult r =
        runServeLoop(spec({job("a", 0.0, 10, 0.0)}, SchedPolicy::kFifo),
                     {cost(0.5, 2.0)}, switchCost(0.1, 1.0));
    ASSERT_TRUE(r.ok()) << r.error;
    ASSERT_EQ(r.tenants.size(), 1u);
    const TenantMetrics &t = r.tenants[0];
    EXPECT_EQ(t.stepsDone, 10u);
    EXPECT_TRUE(t.completed);
    EXPECT_EQ(r.contextSwitches, 0u) << "no other tenant to switch to";
    EXPECT_DOUBLE_EQ(r.makespanSec, 5.0);
    EXPECT_DOUBLE_EQ(t.achievedStepsPerSec, 2.0);
    EXPECT_DOUBLE_EQ(t.isolatedStepsPerSec, 2.0);
    EXPECT_DOUBLE_EQ(t.slowdown, 1.0);
    EXPECT_DOUBLE_EQ(t.waitSec, 0.0);
    EXPECT_DOUBLE_EQ(r.totalEnergyJ, 20.0);
    EXPECT_DOUBLE_EQ(t.energyShare, 1.0);
    EXPECT_TRUE(std::isnan(t.qosAttainmentPct)) << "no target set";
}

TEST(ServeLoop, ContextSwitchesCostTimeAndEnergy)
{
    // Two identical tenants under round-robin with quantum 1: every
    // quantum boundary alternates tenants, so with 2x5 steps there are
    // 9 switches (the cold start is free).
    const auto mk = [](const SwitchCost &sw) {
        return runServeLoop(
            spec({job("a", 0.0, 5, 0.0), job("b", 0.0, 5, 0.0)},
                 SchedPolicy::kRoundRobin),
            {cost(1.0, 1.0), cost(1.0, 1.0)}, sw);
    };
    const ServeResult free_sw = mk(kFreeSwitch);
    const ServeResult paid = mk(switchCost(0.5, 2.0));
    ASSERT_TRUE(free_sw.ok()) << free_sw.error;
    ASSERT_TRUE(paid.ok()) << paid.error;

    EXPECT_EQ(free_sw.contextSwitches, 9u);
    EXPECT_EQ(paid.contextSwitches, 9u);
    EXPECT_DOUBLE_EQ(free_sw.makespanSec, 10.0);
    EXPECT_DOUBLE_EQ(paid.makespanSec, 10.0 + 9 * 0.5);
    EXPECT_DOUBLE_EQ(paid.switchSec, 4.5);
    EXPECT_DOUBLE_EQ(paid.switchEnergyJ, 18.0);
    EXPECT_EQ(paid.switchDramBytes, 9u * 1024u);
    // Switch joules land in the tenants' bills and the total.
    EXPECT_DOUBLE_EQ(paid.totalEnergyJ, 10.0 + 18.0);
    EXPECT_DOUBLE_EQ(paid.tenants[0].energyJ + paid.tenants[1].energyJ,
                     paid.totalEnergyJ);
    // A larger quantum amortizes switches.
    ServeSpec q4 = spec({job("a", 0.0, 5, 0.0), job("b", 0.0, 5, 0.0)},
                        SchedPolicy::kRoundRobin);
    q4.opts.quantumIters = 4;
    const ServeResult amortized = runServeLoop(
        q4, {cost(1.0, 1.0), cost(1.0, 1.0)}, switchCost(0.5, 2.0));
    ASSERT_TRUE(amortized.ok()) << amortized.error;
    EXPECT_LT(amortized.contextSwitches, paid.contextSwitches);
}

TEST(ServeLoop, EdfBeatsFifoOnQosAttainmentUnderOverload)
{
    // Constructed overload: both tenants arrive at t=0 wanting more
    // than the machine can give (1 step/s capacity, 1.05 steps/s of
    // demand). Tenant "loose" has slack (deadline every 20 s); tenant
    // "tight" needs a step per second. FIFO serializes by arrival and
    // starves "tight"; EDF serves the urgent deadlines first and meets
    // both schedules.
    const std::vector<TenantJob> mix = {
        job("loose", 0.0, 10, 0.05), job("tight", 0.0, 10, 1.0)};
    const std::vector<IterationCost> costs = {cost(1.0, 1.0),
                                              cost(1.0, 1.0)};
    const ServeResult fifo = runServeLoop(
        spec(mix, SchedPolicy::kFifo), costs, kFreeSwitch);
    const ServeResult edf =
        runServeLoop(spec(mix, SchedPolicy::kEdf), costs, kFreeSwitch);
    ASSERT_TRUE(fifo.ok()) << fifo.error;
    ASSERT_TRUE(edf.ok()) << edf.error;

    // FIFO: "loose" runs t=1..10 (all deadlines met), "tight" runs
    // t=11..20 missing every 1-second deadline.
    EXPECT_DOUBLE_EQ(fifo.tenants[1].qosAttainmentPct, 0.0);
    // EDF: "tight" runs first (deadlines 1..10 met), then "loose"
    // finishes t=11..20, still inside its 20 s/step schedule.
    EXPECT_DOUBLE_EQ(edf.tenants[0].qosAttainmentPct, 100.0);
    EXPECT_DOUBLE_EQ(edf.tenants[1].qosAttainmentPct, 100.0);
    EXPECT_GT(edf.meanQosAttainmentPct, fifo.meanQosAttainmentPct);
}

TEST(ServeLoop, DurationModeCountsStepsInsideWall)
{
    // Unbounded steps under a 10 s wall: a 1 s/step tenant alone
    // completes exactly 10 steps, never more.
    ServeSpec s = spec({job("a", 0.0, 0, 0.0)}, SchedPolicy::kFifo);
    s.opts.wallLimitSec = 10.0;
    const ServeResult r =
        runServeLoop(s, {cost(1.0, 1.0)}, kFreeSwitch);
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.tenants[0].stepsDone, 10u);
    EXPECT_FALSE(r.tenants[0].completed);
    EXPECT_LE(r.makespanSec, 10.0 + 1e-9);

    // A step that would cross the wall does not run: 3 s steps in a
    // 10 s budget yield 3 steps, not 4.
    const ServeResult partial =
        runServeLoop(s, {cost(3.0, 1.0)}, kFreeSwitch);
    ASSERT_TRUE(partial.ok()) << partial.error;
    EXPECT_EQ(partial.tenants[0].stepsDone, 3u);

    // Unbounded steps without a wall are rejected, not spun forever.
    ServeSpec bad = spec({job("a", 0.0, 0, 0.0)}, SchedPolicy::kFifo);
    const ServeResult err =
        runServeLoop(bad, {cost(1.0, 1.0)}, kFreeSwitch);
    EXPECT_FALSE(err.ok());
}

TEST(ServeLoop, WallBoundsIdleJumpsAndSwitchBilling)
{
    // An arrival far beyond the wall must not drag `now` (and with it
    // makespan and rate windows) past the budget.
    ServeSpec late = spec({job("late", 5.0, 4, 0.0)}, SchedPolicy::kFifo);
    late.opts.wallLimitSec = 0.001;
    const ServeResult idle =
        runServeLoop(late, {cost(1.0, 1.0)}, kFreeSwitch);
    ASSERT_TRUE(idle.ok()) << idle.error;
    EXPECT_EQ(idle.tenants[0].stepsDone, 0u);
    EXPECT_LE(idle.makespanSec, 0.001 + 1e-9);

    // A context switch whose delay pushes the next step past the wall
    // is never billed: "a" fills t=0..8, and b's switch (1.5) plus
    // step (2.0) cannot fit in the remaining 2 s.
    ServeSpec s = spec({job("a", 0.0, 4, 0.0), job("b", 0.0, 1, 0.0)},
                       SchedPolicy::kFifo);
    s.opts.wallLimitSec = 10.0;
    const ServeResult r = runServeLoop(
        s, {cost(2.0, 1.0), cost(2.0, 1.0)}, switchCost(1.5, 2.0));
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.tenants[0].stepsDone, 4u);
    EXPECT_EQ(r.tenants[1].stepsDone, 0u);
    EXPECT_EQ(r.contextSwitches, 0u);
    EXPECT_DOUBLE_EQ(r.switchEnergyJ, 0.0);
    EXPECT_DOUBLE_EQ(r.makespanSec, 8.0);
}

TEST(ServeLoop, LateArrivalWaitsAndIdleTimeIsSkipped)
{
    // "b" arrives at t=100 while "a" finishes at t=2: the loop jumps
    // over the idle gap and "b" starts exactly at its arrival.
    const ServeResult r = runServeLoop(
        spec({job("a", 0.0, 2, 0.0), job("b", 100.0, 2, 0.0)},
             SchedPolicy::kFifo),
        {cost(1.0, 1.0), cost(1.0, 1.0)}, switchCost(0.25, 1.0));
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_DOUBLE_EQ(r.tenants[0].endSec, 2.0);
    EXPECT_DOUBLE_EQ(r.tenants[1].waitSec, 0.25)
        << "only the context switch delays the late arrival";
    EXPECT_DOUBLE_EQ(r.makespanSec, 102.25);
}

TEST(ServeLoop, PriorityPreemptsOnArrival)
{
    // A high-priority tenant arriving mid-run takes the engine at the
    // next quantum boundary even with a large quantum: arrivals are
    // preemption points.
    std::vector<TenantJob> mix = {job("low", 0.0, 10, 0.0),
                                  job("high", 2.5, 2, 0.0)};
    mix[0].priority = 0;
    mix[1].priority = 9;
    ServeSpec s = spec(mix, SchedPolicy::kPriority);
    s.opts.quantumIters = 100;
    const ServeResult r = runServeLoop(
        s, {cost(1.0, 1.0), cost(1.0, 1.0)}, kFreeSwitch);
    ASSERT_TRUE(r.ok()) << r.error;
    // "high" arrives during low's third step (2..3) and runs 3..5.
    EXPECT_DOUBLE_EQ(r.tenants[1].endSec, 5.0);
    EXPECT_TRUE(r.tenants[1].completed);
    EXPECT_DOUBLE_EQ(r.tenants[0].endSec, 12.0);
}

TEST(ServeLoop, SlowdownGuardsAreNaNNotInf)
{
    // "starved" arrives exactly at the wall: zero steps, zero window.
    ServeSpec s = spec({job("a", 0.0, 0, 0.0),
                        job("starved", 10.0, 5, 0.0)},
                       SchedPolicy::kFifo);
    s.opts.wallLimitSec = 10.0;
    const ServeResult r = runServeLoop(
        s, {cost(1.0, 1.0), cost(1.0, 1.0)}, kFreeSwitch);
    ASSERT_TRUE(r.ok()) << r.error;
    const TenantMetrics &starved = r.tenants[1];
    EXPECT_EQ(starved.stepsDone, 0u);
    EXPECT_TRUE(std::isnan(starved.slowdown));
    EXPECT_TRUE(std::isnan(starved.waitSec));
    EXPECT_FALSE(std::isinf(starved.achievedStepsPerSec));

    // The emitters must render those NaNs as "nan" / null, never inf.
    std::ostringstream csv;
    writeServeCsv(csv, {r});
    EXPECT_EQ(csv.str().find("inf"), std::string::npos);
    std::ostringstream json;
    writeServeJson(json, {r});
    EXPECT_EQ(json.str().find("inf"), std::string::npos);
    EXPECT_NE(json.str().find("null"), std::string::npos);
}

TEST(ServeLoop, RejectsBadSpecs)
{
    const std::vector<IterationCost> one = {cost(1.0, 1.0)};
    ServeSpec s = spec({job("a", 0.0, 5, 0.0)}, SchedPolicy::kFifo);

    ServeSpec bad = s;
    bad.opts.quantumIters = 0;
    EXPECT_FALSE(runServeLoop(bad, one, kFreeSwitch).ok());

    bad = s;
    bad.chips = 0;
    EXPECT_FALSE(runServeLoop(bad, one, kFreeSwitch).ok());

    bad = s;
    EXPECT_FALSE(runServeLoop(bad, {}, kFreeSwitch).ok())
        << "cost count mismatch";

    EXPECT_FALSE(
        runServeLoop(s, {cost(0.0, 1.0)}, kFreeSwitch).ok())
        << "zero-second iteration";

    bad = s;
    bad.workload.jobs.clear();
    EXPECT_FALSE(runServeLoop(bad, {}, kFreeSwitch).ok());
}

TEST(ServeLoop, LatencySlotsCoverOnlyABudgetThatCanRun)
{
    // 10 steps of 1 s from t=2 end at t=12.
    serve_core::Task t = taskOf(job("a", 2.0, 10, 0.0));
    EXPECT_EQ(latencySlots(t, 1.0, 0.0), 10u) << "no wall, no departure";
    EXPECT_EQ(latencySlots(t, 1.0, 12.0), 10u) << "ends on the wall";
    EXPECT_EQ(latencySlots(t, 1.0, 11.5), 0u) << "wall too early";
    EXPECT_EQ(latencySlots(t, 0.5, 11.5), 10u) << "cheaper steps fit";
    t.departSec = 11.0;
    EXPECT_EQ(latencySlots(t, 1.0, 0.0), 0u) << "departs too early";
    EXPECT_EQ(latencySlots(t, 1.0, 20.0), 0u)
        << "the departure binds before the wall";
    t.departSec = 0.0;
    t.stepLimit = 0;
    EXPECT_EQ(latencySlots(t, 1.0, 20.0), 0u) << "unbounded";
    t.stepLimit = 1000000000000ull;
    EXPECT_EQ(latencySlots(t, 1e-3, 0.5), 0u) << "huge budget";
}

TEST(ServeLoop, BudgetFarPastTheWallReplaysEveryStepOnce)
{
    // 1e12 steps of 1 ms cannot fit in a 0.5 s wall: the tenant keeps
    // its samples in its overflow vector rather than an 8 TB arena
    // slice, beside a neighbour whose 20-step budget fits its slice.
    ServeSpec s = spec({job("huge", 0.0, 1000000000000ull, 0.0),
                        job("small", 0.0, 20, 0.0)},
                       SchedPolicy::kRoundRobin);
    s.opts.wallLimitSec = 0.5;
    const ServeResult r = runServeLoop(
        s, {cost(0.001, 1.0), cost(0.002, 1.0)}, switchCost(1e-4, 0.0));
    ASSERT_TRUE(r.ok()) << r.error;
    std::uint64_t total_steps = 0;
    for (const TenantMetrics &m : r.tenants) {
        total_steps += m.stepsDone;
        EXPECT_EQ(m.stepLatency.count, m.stepsDone) << m.job.name;
    }
    EXPECT_FALSE(r.tenants[0].completed);
    EXPECT_TRUE(r.tenants[1].completed);
    EXPECT_GT(r.tenants[0].stepsDone, 400u);
    EXPECT_EQ(total_steps, r.coreCounters.steps);
    EXPECT_EQ(r.aggStepLatency.count, total_steps);
    EXPECT_EQ(r.aggStepLatency.maxSec,
              std::max(r.tenants[0].stepLatency.maxSec,
                       r.tenants[1].stepLatency.maxSec));
}

TEST(Speedup, GuardsZeroDenominator)
{
    SimResult some;
    some.stageCycles[0] = 100;
    SimResult zero;
    EXPECT_TRUE(std::isnan(speedup(some, zero)));
    EXPECT_DOUBLE_EQ(speedup(some, some), 1.0);
}

TEST(ServePipeline, DeterministicAcrossRunnerThreads)
{
    // The full pipeline (real Executor-backed costs) must emit
    // byte-identical CSV and JSON whatever the runner thread count,
    // and re-serving under another policy must hit the cache.
    ServeSpec s;
    s.workload = defaultWorkload(4, 6, 8, 0.001);
    s.config = divaDefault(true);
    s.policy = SchedPolicy::kEdf;
    s.opts.autoQosFairShare = true;

    auto emit = [&](int threads) {
        SweepOptions opts;
        opts.threads = threads;
        SweepRunner runner(opts);
        std::vector<ServeResult> serves;
        for (SchedPolicy p : allPolicies()) {
            s.policy = p;
            serves.push_back(simulateServe(s, runner));
            EXPECT_TRUE(serves.back().ok()) << serves.back().error;
        }
        std::ostringstream csv, json;
        writeServeCsv(csv, serves);
        writeServeJson(json, serves);
        return csv.str() + "\n===\n" + json.str();
    };
    const std::string serial = emit(1);
    const std::string parallel = emit(4);
    EXPECT_EQ(serial, parallel);
    EXPECT_NE(serial.find("edf"), std::string::npos);
}

TEST(ServePipeline, SharesTheSweepScenarioCache)
{
    ServeSpec s;
    s.workload = defaultWorkload(3, 4, 8, 0.0);
    s.config = divaDefault(true);
    SweepRunner runner;
    ASSERT_TRUE(simulateServe(s, runner).ok());
    const std::size_t cached = runner.cacheSize();
    EXPECT_EQ(cached, 3u) << "one scenario per tenant";
    // A different policy re-uses every isolated-cost scenario.
    s.policy = SchedPolicy::kFifo;
    ASSERT_TRUE(simulateServe(s, runner).ok());
    EXPECT_EQ(runner.cacheSize(), cached);
}

TEST(ServePipeline, SurfacesScenarioErrors)
{
    ServeSpec s;
    s.workload = defaultWorkload(1, 4, 8, 0.0);
    s.workload.jobs[0].model = "NoSuchNet";
    EXPECT_FALSE(simulateServe(s).ok());

    ServeSpec bad_cfg;
    bad_cfg.workload = defaultWorkload(1, 4, 8, 0.0);
    bad_cfg.config = divaDefault(true);
    bad_cfg.config.peRows = -1;
    EXPECT_FALSE(simulateServe(bad_cfg).ok());
}

/** The cell count of each row of a CSV document (RFC 4180 quoting). */
std::vector<std::size_t>
csvRowWidths(const std::string &doc)
{
    std::vector<std::size_t> widths;
    std::size_t cells = 1;
    bool quoted = false;
    for (char c : doc) {
        if (c == '"') {
            quoted = !quoted;
        } else if (!quoted && c == ',') {
            ++cells;
        } else if (!quoted && c == '\n') {
            widths.push_back(cells);
            cells = 1;
        }
    }
    return widths;
}

TEST(ServeEmit, FailedRunsEmitPinnedPlaceholdersAndRowsMatchTheHeader)
{
    // In-process `diva_serve --tenants 2 --steps 4 --backends pod`:
    // single-chip tenants price on the chip backend, which a pod-only
    // allow-list refuses, so the run fails and emits one placeholder
    // row and an error object.
    ServeSpec failing;
    failing.workload = defaultWorkload(2, 4, 8, 0.0);
    failing.config = divaDefault(true);
    failing.backends = {SweepBackend::kMultiChip};
    failing.opts.autoQosFairShare = true;
    const ServeResult failed = simulateServe(failing);
    ASSERT_FALSE(failed.ok());

    std::ostringstream csv, json;
    writeServeCsv(csv, {failed});
    writeServeJson(json, {failed});
    EXPECT_EQ(csv.str(),
              "policy,config,workload,chips,quantum,wall_s,tenant,model,"
              "scale,algorithm,batch,priority,arrival_s,depart_s,qos_sps,"
              "qos_deadline_s,steps,steps_done,completed,departed,"
              "admitted,wait_s,end_s,achieved_sps,isolated_sps,slowdown,"
              "lat_p50_s,lat_p95_s,lat_p99_s,qos_attainment_pct,"
              "energy_j,energy_share,switches_in,error\n"
              "rr,DiVa,mixed-2,1,1,0,-,-,0,-,0,0,0,0,0,0,0,0,0,0,0,nan,"
              "nan,nan,nan,nan,nan,nan,nan,nan,nan,nan,0,backend 'chip' "
              "is not in the allowed --backends list\n");
    EXPECT_EQ(json.str(),
              "{\n  \"serves\": [\n    {\"policy\": \"rr\", \"config\": "
              "\"DiVa\", \"workload\": \"mixed-2\", \"chips\": 1, "
              "\"quantum\": 1, \"wall_s\": 0, \"error\": \"backend "
              "'chip' is not in the allowed --backends list\"}\n  ]\n}\n");

    // Tenant rows of a run that succeeds, one of them with a name
    // that needs CSV quoting, next to the failed run's row.
    ServeSpec ok = failing;
    ok.backends.clear();
    ok.workload.jobs[0].name = "a \"quoted\", name";
    const ServeResult served = simulateServe(ok);
    ASSERT_TRUE(served.ok()) << served.error;
    std::ostringstream both;
    writeServeCsv(both, {served, failed});
    const std::vector<std::size_t> widths = csvRowWidths(both.str());
    ASSERT_EQ(widths.size(), 1 + served.tenants.size() + 1);
    EXPECT_EQ(widths[0], 34u);
    for (std::size_t i = 1; i < widths.size(); ++i)
        EXPECT_EQ(widths[i], widths[0]) << "row " << i;
}

} // namespace
} // namespace diva
