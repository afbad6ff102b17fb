/**
 * @file
 * Tests of the datacenter-scale fleet layer: placement-policy choices
 * on skewed loads (energy-aware beats first-fit on joules across a
 * heterogeneous fleet, load-aware beats first-fit on tail latency),
 * migration-cost reconciliation between fleet totals and per-pod /
 * per-tenant sums, energy-budget preemption ordering, partial-SRAM
 * working-set switch costs, spec/trace validation, and
 * byte-determinism of the fleet emitters across engine thread counts
 * and warm plan caches -- including a hot pod whose latency run sorts
 * in lane-sized pieces and runs whose step latencies no radix sort
 * takes -- and runs whose step budgets outrun the wall.
 */

#include <algorithm>
#include <cmath>
#include <sstream>

#include <gtest/gtest.h>

#include "arrivals/generate.h"
#include "fleet/emit.h"
#include "fleet/engine.h"
#include "fleet/migration.h"
#include "tenant/context_switch.h"
#include "tenant/serve.h"

namespace diva
{
namespace
{

/** A session: closed loop when rate is 0, open loop otherwise. */
TenantJob
job(const std::string &name, double arrival, std::uint64_t steps,
    double rate, int priority = 0)
{
    TenantJob j;
    j.name = name;
    j.model = "SqueezeNet";
    j.batch = 8;
    j.arrivalSec = arrival;
    j.steps = steps;
    j.qosStepsPerSec = rate;
    j.priority = priority;
    return j;
}

ArrivalTrace
trace(std::vector<TenantJob> jobs)
{
    ArrivalTrace t;
    t.name = "test";
    t.jobs = std::move(jobs);
    return t;
}

/** Expand one CLI pod template, asserting it parses. */
std::vector<PodSpec>
podsOf(const std::string &text)
{
    std::string err;
    const auto group = parsePodTemplate(text, &err);
    EXPECT_TRUE(group.has_value()) << err;
    return group.value_or(std::vector<PodSpec>{});
}

FleetSpec
fleetOf(const std::vector<std::vector<PodSpec>> &groups,
        PlacementKind placement)
{
    FleetSpec spec = buildFleet(groups);
    spec.placement = placement;
    return spec;
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

/** Total energy of `jobs` served by the given single-pod fleet. */
double
energyOn(const std::vector<PodSpec> &pod,
         const std::vector<TenantJob> &jobs)
{
    const FleetResult r = simulateFleet(
        fleetOf({pod}, PlacementKind::kFirstFit), trace(jobs));
    EXPECT_TRUE(r.ok()) << r.error;
    return r.totalEnergyJ;
}

TEST(FleetSpecParse, TemplatesExpandAndValidate)
{
    const std::vector<PodSpec> group = podsOf("df=OS,chips=2,count=3");
    ASSERT_EQ(group.size(), 3u);
    EXPECT_EQ(group[0].chips, 2);
    EXPECT_EQ(group[0].backend(), SweepBackend::kMultiChip);

    std::string err;
    EXPECT_FALSE(parsePodTemplate("df=WS,ppu=on", &err).has_value());
    EXPECT_NE(err.find("PPU"), std::string::npos) << err;
    EXPECT_FALSE(parsePodTemplate("bogus=1", &err).has_value());
    EXPECT_FALSE(parsePodTemplate("chips=0", &err).has_value());

    const FleetSpec spec =
        buildFleet({podsOf("df=DiVa,count=2"), podsOf("df=OS,ppu=off")});
    EXPECT_EQ(spec.name, "fleet-3");
    ASSERT_EQ(spec.pods.size(), 3u);
    EXPECT_EQ(spec.pods[0].name, "p0");
    EXPECT_EQ(spec.pods[2].name, "p2");
    EXPECT_TRUE(spec.validationError().empty())
        << spec.validationError();

    EXPECT_NE(FleetSpec{}.validationError().find("no pods"),
              std::string::npos);
}

TEST(FleetPlacementUnit, PoliciesAndFeasibility)
{
    const std::vector<PodLoadView> pods = {{0.6, 3}, {0.2, 1}, {0.4, 2}};
    const std::vector<double> demand = {0.3, 0.3, 0.3};
    const std::vector<double> joules = {5.0, 4.0, 1.0};

    // First-fit skips the full pod 0, load-aware takes the emptiest,
    // energy-aware the cheapest feasible.
    EXPECT_EQ(choosePod(PlacementKind::kFirstFit, pods, demand, joules,
                        0.8),
              1u);
    EXPECT_EQ(choosePod(PlacementKind::kLoadAware, pods, demand, joules,
                        1.0),
              1u);
    EXPECT_EQ(choosePod(PlacementKind::kEnergyAware, pods, demand,
                        joules, 1.0),
              2u);

    // No pod can absorb the demand: rejected everywhere.
    for (PlacementKind k : allPlacements())
        EXPECT_EQ(choosePod(k, pods, {0.5, 0.9, 0.7}, joules, 1.0),
                  kNoPod);

    EXPECT_EQ(placementFromName("energy"),
              std::optional(PlacementKind::kEnergyAware));
    EXPECT_EQ(placementFromName("bogus"), std::nullopt);
    EXPECT_STREQ(placementName(PlacementKind::kLoadAware), "load");
}

TEST(FleetPlacement, EnergyAwareBeatsFirstFitOnJoules)
{
    // Heterogeneous fleet with the pricier design point first, so
    // first-fit (which stacks best-effort tenants on pod 0) pays more
    // joules than energy-aware (which routes to the cheaper pod).
    std::vector<TenantJob> jobs;
    for (int i = 0; i < 6; ++i)
        jobs.push_back(job("t" + std::to_string(i), 0.0, 8, 0.0));

    std::vector<PodSpec> a = podsOf("df=DiVa");
    std::vector<PodSpec> b = podsOf("df=OS");
    const double ea = energyOn(a, jobs);
    const double eb = energyOn(b, jobs);
    ASSERT_NE(ea, eb) << "design points price identically; the "
                         "energy-aware comparison would be vacuous";
    if (ea < eb)
        std::swap(a, b); // expensive pod first

    const FleetResult ff = simulateFleet(
        fleetOf({a, b}, PlacementKind::kFirstFit), trace(jobs));
    const FleetResult en = simulateFleet(
        fleetOf({a, b}, PlacementKind::kEnergyAware), trace(jobs));
    ASSERT_TRUE(ff.ok()) << ff.error;
    ASSERT_TRUE(en.ok()) << en.error;

    EXPECT_EQ(ff.pods[0].placed, jobs.size());
    EXPECT_EQ(en.pods[1].placed, jobs.size());
    EXPECT_LT(en.totalEnergyJ, ff.totalEnergyJ);
}

TEST(FleetPlacement, LoadAwareBeatsFirstFitOnTailLatency)
{
    // Eight modest open-loop sessions all fit on one pod's demand cap,
    // so first-fit stacks every one on p0 and their steps queue behind
    // each other; load-aware spreads them 4/4 and the p99 step latency
    // drops.
    std::vector<TenantJob> jobs;
    for (int i = 0; i < 8; ++i)
        jobs.push_back(job("t" + std::to_string(i), 0.0, 12, 20.0));

    const std::vector<std::vector<PodSpec>> pods = {
        podsOf("df=DiVa,count=2")};
    const FleetResult ff = simulateFleet(
        fleetOf(pods, PlacementKind::kFirstFit), trace(jobs));
    const FleetResult ld = simulateFleet(
        fleetOf(pods, PlacementKind::kLoadAware), trace(jobs));
    ASSERT_TRUE(ff.ok()) << ff.error;
    ASSERT_TRUE(ld.ok()) << ld.error;

    ASSERT_EQ(ff.rejectedCount, 0u);
    EXPECT_EQ(ff.pods[0].placed, jobs.size());
    EXPECT_EQ(ld.pods[0].placed, jobs.size() / 2);
    EXPECT_EQ(ld.pods[1].placed, jobs.size() / 2);
    EXPECT_LT(ld.aggStepLatency.p99Sec, ff.aggStepLatency.p99Sec);
}

TEST(FleetMigration, RebalanceMovesLoadAndCostsReconcile)
{
    // Best-effort sessions stack on p0 under first-fit; with the
    // rebalance loop on, the idle p1 pulls work over. Every migration
    // is billed to the moved tenant and to the destination pod, so the
    // fleet totals must equal both per-pod and per-tenant sums.
    std::vector<TenantJob> jobs;
    for (int i = 0; i < 8; ++i)
        jobs.push_back(job("t" + std::to_string(i), 0.0, 60, 0.0));

    FleetSpec spec = fleetOf({podsOf("df=DiVa,count=2")},
                             PlacementKind::kFirstFit);
    spec.rebalance.enabled = true;
    spec.rebalance.skewThreshold = 0.2;
    spec.controlIntervalSec = 0.02;
    const FleetResult r = simulateFleet(spec, trace(jobs));
    ASSERT_TRUE(r.ok()) << r.error;
    ASSERT_GT(r.migrations, 0u);

    std::uint64_t pod_in = 0, pod_out = 0, ten_mig = 0;
    std::uint64_t pod_steps = 0, ten_steps = 0;
    double pod_sec = 0.0, pod_j = 0.0, pod_energy = 0.0;
    double ten_sec = 0.0, ten_j = 0.0, ten_energy = 0.0;
    Bytes pod_bytes = 0;
    for (const FleetPodReport &p : r.pods) {
        pod_in += p.migratedIn;
        pod_out += p.migratedOut;
        pod_sec += p.migrationSec;
        pod_j += p.migrationEnergyJ;
        pod_bytes += p.migrationBytes;
        pod_energy += p.energyJ;
        pod_steps += p.stepsDone;
    }
    for (const FleetTenantMetrics &t : r.tenants) {
        ten_mig += t.migrations;
        ten_sec += t.migrationSec;
        ten_j += t.migrationEnergyJ;
        ten_energy += t.energyJ;
        ten_steps += t.stepsDone;
    }
    EXPECT_EQ(r.migrations, pod_in);
    EXPECT_EQ(r.migrations, pod_out);
    EXPECT_EQ(r.migrations, ten_mig);
    EXPECT_DOUBLE_EQ(r.migrationSec, pod_sec);
    EXPECT_NEAR(r.migrationSec, ten_sec, 1e-12 + 1e-12 * pod_sec);
    EXPECT_DOUBLE_EQ(r.migrationEnergyJ, pod_j);
    EXPECT_NEAR(r.migrationEnergyJ, ten_j, 1e-12 + 1e-12 * pod_j);
    EXPECT_EQ(r.migrationBytes, pod_bytes);
    EXPECT_EQ(r.totalSteps, pod_steps);
    EXPECT_EQ(r.totalSteps, ten_steps);
    EXPECT_NEAR(r.totalEnergyJ, pod_energy,
                1e-9 * std::max(1.0, pod_energy));
    EXPECT_NEAR(r.totalEnergyJ, ten_energy,
                1e-9 * std::max(1.0, ten_energy));
    for (const FleetTenantMetrics &t : r.tenants)
        EXPECT_TRUE(t.completed) << t.job.name;
    // Migration seconds are billed as destination busy time, so they
    // must also extend the pod's active span: utilization stays <= 1
    // even when a transfer lands after the pod's last step.
    for (const FleetPodReport &p : r.pods)
        EXPECT_LE(p.utilization, 1.0 + 1e-9) << p.name;
}

TEST(FleetBudget, PowerCapPreemptsLowPriorityFirst)
{
    // Derive a cap that sustains one tenant but not two from an
    // unbudgeted run, then check the budget keeps the high-priority
    // tenant running and only stalls (not starves) the low one.
    const std::vector<TenantJob> jobs = {job("hi", 0.0, 40, 0.0, 5),
                                         job("lo", 0.0, 40, 0.0, 0)};
    FleetSpec spec = fleetOf({podsOf("df=DiVa")},
                             PlacementKind::kFirstFit);
    const FleetResult free_run = simulateFleet(spec, trace(jobs));
    ASSERT_TRUE(free_run.ok()) << free_run.error;
    ASSERT_TRUE(std::isfinite(free_run.makespanSec));

    // The two tenants serialize on the one pod, so the free-run
    // average draw is one tenant's sustained watts; each tenant's
    // *projected* draw is that full figure, so a 1.5x cap admits one
    // tenant but not both.
    const double watts =
        free_run.totalEnergyJ / free_run.makespanSec;
    spec.budget.powerCapW = 1.5 * watts;
    spec.controlIntervalSec = free_run.makespanSec / 16.0;
    const FleetResult capped = simulateFleet(spec, trace(jobs));
    ASSERT_TRUE(capped.ok()) << capped.error;

    EXPECT_GT(capped.suspensions, 0u);
    EXPECT_EQ(capped.tenants[0].suspensions, 0u);
    EXPECT_GT(capped.tenants[1].suspensions, 0u);
    EXPECT_TRUE(capped.tenants[0].completed);
    EXPECT_TRUE(capped.tenants[1].completed);

    // With its rival preempted the high-priority tenant stops
    // time-slicing and finishes earlier than in the free run.
    EXPECT_LT(capped.tenants[0].endSec, free_run.tenants[0].endSec);
}

TEST(FleetBudget, JouleBudgetEndsTheRunEarly)
{
    const std::vector<TenantJob> jobs = {job("hi", 0.0, 60, 0.0, 5),
                                         job("lo", 0.0, 60, 0.0, 0)};
    FleetSpec spec = fleetOf({podsOf("df=DiVa")},
                             PlacementKind::kFirstFit);
    const FleetResult free_run = simulateFleet(spec, trace(jobs));
    ASSERT_TRUE(free_run.ok()) << free_run.error;

    spec.budget.totalJ = 0.4 * free_run.totalEnergyJ;
    spec.controlIntervalSec = free_run.makespanSec / 16.0;
    const FleetResult capped = simulateFleet(spec, trace(jobs));
    ASSERT_TRUE(capped.ok()) << capped.error;

    EXPECT_GT(capped.suspensions, 0u);
    EXPECT_LT(capped.totalEnergyJ, free_run.totalEnergyJ);
    EXPECT_FALSE(capped.tenants[0].completed &&
                 capped.tenants[1].completed);
}

TEST(FleetBudget, ArrivalOnAControlBoundaryIsSkippedUntilPlaced)
{
    // "b" arrives exactly on a control boundary. The budget round at
    // that boundary runs before placement, so it must skip b instead
    // of pricing it on a pod it does not have yet.
    const std::vector<TenantJob> jobs = {job("a", 0.0, 200, 100.0, 0),
                                         job("b", 0.5, 200, 100.0, 5)};
    FleetSpec spec = fleetOf({podsOf("df=DiVa")},
                             PlacementKind::kFirstFit);
    const FleetResult free_run = simulateFleet(spec, trace(jobs));
    ASSERT_TRUE(free_run.ok()) << free_run.error;

    // A cap that sustains one tenant's 100 steps/s but not both.
    const FleetPodReport &pod = free_run.pods[0];
    const double step_j =
        (pod.energyJ - pod.switchEnergyJ) / double(pod.stepsDone);
    spec.budget.powerCapW = 1.5 * 100.0 * step_j;
    spec.controlIntervalSec = 0.5;
    const FleetResult capped = simulateFleet(spec, trace(jobs));
    ASSERT_TRUE(capped.ok()) << capped.error;
    EXPECT_EQ(capped.placedCount, 2u);
    EXPECT_GT(capped.tenants[0].suspensions, 0u);
    EXPECT_EQ(capped.tenants[1].suspensions, 0u);
    EXPECT_TRUE(capped.tenants[1].completed);
}

TEST(FleetWall, SessionsArrivingAfterTheWallGetRowsWithoutAPod)
{
    // The wall ends the run before the trace does. Sessions arriving
    // at or after it never reach a pod: each keeps a row with pod "-"
    // and zero steps, and placedCount counts only the others.
    std::string err;
    const auto gen = parseTraceGenSpec(
        "poisson:rate=10,horizon=20,seed=5,qos=3,cap=300", &err);
    ASSERT_TRUE(gen.has_value()) << err;
    const ArrivalTrace t = generateTrace(*gen);
    const double wall = 10.0;
    ASSERT_GT(t.jobs.back().arrivalSec, wall);

    FleetSpec spec = fleetOf({podsOf("df=DiVa,count=4")},
                             PlacementKind::kFirstFit);
    spec.wallLimitSec = wall;
    const FleetResult r = simulateFleet(spec, t);
    ASSERT_TRUE(r.ok()) << r.error;

    std::size_t with_pod = 0;
    std::size_t cut = 0;
    for (const FleetTenantMetrics &m : r.tenants) {
        if (m.finalPod != kNoPod) {
            EXPECT_LT(m.job.arrivalSec, wall) << m.job.name;
            ++with_pod;
            continue;
        }
        ++cut;
        EXPECT_GE(m.job.arrivalSec, wall) << m.job.name;
        EXPECT_TRUE(m.admitted) << m.job.name;
        EXPECT_EQ(m.stepsDone, 0u) << m.job.name;
        EXPECT_FALSE(m.completed) << m.job.name;
        EXPECT_EQ(m.endSec, m.job.arrivalSec) << m.job.name;
        EXPECT_EQ(m.energyJ, 0.0) << m.job.name;
        EXPECT_EQ(m.stepLatency.count, 0u) << m.job.name;
    }
    EXPECT_GT(cut, 0u);
    EXPECT_GT(with_pod, 0u);
    EXPECT_EQ(r.rejectedCount, 0u);
    EXPECT_EQ(r.placedCount, with_pod);
    std::size_t ended = 0;
    for (const FleetPodReport &p : r.pods)
        ended += p.ended;
    EXPECT_EQ(ended, with_pod);

    // steps_done, pod, admitted, completed, departed: 0,-,1,0,0.
    std::ostringstream csv;
    writeFleetTenantCsv(csv, r);
    const std::string text = csv.str();
    std::size_t dash_rows = 0;
    for (std::size_t at = text.find(",0,-,1,0,0,");
         at != std::string::npos; at = text.find(",0,-,1,0,0,", at + 1))
        ++dash_rows;
    EXPECT_EQ(dash_rows, cut);
}

TEST(FleetWall, BudgetFarPastTheWallReplaysEveryStepOnce)
{
    // 1e12 steps of about a millisecond cannot fit in a 5 s wall, so
    // these sessions reserve no latency slots (a slot per budgeted
    // step would be 24 TB) and keep their samples in overflow vectors;
    // the first session's 50-step budget fits and keeps its slice.
    std::string err;
    const auto gen = parseTraceGenSpec(
        "poisson:rate=1,horizon=4,seed=1,cap=3,steps=1000000000000",
        &err);
    ASSERT_TRUE(gen.has_value()) << err;
    ArrivalTrace t = generateTrace(*gen);
    t.jobs[0].steps = 50;
    FleetSpec spec = fleetOf({podsOf("df=DiVa,count=2")},
                             PlacementKind::kFirstFit);
    spec.wallLimitSec = 5.0;
    const FleetResult r = simulateFleet(spec, t);
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_TRUE(r.tenants[0].completed);
    std::size_t pod_samples = 0;
    for (const FleetPodReport &p : r.pods)
        pod_samples += p.stepLatency.count;
    for (const FleetTenantMetrics &m : r.tenants)
        EXPECT_EQ(m.stepLatency.count, m.stepsDone) << m.job.name;
    EXPECT_GT(r.totalSteps, 1000u);
    EXPECT_EQ(pod_samples, r.totalSteps);
    EXPECT_EQ(r.aggStepLatency.count, r.totalSteps);
}

TEST(FleetAdmission, InfeasibleDemandIsRejected)
{
    const FleetResult r = simulateFleet(
        fleetOf({podsOf("df=DiVa,count=2")}, PlacementKind::kLoadAware),
        trace({job("greedy", 0.0, 8, 1e9), job("ok", 0.0, 8, 0.0)}));
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.rejectedCount, 1u);
    EXPECT_EQ(r.placedCount, 1u);
    EXPECT_FALSE(r.tenants[0].admitted);
    EXPECT_EQ(r.tenants[0].finalPod, kNoPod);
    EXPECT_EQ(r.tenants[0].stepsDone, 0u);
    EXPECT_TRUE(std::isnan(r.tenants[0].achievedStepsPerSec));
    EXPECT_TRUE(r.tenants[1].completed);
}

TEST(FleetValidation, BadSpecsAndTracesErrorOut)
{
    const ArrivalTrace one = trace({job("a", 0.0, 4, 0.0)});

    FleetResult r = simulateFleet(FleetSpec{}, one);
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.error.find("no pods"), std::string::npos) << r.error;

    FleetSpec zero_chip = fleetOf({podsOf("df=DiVa")},
                                  PlacementKind::kFirstFit);
    zero_chip.pods[0].chips = 0;
    EXPECT_FALSE(simulateFleet(zero_chip, one).ok());

    // Single-chip pods price on the chip backend, which a pod-only
    // allow-list refuses.
    FleetSpec bad_backend = fleetOf({podsOf("df=DiVa")},
                                    PlacementKind::kFirstFit);
    bad_backend.backends = {SweepBackend::kMultiChip};
    r = simulateFleet(bad_backend, one);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.error, "backend 'chip' is not in the allowed --backends "
                       "list");

    const FleetSpec good = fleetOf({podsOf("df=DiVa")},
                                   PlacementKind::kFirstFit);
    EXPECT_FALSE(simulateFleet(good, ArrivalTrace{}).ok());
    r = simulateFleet(
        good, trace({job("late", 5.0, 4, 0.0), job("early", 0.0, 4, 0.0)}));
    EXPECT_FALSE(r.ok());

    // Error runs still emit: one placeholder row with the error last.
    std::ostringstream csv;
    writeFleetTenantCsv(csv, r);
    EXPECT_NE(csv.str().find(r.error), std::string::npos);
    std::ostringstream json;
    writeFleetJson(json, r);
    EXPECT_NE(json.str().find("\"error\""), std::string::npos);

    // In-process `diva_fleet --pods 2 --arrivals
    // poisson:rate=2,horizon=4,seed=1 --backends pod`: every table of
    // the failed run, byte for byte.
    std::string err;
    const auto gen = parseTraceGenSpec("poisson:rate=2,horizon=4,seed=1",
                                       &err);
    ASSERT_TRUE(gen.has_value()) << err;
    FleetSpec pod_only = buildFleet({defaultPodGroup(2)});
    pod_only.backends = {SweepBackend::kMultiChip};
    r = simulateFleet(pod_only, generateTrace(*gen));
    ASSERT_FALSE(r.ok());
    std::ostringstream tenants, pods, doc;
    writeFleetTenantCsv(tenants, r);
    writeFleetPodCsv(pods, r);
    writeFleetJson(doc, r, true);
    EXPECT_EQ(tenants.str(),
              "policy,placement,fleet,trace,tenant,model,batch,priority,"
              "arrival_s,depart_s,qos_sps,qos_deadline_s,steps,"
              "steps_done,pod,admitted,completed,departed,end_s,"
              "achieved_sps,isolated_sps,lat_p50_s,lat_p95_s,lat_p99_s,"
              "qos_attainment_pct,energy_j,switches_in,migrations,"
              "migration_s,migration_energy_j,suspensions,error\n"
              "rr,first-fit,fleet-2,poisson-r2-s1,-,-,0,0,0,0,0,0,0,0,-,"
              "0,0,0,nan,nan,nan,nan,nan,nan,nan,nan,0,0,nan,nan,0,"
              "backend 'chip' is not in the allowed --backends list\n");
    EXPECT_EQ(pods.str(),
              "policy,placement,fleet,trace,pod,config,chips,backend,"
              "placed,migrated_in,migrated_out,ended,steps_done,busy_s,"
              "utilization,energy_j,energy_share,switches,switch_s,"
              "switch_energy_j,migration_s,migration_energy_j,"
              "migration_bytes,lat_count,lat_p50_s,lat_p95_s,lat_p99_s,"
              "mean_qos_attainment_pct,error\n"
              "rr,first-fit,fleet-2,poisson-r2-s1,-,-,0,-,0,0,0,0,0,0,"
              "nan,0,nan,0,0,0,0,0,0,0,nan,nan,nan,nan,backend 'chip' is "
              "not in the allowed --backends list\n");
    EXPECT_EQ(doc.str(),
              "{\n  \"policy\": \"rr\", \"placement\": \"first-fit\", "
              "\"fleet\": \"fleet-2\", \"trace\": \"poisson-r2-s1\", "
              "\"quantum\": 1, \"wall_s\": 0, \"error\": \"backend "
              "'chip' is not in the allowed --backends list\"\n}\n");
    EXPECT_EQ(csvRowWidths(tenants.str()),
              (std::vector<std::size_t>{32, 32}));
    EXPECT_EQ(csvRowWidths(pods.str()),
              (std::vector<std::size_t>{29, 29}));
}

TEST(FleetEmit, EveryRowHasTheHeadersCellCount)
{
    // Sessions on pods, sessions cut by the wall (pod "-"), and one
    // whose name needs CSV quoting.
    std::string err;
    const auto gen = parseTraceGenSpec(
        "poisson:rate=10,horizon=20,seed=5,qos=3,cap=300", &err);
    ASSERT_TRUE(gen.has_value()) << err;
    ArrivalTrace t = generateTrace(*gen);
    t.jobs[0].name = "a \"quoted\", name";
    FleetSpec spec = fleetOf({podsOf("df=DiVa,count=4")},
                             PlacementKind::kFirstFit);
    spec.wallLimitSec = 10.0;
    const FleetResult r = simulateFleet(spec, t);
    ASSERT_TRUE(r.ok()) << r.error;

    std::ostringstream tenants, pods;
    writeFleetTenantCsv(tenants, r);
    writeFleetPodCsv(pods, r);
    EXPECT_EQ(csvRowWidths(tenants.str()),
              std::vector<std::size_t>(1 + r.tenants.size(), 32));
    EXPECT_EQ(csvRowWidths(pods.str()),
              std::vector<std::size_t>(1 + r.pods.size(), 29));
}

TEST(FleetPricing, PodsSharingAConfigNameArePricedOnTheirOwnConfig)
{
    // Two pods whose configs share a name but not a clock: each must
    // be priced on its own design point, not merged into one type.
    FleetSpec spec = buildFleet({defaultPodGroup(2)});
    spec.placement = PlacementKind::kLoadAware;
    spec.pods[1].config.freqGhz /= 2.0;
    ASSERT_EQ(spec.pods[0].config.name, spec.pods[1].config.name);
    std::string err;
    const auto gen = parseTraceGenSpec(
        "poisson:rate=2,horizon=20,seed=5,qos=1,cap=40", &err);
    ASSERT_TRUE(gen.has_value()) << err;
    const FleetResult r = simulateFleet(spec, generateTrace(*gen));
    ASSERT_TRUE(r.ok()) << r.error;

    std::size_t placed_on[2] = {0, 0};
    for (const FleetTenantMetrics &t : r.tenants) {
        if (t.finalPod == kNoPod)
            continue;
        ASSERT_LT(t.finalPod, spec.pods.size());
        ++placed_on[t.finalPod];
        const PodSpec &pod = spec.pods[t.finalPod];
        const ScenarioResult priced =
            runScenario(tenantScenario(pod.config, pod.chips, pod.pod, t.job));
        ASSERT_TRUE(priced.ok()) << priced.error;
        EXPECT_EQ(t.isolatedStepsPerSec, 1.0 / priced.seconds)
            << t.job.name << " (" << t.job.model << ") on pod "
            << t.finalPod;
    }
    // Both design points served tenants, so both prices were checked.
    EXPECT_GT(placed_on[0], 0u);
    EXPECT_GT(placed_on[1], 0u);
}

TEST(FleetWorkingSet, PartialSwitchIsStrictlyCheaper)
{
    const AcceleratorConfig cfg = divaDefault(true);
    const SwitchCost full = ContextSwitchModel(cfg, 1, 1.0).cost();
    const SwitchCost part = ContextSwitchModel(cfg, 1, 0.25).cost();
    EXPECT_LT(part.cycles, full.cycles);
    EXPECT_LT(part.seconds, full.seconds);
    EXPECT_LT(part.energyJ, full.energyJ);
    EXPECT_LT(part.dramBytes, full.dramBytes);

    // Out-of-range fractions clamp to the whole-SRAM switch.
    const SwitchCost clamped = ContextSwitchModel(cfg, 1, 7.0).cost();
    EXPECT_EQ(clamped.seconds, full.seconds);
    EXPECT_EQ(clamped.dramBytes, full.dramBytes);

    const std::vector<PodSpec> pods = podsOf("df=DiVa,count=2");
    const MigrationCost mfull = migrationCost(pods[0], pods[1], 1.0);
    const MigrationCost mpart = migrationCost(pods[0], pods[1], 0.5);
    EXPECT_LT(mpart.seconds, mfull.seconds);
    EXPECT_LT(mpart.energyJ, mfull.energyJ);
    EXPECT_LT(mpart.dramBytes, mfull.dramBytes);
}

TEST(FleetDeterminism, EmittersAreByteIdenticalAcrossThreads)
{
    std::string err;
    const auto gen = parseTraceGenSpec(
        "diurnal:rate=24,horizon=6,seed=11,qos=4,hold=4,cap=160", &err);
    ASSERT_TRUE(gen.has_value()) << err;
    const ArrivalTrace t = generateTrace(*gen);
    ASSERT_FALSE(t.jobs.empty());

    FleetSpec spec =
        fleetOf({podsOf("df=DiVa,count=3"), podsOf("df=OS")},
                PlacementKind::kLoadAware);
    spec.rebalance.enabled = true;
    spec.controlIntervalSec = 0.5;

    auto emit = [&](const FleetResult &r) {
        std::ostringstream os;
        writeFleetTenantCsv(os, r);
        writeFleetPodCsv(os, r);
        writeFleetJson(os, r, true);
        return os.str();
    };

    SweepOptions one_opts;
    SweepRunner one(one_opts);
    SweepOptions four_opts;
    four_opts.threads = 4;
    SweepRunner four(four_opts);

    const std::string serial = emit(simulateFleet(spec, t, one, 1));
    const std::string threaded = emit(simulateFleet(spec, t, four, 4));
    EXPECT_EQ(serial, threaded);

    // A rerun against the now-warm plan cache emits the same bytes:
    // cache accounting never leaks into the output.
    const std::string warm = emit(simulateFleet(spec, t, four, 4));
    EXPECT_EQ(serial, warm);
}

TEST(FleetDeterminism, SortedRunMergeIsByteIdenticalAcrossThreads)
{
    // Enough steps (8 x 4,096 or more) that the fleet-wide merge of the
    // sorted runs takes a value range of 4,096 samples or more on each
    // of up to 8 lanes, with first-fit stacking and rebalance
    // migrations moving sessions between pod runs.
    std::string err;
    const auto gen = parseTraceGenSpec(
        "diurnal:rate=50,horizon=60,seed=5,cap=2400", &err);
    ASSERT_TRUE(gen.has_value()) << err;
    const ArrivalTrace t = generateTrace(*gen);

    FleetSpec spec =
        fleetOf({podsOf("df=DiVa,count=3"), podsOf("df=OS")},
                PlacementKind::kFirstFit);
    spec.rebalance.enabled = true;
    spec.controlIntervalSec = 1.0;

    std::string serial;
    for (int threads : {1, 2, 4, 8}) {
        SweepOptions opts;
        opts.threads = threads;
        SweepRunner runner(opts);
        const FleetResult r = simulateFleet(spec, t, runner, threads);
        ASSERT_TRUE(r.ok()) << r.error;
        EXPECT_GT(r.migrations, 0u);
        EXPECT_GE(r.totalSteps, 8u * 4096u);
        EXPECT_EQ(r.aggStepLatency.count, r.totalSteps);
        double pod_max = 0.0;
        for (const FleetPodReport &p : r.pods)
            if (p.stepLatency.count > 0)
                pod_max = std::max(pod_max, p.stepLatency.maxSec);
        EXPECT_EQ(r.aggStepLatency.maxSec, pod_max);

        std::ostringstream os;
        writeFleetTenantCsv(os, r);
        writeFleetPodCsv(os, r);
        writeFleetJson(os, r, true);
        if (threads == 1)
            serial = os.str();
        else
            EXPECT_EQ(os.str(), serial) << threads << " threads";
    }
}

TEST(FleetDeterminism, HotPodRunSortedInPiecesMatchesTheWholeRun)
{
    // First-fit stacks nearly every step on one pod. Assembly cuts a
    // run longer than max(4,096, steps / threads) into pieces that sort
    // on separate lanes and merge for the pod's stats: two radix-sorted
    // pieces at 2 threads, four at 4, eight std::sort-ed ones at 8,
    // while one thread sorts the run whole. Every byte must match.
    std::string err;
    const auto gen = parseTraceGenSpec(
        "diurnal:rate=80,horizon=30,seed=7,cap=2000", &err);
    ASSERT_TRUE(gen.has_value()) << err;
    const ArrivalTrace t = generateTrace(*gen);

    FleetSpec spec = fleetOf({podsOf("df=DiVa"), podsOf("df=OS")},
                             PlacementKind::kFirstFit);
    spec.rebalance.enabled = true;
    spec.controlIntervalSec = 1.0;

    std::string serial;
    for (int threads : {1, 2, 4, 8}) {
        SweepOptions opts;
        opts.threads = threads;
        SweepRunner runner(opts);
        const FleetResult r = simulateFleet(spec, t, runner, threads);
        ASSERT_TRUE(r.ok()) << r.error;
        ASSERT_EQ(r.pods.size(), 2u);
        EXPECT_GT(r.migrations, 0u);
        // The hot pod's run holds more than 3 x 4,096 samples and more
        // than half of all steps, so it is cut at every thread count
        // above one.
        const std::uint64_t hot = r.pods[0].stepLatency.count;
        EXPECT_EQ(hot, r.pods[0].stepsDone);
        EXPECT_GT(hot, 3 * kRadixSortMin);
        EXPECT_GT(2 * hot, r.totalSteps);
        EXPECT_EQ(r.aggStepLatency.count, r.totalSteps);

        std::ostringstream os;
        writeFleetTenantCsv(os, r);
        writeFleetPodCsv(os, r);
        writeFleetJson(os, r, true);
        if (threads == 1)
            serial = os.str();
        else
            EXPECT_EQ(os.str(), serial) << threads << " threads";
    }
}

TEST(FleetDeterminism, RefusedLatencyRunsTakeTheExactFallback)
{
    // Near 1e17 s one ulp of the clock is 16 s, so every ~ms step is
    // lost in it and every step latency is exactly 0.0. sortPositiveRun
    // refuses such a run, so FleetSim::assemble falls back to
    // computeLatencyStats twice: the pod row over a copy of its run,
    // the fleet-wide stats over the concatenated runs, each of which
    // std::sort orders since no radix sort takes a zero sample.
    std::string err;
    const auto gen = parseTraceGenSpec(
        "poisson:rate=4,horizon=4,seed=3,cap=6,steps=20,qos=0", &err);
    ASSERT_TRUE(gen.has_value()) << err;
    ArrivalTrace t = generateTrace(*gen);
    for (TenantJob &j : t.jobs)
        j.arrivalSec += 1e17;
    const FleetSpec spec = buildFleet({defaultPodGroup(2)});

    std::string serial;
    for (int threads : {1, 4}) {
        SweepOptions opts;
        opts.threads = threads;
        SweepRunner runner(opts);
        const FleetResult r = simulateFleet(spec, t, runner, threads);
        ASSERT_TRUE(r.ok()) << r.error;
        ASSERT_EQ(r.pods.size(), 2u);
        EXPECT_EQ(r.pods[0].stepLatency.count, 120u);
        EXPECT_EQ(r.aggStepLatency.count, 120u);
        for (const LatencyStats *s :
             {&r.pods[0].stepLatency, &r.aggStepLatency})
            for (const double v : {s->meanSec, s->p50Sec, s->p95Sec,
                                   s->p99Sec, s->maxSec})
                EXPECT_EQ(v, 0.0) << threads << " threads";

        std::ostringstream os;
        writeFleetPodCsv(os, r);
        writeFleetJson(os, r, true);
        if (threads == 1)
            serial = os.str();
        else
            EXPECT_EQ(os.str(), serial) << threads << " threads";
    }
}

TEST(FleetDeterminism, RefusedPiecesOfALongRunTakeTheExactFallback)
{
    // RefusedLatencyRunsTakeTheExactFallback at 30,000 steps: the
    // all-zero run of pod 0 is cut into pieces at 2 and 4 threads, the
    // radix sort refuses every piece, and the pod row and the
    // fleet-wide stats take the exact fallback over the run as the
    // refused pieces left it.
    std::string err;
    const auto gen = parseTraceGenSpec(
        "poisson:rate=4,horizon=4,seed=3,cap=6,steps=5000,qos=0", &err);
    ASSERT_TRUE(gen.has_value()) << err;
    ArrivalTrace t = generateTrace(*gen);
    for (TenantJob &j : t.jobs)
        j.arrivalSec += 1e17;
    const FleetSpec spec = buildFleet({defaultPodGroup(2)});

    std::string serial;
    for (int threads : {1, 2, 4}) {
        SweepOptions opts;
        opts.threads = threads;
        SweepRunner runner(opts);
        const FleetResult r = simulateFleet(spec, t, runner, threads);
        ASSERT_TRUE(r.ok()) << r.error;
        ASSERT_EQ(r.pods.size(), 2u);
        EXPECT_EQ(r.pods[0].stepLatency.count, 30000u);
        EXPECT_EQ(r.aggStepLatency.count, 30000u);
        for (const LatencyStats *s :
             {&r.pods[0].stepLatency, &r.aggStepLatency})
            for (const double v : {s->meanSec, s->p50Sec, s->p95Sec,
                                   s->p99Sec, s->maxSec})
                EXPECT_EQ(v, 0.0) << threads << " threads";

        std::ostringstream os;
        writeFleetPodCsv(os, r);
        writeFleetJson(os, r, true);
        if (threads == 1)
            serial = os.str();
        else
            EXPECT_EQ(os.str(), serial) << threads << " threads";
    }
}

} // namespace
} // namespace diva
