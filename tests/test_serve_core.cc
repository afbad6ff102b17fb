/**
 * @file
 * Contract tests of the shared event-driven serve core
 * (src/serve_core/): (1) golden byte-identity -- the diva_serve and
 * diva_fleet CLIs must reproduce the checked-in CSV/JSON fixtures bit
 * for bit; (2) coalescing equivalence -- one closed-form multi-quantum
 * advance must land on exactly the state k single-quantum advances
 * produce; (3) thread-count determinism -- the fleet emitters must
 * produce the same bytes with 1 and 4 engine threads (run in-process
 * so the TSan job also proves the epoch parallelism race-free); (4)
 * one serve semantics -- an open-loop diva_serve trace replay and a
 * one-pod fleet must give every tenant the same results; (5) ready-set
 * order -- the head-indexed ReadySet must iterate exactly like a
 * std::set<ReadyKey> under random operation sequences; (6) stale
 * entries -- arrival and gate entries whose task left the executor's
 * care are consumed without effect, and an event at exactly now + kEps
 * is due; (7) work counts -- runServeLoop over synthetic costs takes
 * exactly the pinned events in each scheduling regime, and the sparse
 * FIFO mix takes the coalescing fast path.
 *
 * The golden tests run the tool binaries out of the build directory
 * (ctest's working directory) against fixtures under
 * tests/golden/serve_core/, and skip when the tools or the
 * DIVA_SOURCE_DIR compile definition are unavailable.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <random>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "arrivals/generate.h"
#include "arrivals/replay.h"
#include "fleet/emit.h"
#include "fleet/engine.h"
#include "fleet/fleet.h"
#include "serve_core/core.h"
#include "tenant/serve.h"

namespace diva
{
namespace
{

bool
exists(const std::string &path)
{
    return std::ifstream(path).good();
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream whole;
    whole << in.rdbuf();
    return whole.str();
}

/** Run a command with stdout/stderr dropped; -1 if system() failed. */
int
runQuiet(const std::string &cmd)
{
    const int status = std::system((cmd + " >/dev/null 2>&1").c_str());
    if (status == -1)
        return -1;
#ifdef WEXITSTATUS
    return WEXITSTATUS(status);
#else
    return status;
#endif
}

std::string
fixtureDir()
{
#ifdef DIVA_SOURCE_DIR
    return std::string(DIVA_SOURCE_DIR) + "/tests/golden/serve_core/";
#else
    return "";
#endif
}

// ------------------------------------------------------- golden diffs

class ServeCoreGolden : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        if (fixtureDir().empty() || !exists(fixtureDir() + "serve_closed.csv"))
            GTEST_SKIP() << "golden fixtures not found";
        if (!exists("./diva_serve") || !exists("./diva_fleet"))
            GTEST_SKIP() << "tool binaries not built";
    }

    /** Byte-compare a fresh output against a checked-in fixture. */
    void expectFixture(const std::string &fresh,
                       const std::string &fixture)
    {
        const std::string got = slurp(fresh);
        const std::string want = slurp(fixtureDir() + fixture);
        ASSERT_FALSE(want.empty()) << fixture << " fixture unreadable";
        EXPECT_TRUE(got == want)
            << fixture << ": output diverged from the golden fixture ("
            << got.size() << " vs " << want.size() << " bytes)";
        std::remove(fresh.c_str());
    }
};

TEST_F(ServeCoreGolden, ClosedLoopServeMatchesPreRefactorBytes)
{
    ASSERT_EQ(runQuiet("./diva_serve --policies all --tenants 3 "
                       "--steps 16 --quiet --csv sc_closed.csv "
                       "--json sc_closed.json"),
              0);
    expectFixture("sc_closed.csv", "serve_closed.csv");
    expectFixture("sc_closed.json", "serve_closed.json");
}

TEST_F(ServeCoreGolden, QuantumWallPriorityServeMatchesPreRefactorBytes)
{
    ASSERT_EQ(
        runQuiet("./diva_serve --policy prio "
                 "--tenant ResNet-50:32:2.5:0:2:64 "
                 "--tenant SqueezeNet:8:4:0.001:1:0:0.02 "
                 "--tenant MobileNet:8:0:0.002:3:40 "
                 "--quantum 3 --wall-s 0.05 --quiet "
                 "--csv sc_quantum.csv --json sc_quantum.json"),
        0);
    expectFixture("sc_quantum.csv", "serve_quantum.csv");
    expectFixture("sc_quantum.json", "serve_quantum.json");
}

TEST_F(ServeCoreGolden, PodTimeSharingServeMatchesPreRefactorBytes)
{
    ASSERT_EQ(runQuiet("./diva_serve --policy fifo --tenants 4 "
                       "--steps 12 --chips 4 --quantum 2 --quiet "
                       "--csv sc_pod.csv --json sc_pod.json"),
              0);
    expectFixture("sc_pod.csv", "serve_pod.csv");
    expectFixture("sc_pod.json", "serve_pod.json");
}

// Two bounded tenants keep their samples in arena slices and an
// unbounded one in its overflow vector; the aggregate reads all three
// off the arena with the overflow run appended, so its stats pin that
// every sample is counted once and no unused slot is counted.
TEST_F(ServeCoreGolden, MixedArenaAndOverflowServeMatchesBytes)
{
    ASSERT_EQ(runQuiet("./diva_serve --quiet "
                       "--tenant SqueezeNet:8:0:0:0:50 "
                       "--tenant SqueezeNet:8:0:0:0:0 "
                       "--tenant MobileNet:8:0:0:0:50 "
                       "--wall-s 0.4 --policy rr "
                       "--csv sc_mixed.csv --json sc_mixed.json"),
              0);
    expectFixture("sc_mixed.csv", "serve_mixed.csv");
    expectFixture("sc_mixed.json", "serve_mixed.json");
}

// Four tenants of 1,500 samples and their 6,000-sample aggregate, each
// a few distinct step latencies in runs of equal ones: the
// distinct-value census ranks them all, so a miscounted run moves every
// percentile here.
TEST_F(ServeCoreGolden, CensusRankedServeMatchesBytes)
{
    ASSERT_EQ(runQuiet("./diva_serve --tenants 4 --steps 1500 "
                       "--quantum 8 --qos none --policy rr --quiet "
                       "--csv sc_census.csv --json sc_census.json"),
              0);
    expectFixture("sc_census.csv", "serve_census.csv");
    expectFixture("sc_census.json", "serve_census.json");
}

TEST_F(ServeCoreGolden, FleetReplayMatchesPreRefactorBytes)
{
    ASSERT_EQ(
        runQuiet("./diva_fleet --pod df=DiVa,count=3 --pod df=OS "
                 "--placement load "
                 "--arrivals diurnal:rate=24,horizon=6,seed=11,qos=4,"
                 "hold=4,cap=160 "
                 "--rebalance-every 0.5 --quiet --no-summary "
                 "--pod-csv sc_fleet_pod.csv --csv sc_fleet.csv "
                 "--json sc_fleet.json"),
        0);
    expectFixture("sc_fleet.csv", "fleet_smoke.csv");
    expectFixture("sc_fleet.json", "fleet_smoke.json");
    expectFixture("sc_fleet_pod.csv", "fleet_smoke_pod.csv");
}

/** Cells of one CSV line (the fleet pod CSV quotes none). */
std::vector<std::string>
csvFields(const std::string &line)
{
    std::vector<std::string> cells;
    std::istringstream in(line);
    for (std::string cell; std::getline(in, cell, ',');)
        cells.push_back(cell);
    return cells;
}

/** True if some row of a fleet pod CSV has migrated_out > 0. */
bool
somePodMigratesOut(const std::string &podCsv)
{
    std::istringstream in(slurp(podCsv));
    std::string line;
    std::getline(in, line);
    const std::vector<std::string> header = csvFields(line);
    const std::size_t col =
        std::size_t(std::find(header.begin(), header.end(),
                              "migrated_out") -
                    header.begin());
    while (std::getline(in, line)) {
        const std::vector<std::string> row = csvFields(line);
        if (col < row.size() && std::stoul(row[col]) > 0)
            return true;
    }
    return false;
}

// Each pod's latency run is gathered from its sessions' stays, so the
// stats of a pod that sends and receives sessions are pinned here:
// first-fit packs p0/p1 and rebalancing moves their sessions on.
TEST_F(ServeCoreGolden, MigratingFleetMatchesPreRefactorBytes)
{
    ASSERT_EQ(
        runQuiet("./diva_fleet --pod df=DiVa,count=3 --pod df=OS "
                 "--placement first-fit "
                 "--arrivals diurnal:rate=24,horizon=6,seed=11,qos=4,"
                 "hold=4,cap=160 "
                 "--rebalance-every 0.5 --quiet --no-summary "
                 "--pod-csv sc_migrate_pod.csv --csv sc_migrate.csv "
                 "--json sc_migrate.json"),
        0);
    EXPECT_TRUE(somePodMigratesOut("sc_migrate_pod.csv"));
    expectFixture("sc_migrate.csv", "fleet_migrate.csv");
    expectFixture("sc_migrate.json", "fleet_migrate.json");
    expectFixture("sc_migrate_pod.csv", "fleet_migrate_pod.csv");
}

// Unbounded sessions (steps=0) keep their samples in an overflow
// vector instead of the arena; their migrations hand those over.
TEST_F(ServeCoreGolden, MigratingUnboundedSessionsMatchPreRefactorBytes)
{
    ASSERT_EQ(
        runQuiet("./diva_fleet --pods 4 --placement first-fit "
                 "--arrivals poisson:rate=40,horizon=10,seed=5,qos=2,"
                 "steps=0,hold=3,cap=300 "
                 "--rebalance-every 1 --quiet --no-summary "
                 "--pod-csv sc_unbounded_pod.csv --csv sc_unbounded.csv "
                 "--json sc_unbounded.json"),
        0);
    EXPECT_TRUE(somePodMigratesOut("sc_unbounded_pod.csv"));
    expectFixture("sc_unbounded.csv", "fleet_unbounded.csv");
    expectFixture("sc_unbounded.json", "fleet_unbounded.json");
    expectFixture("sc_unbounded_pod.csv", "fleet_unbounded_pod.csv");
}

// ---------------------------------------------- coalescing equivalence

/** Minimal serve_core client: fixed per-task costs, an owner per task,
 *  a billing log. */
struct MiniClient
{
    std::vector<serve_core::Task> tasks;
    /** Seconds per step, one per task. */
    std::vector<double> costSec;
    /** Id of the executor that owns each task. */
    std::vector<std::size_t> owner;
    double switchSec = 0.0005;

    /** Chronological (idx, stepStartSec, latencySec) billing log. */
    std::vector<std::tuple<std::uint32_t, double, double>> stepLog;
    std::vector<std::uint32_t> switchLog;

    /** Append a task of `steps` steps of `cost` s arriving at
     *  `arrival`; the reference is valid until the next add. */
    serve_core::Task &add(double arrival, std::uint64_t steps, double cost)
    {
        tasks.emplace_back();
        tasks.back().arrivalSec = arrival;
        tasks.back().stepLimit = steps;
        costSec.push_back(cost);
        owner.push_back(0);
        return tasks.back();
    }

    bool owns(const serve_core::Executor &ex, std::uint32_t i) const
    {
        return owner[i] == ex.id;
    }
    serve_core::Task &task(std::uint32_t i) { return tasks[i]; }
    const serve_core::Task &task(std::uint32_t i) const
    {
        return tasks[i];
    }
    double stepSeconds(const serve_core::Executor &,
                       std::uint32_t i) const
    {
        return costSec[i];
    }
    double switchSeconds(const serve_core::Executor &) const
    {
        return switchSec;
    }
    void onSwitch(serve_core::Executor &, std::uint32_t i)
    {
        switchLog.push_back(i);
    }
    void onStep(serve_core::Executor &, std::uint32_t i,
                double stepStartSec, double latencySec, double,
                double)
    {
        stepLog.emplace_back(i, stepStartSec, latencySec);
    }
    void onRetire(serve_core::Executor &, std::uint32_t) {}
};

serve_core::Executor
freshExecutor(const MiniClient &c)
{
    serve_core::Executor ex;
    ex.arrivals.resize(c.tasks.size());
    for (std::size_t i = 0; i < c.tasks.size(); ++i)
        ex.arrivals[i] = std::uint32_t(i);
    std::stable_sort(ex.arrivals.begin(), ex.arrivals.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                         return c.tasks[a].arrivalSec <
                                c.tasks[b].arrivalSec;
                     });
    return ex;
}

MiniClient
mixedClient()
{
    MiniClient c;
    for (int i = 0; i < 6; ++i)
        c.add(0.002 * double(i), 40 + std::uint64_t(7 * i),
              0.0009 + 0.0001 * double(i % 3))
            .priority = i % 2;
    // Sparse stragglers that run alone (pure coalescing regime) and
    // one rate-gated task (gate/promotion regime).
    c.add(1.0, 64, 0.001);
    c.add(0.001, 30, 0.0012).rateSps = 20.0;
    return c;
}

/**
 * Drive one executor to completion with the multi-quantum fast path
 * enabled and a second with it disabled (Config::coalesce = false, so
 * every quantum expiry pays the full re-enqueue + promote + pick round
 * trip). Both must land on bit-identical clocks, per-task state and
 * billing logs -- coalescing k quanta may only skip k scheduler round
 * trips, never change the schedule. Each skipped round trip is one
 * saved dispatch, so the step-by-step run's dispatch count must equal
 * dispatches + coalescedQuanta of the coalesced run exactly.
 */
void
expectCoalescingEquivalence(serve_core::Config cfg)
{
    cfg.coalesce = true;
    MiniClient one = mixedClient();
    serve_core::Executor exOne = freshExecutor(one);
    serve_core::runUntil(one, exOne, cfg, serve_core::kInfSec);

    cfg.coalesce = false;
    MiniClient single = mixedClient();
    serve_core::Executor exSingle = freshExecutor(single);
    serve_core::runUntil(single, exSingle, cfg, serve_core::kInfSec);

    EXPECT_EQ(exOne.nowSec, exSingle.nowSec);
    EXPECT_EQ(exOne.counters.steps, single.stepLog.size());
    EXPECT_GT(exOne.counters.coalescedQuanta, 0u)
        << "workload never exercised the fast path";
    EXPECT_EQ(exSingle.counters.coalescedQuanta, 0u);
    EXPECT_EQ(exSingle.counters.dispatches,
              exOne.counters.dispatches + exOne.counters.coalescedQuanta)
        << "each coalesced quantum must stand in for exactly one "
        << "dispatch of the step-by-step run";
    ASSERT_EQ(one.stepLog.size(), single.stepLog.size());
    for (std::size_t s = 0; s < one.stepLog.size(); ++s)
        ASSERT_TRUE(one.stepLog[s] == single.stepLog[s])
            << "step " << s << " diverged: coalesced=(task "
            << std::get<0>(one.stepLog[s]) << ", start "
            << std::get<1>(one.stepLog[s]) << ", lat "
            << std::get<2>(one.stepLog[s]) << ") single=(task "
            << std::get<0>(single.stepLog[s]) << ", start "
            << std::get<1>(single.stepLog[s]) << ", lat "
            << std::get<2>(single.stepLog[s]) << ")";
    EXPECT_EQ(one.switchLog, single.switchLog);
    for (std::size_t i = 0; i < one.tasks.size(); ++i) {
        EXPECT_EQ(one.tasks[i].done, single.tasks[i].done) << "task " << i;
        EXPECT_EQ(one.tasks[i].completed, single.tasks[i].completed);
        EXPECT_EQ(one.tasks[i].completionSec,
                  single.tasks[i].completionSec);
    }
}

TEST(ServeCoreCoalescing, FleetModeMultiQuantumAdvanceEqualsSingleSteps)
{
    serve_core::Config cfg; // fleet-mode defaults
    cfg.policy = SchedPolicy::kFifo;
    cfg.quantumIters = 4;
    expectCoalescingEquivalence(cfg);
}

TEST(ServeCoreCoalescing, FleetSteadyStateMultiQuantumAdvanceEqualsSingleSteps)
{
    // Round robin, rate gates and quantum 1: the fleet's default.
    expectCoalescingEquivalence(serve_core::Config{});
}

TEST(ServeCoreCoalescing, TenantModeMultiQuantumAdvanceEqualsSingleSteps)
{
    serve_core::Config cfg;
    cfg.policy = SchedPolicy::kRoundRobin;
    cfg.quantumIters = 3;
    cfg.rateGates = false; // closed loop, as static diva_serve mixes run
    expectCoalescingEquivalence(cfg);
}

TEST(ServeCoreCoalescing, EdfModeMultiQuantumAdvanceEqualsSingleSteps)
{
    serve_core::Config cfg;
    cfg.policy = SchedPolicy::kEdf;
    cfg.quantumIters = 2;
    expectCoalescingEquivalence(cfg);
}

// -------------------------------------------------------- work counts

/**
 * Counters of runServeLoop over 96 tenants of 10,000 steps each at
 * quantum 8, arriving `arriveEverySec` apart with a rate target of
 * `ratePerTenant` steps/s (0 = none). Iteration costs are synthetic,
 * ~1 ms with a per-tenant spread so that no two tenants run
 * phase-locked, and the switch cost is fixed, so the counts depend on
 * the serve core alone, not on the pricing pipeline.
 */
serve_core::Counters
syntheticServeCounters(SchedPolicy policy, bool openLoop,
                       double ratePerTenant, double arriveEverySec)
{
    constexpr int kTenants = 96;
    constexpr std::uint64_t kSteps = 10000;
    ServeSpec spec;
    spec.workload = defaultWorkload(kTenants, kSteps, 32, arriveEverySec);
    for (TenantJob &job : spec.workload.jobs)
        job.qosStepsPerSec = ratePerTenant;
    spec.policy = policy;
    spec.opts.quantumIters = 8;
    spec.opts.openLoop = openLoop;

    std::vector<IterationCost> costs(kTenants);
    for (std::size_t i = 0; i < costs.size(); ++i) {
        costs[i].seconds = 0.0008 + 0.0001 * double(i % 7);
        costs[i].energyJ = 0.5;
        costs[i].dramBytes = Bytes(1) << 20;
        costs[i].cycles = 1000000;
        costs[i].resolvedBatch = 32;
    }
    SwitchCost sw;
    sw.seconds = 0.0005;
    sw.energyJ = 0.05;
    sw.dramBytes = Bytes(1) << 22;

    const ServeResult r = runServeLoop(spec, costs, sw);
    EXPECT_TRUE(r.ok()) << r.error;
    return r.coreCounters;
}

/** Share of quantum expiries absorbed without a scheduler round trip. */
double
coalescedShare(const serve_core::Counters &c)
{
    return double(c.coalescedQuanta) /
           double(c.dispatches + c.coalescedQuanta);
}

void
expectCounters(const serve_core::Counters &got,
               const serve_core::Counters &want)
{
    EXPECT_EQ(got.steps, want.steps);
    EXPECT_EQ(got.dispatches, want.dispatches);
    EXPECT_EQ(got.coalescedQuanta, want.coalescedQuanta);
    EXPECT_EQ(got.promotions, want.promotions);
    EXPECT_EQ(got.idleJumps, want.idleJumps);
    EXPECT_EQ(got.switches, want.switches);
    EXPECT_EQ(got.retired, want.retired);
}

// Closed-loop round robin over arrivals 0.5 s apart: the ready set is
// rarely empty, so nearly every quantum expiry is a dispatch.
TEST(ServeCoreWorkCounts, ClosedRoundRobinDispatchesEveryQuantum)
{
    const serve_core::Counters c = syntheticServeCounters(
        SchedPolicy::kRoundRobin, false, 0.0, 0.5);
    expectCounters(c, {960000, 119992, 78, 96, 0, 119990, 96});
    EXPECT_LE(coalescedShare(c), 0.01);
}

// Closed-loop FIFO over arrivals 25 s apart: each tenant finishes
// (8-14 s) before the next arrives and runs alone, so one dispatch
// serves it and every later quantum coalesces.
TEST(ServeCoreWorkCounts, SparseFifoCoalescesItsQuanta)
{
    const serve_core::Counters c =
        syntheticServeCounters(SchedPolicy::kFifo, false, 0.0, 25.0);
    expectCounters(c, {960000, 96, 119904, 96, 95, 95, 96});
    EXPECT_GE(coalescedShare(c), 0.9);
}

// Open-loop EDF at 2 steps/s per tenant: the engine is mostly idle, so
// rate gates, promotions and idle jumps carry the run and no quantum
// coalesces.
TEST(ServeCoreWorkCounts, OpenEdfRunsOnGatesAndIdleJumps)
{
    const serve_core::Counters c =
        syntheticServeCounters(SchedPolicy::kEdf, true, 2.0, 0.5);
    expectCounters(c, {960000, 960000, 0, 960000, 10094, 959997, 96});
    EXPECT_EQ(c.coalescedQuanta, 0u);
}

// ------------------------------------------------------ stale entries

/**
 * One-step tasks on executor 0, each of whose queue entries is live or
 * went stale. Arrivals, in list order: 0 is owned by executor 1, 1 was
 * suspended, 2 arrives at 1.0, 3 at exactly 1.0 + kEps and 4 one ulp
 * past that. Gates: 5 was gated at 1.0005 and then again at 3.0, so
 * its first entry's generation moved; 6 is due at 1.0 + kEps, 7 one
 * ulp past it and 8 at 1.0008, behind 5's stale entry. Round robin
 * keeps the ready set in promotion order.
 */
struct StaleEntryFixture
{
    MiniClient c;
    serve_core::Executor ex;
    serve_core::Config cfg;

    StaleEntryFixture()
    {
        const double at = 1.0 + serve_core::kEps;
        const double past = std::nextafter(at, serve_core::kInfSec);
        for (const double arrival : {0.5, 0.5, 1.0, at, past}) {
            c.add(arrival, 1, 0.001);
            ex.arrivals.push_back(std::uint32_t(c.tasks.size() - 1));
        }
        c.owner[0] = 1;
        c.tasks[1].state = serve_core::TaskState::kSuspended;
        for (int gated = 0; gated < 4; ++gated)
            c.add(0.0, 1, 0.001).rateSps = 1.0;
        serve_core::gate(c, ex, 5, 1.0005);
        serve_core::gate(c, ex, 5, 3.0);
        serve_core::gate(c, ex, 6, at);
        serve_core::gate(c, ex, 7, past);
        serve_core::gate(c, ex, 8, 1.0008);
    }

    std::vector<std::uint32_t> readyOrder()
    {
        std::vector<std::uint32_t> order;
        for (const serve_core::ReadyKey &k : ex.ready)
            order.push_back(k.idx);
        return order;
    }
};

// promote consumes the stale entries without effect, serves arrivals
// before gates, and takes an event at exactly now + kEps but not one an
// ulp past it; a stale gate entry on top must not hide a live one due
// behind it.
TEST(ServeCoreStaleEntries, PromoteSkipsStaleEntriesAndStopsPastNowPlusEps)
{
    StaleEntryFixture f;
    f.ex.nowSec = 1.0;
    serve_core::promote(f.c, f.ex, f.cfg);
    EXPECT_EQ(f.readyOrder(), (std::vector<std::uint32_t>{2, 3, 6}));
    EXPECT_EQ(f.ex.counters.promotions, 3u);
    EXPECT_EQ(f.ex.arrCursor, 4u);

    f.ex.nowSec = 1.001;
    serve_core::promote(f.c, f.ex, f.cfg);
    EXPECT_EQ(f.readyOrder(),
              (std::vector<std::uint32_t>{2, 3, 6, 4, 7, 8}));
    EXPECT_EQ(f.ex.counters.promotions, 6u);
    EXPECT_EQ(f.ex.arrCursor, f.ex.arrivals.size());
    ASSERT_EQ(f.ex.gated.size(), 1u) << "5's stale entry was not popped";
    EXPECT_EQ(f.ex.gated.top().dueSec, 3.0);
    EXPECT_EQ(f.c.tasks[0].state, serve_core::TaskState::kPending);
    EXPECT_EQ(f.c.tasks[1].state, serve_core::TaskState::kSuspended);
    EXPECT_EQ(f.ex.counters.idleJumps, 0u);
}

// The whole run: one idle jump to the first live arrival, one to 5's
// live gate, and every live task served once in promotion order.
TEST(ServeCoreStaleEntries, RunServesLiveEntriesInPromotionOrder)
{
    StaleEntryFixture f;
    serve_core::runUntil(f.c, f.ex, f.cfg, serve_core::kInfSec);
    std::vector<std::uint32_t> order;
    for (const auto &[idx, start, latency] : f.c.stepLog)
        order.push_back(idx);
    EXPECT_EQ(order, (std::vector<std::uint32_t>{2, 3, 6, 4, 7, 8, 5}));
    EXPECT_EQ(std::get<1>(f.c.stepLog.front()), 1.0);
    EXPECT_EQ(f.ex.counters.promotions, 7u);
    EXPECT_EQ(f.ex.counters.idleJumps, 2u);
    EXPECT_EQ(f.ex.counters.retired, 7u);
    EXPECT_EQ(f.c.tasks[0].done, 0u);
    EXPECT_EQ(f.c.tasks[1].done, 0u);
}

// ------------------------------------------------ latency recording

// The core stores each step's latency in its task: step k in slot
// k - 1 of a task given slots, else in its overflow vector. Either way
// samples() must read back what onStep was told, in step order, and a
// task with slots must write nothing past its budget.
TEST(ServeCoreLatencies, CoreRecordsEveryStepInSlotsOrOverflow)
{
    MiniClient c;
    c.add(0.0, 12, 0.001);
    c.add(0.0005, 9, 0.0015).rateSps = 500.0;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::vector<double> arena(12 + 1, nan); // a sentinel past the budget
    c.tasks[0].slots = arena.data();

    serve_core::Config cfg;
    cfg.quantumIters = 2;
    serve_core::Executor ex = freshExecutor(c);
    serve_core::runUntil(c, ex, cfg, serve_core::kInfSec);

    for (std::uint32_t i = 0; i < 2; ++i) {
        std::vector<double> logged;
        for (const auto &[idx, start, latency] : c.stepLog)
            if (idx == i)
                logged.push_back(latency);
        const std::span<double> got = serve_core::samples(c.tasks[i]);
        ASSERT_EQ(got.size(), c.tasks[i].stepLimit) << "task " << i;
        EXPECT_TRUE(std::equal(got.begin(), got.end(), logged.begin(),
                               logged.end()))
            << "task " << i << ": samples differ from onStep's";
    }
    EXPECT_GT(c.switchLog.size(), 2u) << "the tasks never interleaved";
    EXPECT_EQ(serve_core::samples(c.tasks[0]).data(), arena.data());
    EXPECT_TRUE(c.tasks[0].overflow.empty());
    EXPECT_EQ(c.tasks[1].overflow.size(), 9u);
    EXPECT_TRUE(std::isnan(arena.back())) << "wrote past the budget";
}

// ------------------------------------------------- ready-set ordering

/** A random key in one policy's shape (see serve_core::makeKey): 0
 *  FIFO (arrival), 1 priority (-priority, arrival), 2 EDF (deadline,
 *  arrival), 3 round robin (a fresh sequence number). Few distinct
 *  values, so ties on the leading fields reach the later ones. */
serve_core::ReadyKey
randomKey(std::mt19937_64 &rng, int shape, std::uint64_t &rrSeq)
{
    serve_core::ReadyKey k;
    k.idx = std::uint32_t(rng() % 48);
    const double arrival = 0.5 * double(rng() % 12);
    switch (shape) {
      case 0:
        k.k1 = arrival;
        break;
      case 1:
        k.k1 = -double(rng() % 4);
        k.k2 = arrival;
        break;
      case 2:
        k.k1 = rng() % 6 == 0 ? serve_core::kInfSec
                              : 0.25 * double(rng() % 16);
        k.k2 = arrival;
        break;
      default:
        k.seq = ++rrSeq;
        break;
    }
    return k;
}

void
expectSameKeys(serve_core::ReadySet &ready,
               const std::set<serve_core::ReadyKey> &ref)
{
    ASSERT_EQ(ready.size(), ref.size());
    ASSERT_EQ(ready.empty(), ref.empty());
    auto want = ref.begin();
    for (auto it = ready.begin(); it != ready.end(); ++it, ++want) {
        ASSERT_EQ(it->k1, want->k1);
        ASSERT_EQ(it->k2, want->k2);
        ASSERT_EQ(it->seq, want->seq);
        ASSERT_EQ(it->idx, want->idx);
    }
}

// The ready set pops its first key by advancing a head index and
// compacts the popped prefix only when its storage is full. Random
// inserts, erases by key (present or not) and iterator erases -- the
// first key, and runs from the front as the dispatch scan retires
// tasks -- must leave it equal to a std::set element by element, with
// sizes that sweep through the inline and heap capacities so
// compaction and growth happen mid-sequence.
TEST(ServeCoreReadySet, MatchesStdSetUnderRandomOperations)
{
    for (int shape = 0; shape < 4; ++shape)
        for (std::uint64_t seed = 1; seed <= 12; ++seed) {
            std::mt19937_64 rng(seed * 4 + std::uint64_t(shape));
            serve_core::ReadySet ready;
            std::set<serve_core::ReadyKey> ref;
            std::uint64_t rr_seq = 0;
            for (int op = 0; op < 3000; ++op) {
                // Alternate growing and draining phases of 300 ops:
                // the size sweeps from empty to about a hundred keys.
                const bool grow = (op / 300) % 2 == 0;
                const unsigned dice = unsigned(rng() % 20);
                if (ref.empty() || dice < (grow ? 14u : 5u)) {
                    const serve_core::ReadyKey k =
                        randomKey(rng, shape, rr_seq);
                    if (ref.count(k) != 0)
                        continue; // a task sits in the set at most once
                    ready.insert(k);
                    ref.insert(k);
                } else if (dice < (grow ? 16u : 12u)) {
                    ready.erase(ready.begin());
                    ref.erase(ref.begin());
                } else if (dice < (grow ? 18u : 16u)) {
                    // Erase by key: a present one, or a random one.
                    const serve_core::ReadyKey k =
                        rng() % 2 == 0
                            ? *std::next(ref.begin(),
                                         long(rng() % ref.size()))
                            : randomKey(rng, shape, rr_seq);
                    ready.erase(k);
                    ref.erase(k);
                } else {
                    // The dispatch scan: erase a run of keys from the
                    // front through the returned iterator, then maybe
                    // one further in.
                    const std::size_t run = std::size_t(rng() % 3);
                    auto it = ready.begin();
                    for (std::size_t r = 0; r < run && !ref.empty(); ++r) {
                        it = ready.erase(it);
                        ref.erase(ref.begin());
                        ASSERT_TRUE(it == ready.begin());
                    }
                    if (!ref.empty()) {
                        const std::size_t at =
                            std::size_t(rng() % ref.size());
                        const auto next =
                            ready.erase(ready.begin() + at);
                        ref.erase(std::next(ref.begin(), long(at)));
                        ASSERT_TRUE(next == ready.begin() + at);
                    }
                }
                expectSameKeys(ready, ref);
                if (HasFatalFailure())
                    FAIL() << "shape " << shape << " seed " << seed
                           << " op " << op;
            }
        }
}

// ------------------------------------------- thread-count determinism

/** Run `genText`'s trace on `spec` with 1 and 4 engine threads and
 *  expect the fleet emitters to write the same bytes; the 1-thread
 *  result goes to *one. */
void
expectFleetBytesStable(const std::string &genText, const FleetSpec &spec,
                       SweepRunner &runner, FleetResult *one)
{
    SCOPED_TRACE(genText);
    std::string err;
    const auto gen = parseTraceGenSpec(genText, &err);
    ASSERT_TRUE(gen.has_value()) << err;
    const ArrivalTrace trace = generateTrace(*gen);

    auto emitAll = [](const FleetResult &r) {
        std::ostringstream os;
        writeFleetTenantCsv(os, r);
        writeFleetPodCsv(os, r);
        writeFleetJson(os, r, true);
        return os.str();
    };

    *one = simulateFleet(spec, trace, runner, 1);
    ASSERT_TRUE(one->ok()) << one->error;
    const FleetResult four = simulateFleet(spec, trace, runner, 4);
    ASSERT_TRUE(four.ok()) << four.error;

    EXPECT_TRUE(emitAll(*one) == emitAll(four))
        << "fleet emitters diverged across engine thread counts";
}

/**
 * The CI acceptance run distilled in-process: generated traces on a
 * fleet must emit bit-identical CSV/JSON whether epochs run on 1 or 4
 * worker threads. Running it in-process (instead of via the CLI) puts
 * the epoch parallelism under TSan in the sanitizer job. The first
 * trace's sessions all record into arena slots; the second's are
 * unbounded, so the core appends their samples to overflow vectors,
 * and first-fit plus rebalancing moves those sessions between pods.
 */
TEST(ServeCoreDeterminism, FleetEmittersAreByteStableAcrossThreadCounts)
{
    std::string err;
    const auto diva_pods = parsePodTemplate("df=DiVa,count=2", &err);
    ASSERT_TRUE(diva_pods.has_value()) << err;
    const auto os_pods = parsePodTemplate("df=OS", &err);
    ASSERT_TRUE(os_pods.has_value()) << err;
    FleetSpec spec = buildFleet({*diva_pods, *os_pods});
    spec.placement = PlacementKind::kLoadAware;
    spec.rebalance.enabled = true;
    spec.controlIntervalSec = 0.5;

    SweepOptions opts;
    opts.threads = 2;
    SweepRunner runner(opts);
    FleetResult one;
    expectFleetBytesStable(
        "diurnal:rate=18,horizon=4,seed=11,qos=3,hold=3,cap=120", spec,
        runner, &one);

    FleetSpec unbounded = buildFleet({defaultPodGroup(4)});
    unbounded.placement = PlacementKind::kFirstFit;
    unbounded.rebalance.enabled = true;
    unbounded.controlIntervalSec = 1.0;
    expectFleetBytesStable(
        "poisson:rate=40,horizon=10,seed=5,qos=2,steps=0,hold=3,cap=300",
        unbounded, runner, &one);
    EXPECT_GT(one.migrations, 0u) << "no overflow samples changed pods";
}

// ------------------------------------------------ one serve semantics

bool
sameValue(double a, double b)
{
    return a == b || (std::isnan(a) && std::isnan(b));
}

/**
 * `diva_serve`'s open-loop trace replay and a one-pod `diva_fleet` run
 * the same event rules on the same core.  Replaying one generated
 * trace on one DiVa accelerator, both must give every tenant the same
 * steps, completion, end time, energy, switches, QoS attainment and
 * latency tail, bit for bit.  Every session fits the pod (no
 * rejections), and with rebalance and budget off the fleet serves one
 * uninterrupted epoch that ends at the wall, as the replay does.
 */
void
expectReplayMatchesOnePodFleet(const std::string &genText,
                               SchedPolicy policy, std::uint64_t quantum,
                               double wallSec, SweepRunner &runner)
{
    SCOPED_TRACE(genText + " " + policyName(policy) + " q" +
                 std::to_string(quantum));
    std::string err;
    const auto gen = parseTraceGenSpec(genText, &err);
    ASSERT_TRUE(gen.has_value()) << err;
    const ArrivalTrace trace = generateTrace(*gen);

    ReplaySpec rs;
    rs.trace = trace;
    rs.config = divaDefault(true);
    rs.policy = policy;
    rs.opts.quantumIters = quantum;
    rs.opts.wallLimitSec = wallSec;
    const ServeResult serve = replayTrace(rs, runner);
    ASSERT_TRUE(serve.ok()) << serve.error;

    FleetSpec fs = buildFleet({defaultPodGroup(1)});
    fs.policy = policy;
    fs.quantumIters = quantum;
    fs.wallLimitSec = wallSec;
    fs.podDemandCap = 1e9; // every session is placed
    fs.rebalance.enabled = false;
    fs.budget = FleetEnergyBudget{};
    const FleetResult fleet = simulateFleet(fs, trace, runner, 1);
    ASSERT_TRUE(fleet.ok()) << fleet.error;
    ASSERT_EQ(fleet.placedCount, trace.jobs.size());

    ASSERT_EQ(serve.tenants.size(), fleet.tenants.size());
    std::size_t differing = 0;
    for (std::size_t i = 0; i < serve.tenants.size(); ++i) {
        const TenantMetrics &s = serve.tenants[i];
        const FleetTenantMetrics &f = fleet.tenants[i];
        const bool same =
            s.stepsDone == f.stepsDone && s.completed == f.completed &&
            sameValue(s.endSec, f.endSec) &&
            sameValue(s.energyJ, f.energyJ) &&
            s.switchesIn == f.switchesIn &&
            sameValue(s.qosAttainmentPct, f.qosAttainmentPct) &&
            sameValue(s.stepLatency.p50Sec, f.stepLatency.p50Sec) &&
            sameValue(s.stepLatency.p95Sec, f.stepLatency.p95Sec) &&
            sameValue(s.stepLatency.p99Sec, f.stepLatency.p99Sec);
        if (!same && differing++ == 0)
            ADD_FAILURE()
                << "first differing tenant " << s.job.name
                << ": steps " << s.stepsDone << " vs " << f.stepsDone
                << ", end " << s.endSec << " vs " << f.endSec
                << ", switches " << s.switchesIn << " vs "
                << f.switchesIn << ", p99 " << s.stepLatency.p99Sec
                << " vs " << f.stepLatency.p99Sec;
    }
    EXPECT_EQ(differing, 0u)
        << differing << " of " << serve.tenants.size()
        << " tenants differ between the replay and the one-pod fleet";
    EXPECT_GT(fleet.totalSteps, 0u);
}

TEST(ServeCoreOneSemantics, ReplayMatchesOnePodFleet)
{
    SweepRunner runner; // shared: each model is priced once
    const std::string mix =
        "poisson:rate=60,seed=9,hold=2,qos=20,cap=200,steps=24";
    expectReplayMatchesOnePodFleet(mix, SchedPolicy::kRoundRobin, 1, 0.0,
                                   runner);
    expectReplayMatchesOnePodFleet(mix, SchedPolicy::kRoundRobin, 3, 0.0,
                                   runner);
    expectReplayMatchesOnePodFleet(mix, SchedPolicy::kPriority, 2, 0.0,
                                   runner);
    expectReplayMatchesOnePodFleet(mix, SchedPolicy::kEdf, 4, 0.0, runner);
    expectReplayMatchesOnePodFleet(
        "onoff:rate=80,seed=5,hold=1,qos=50,cap=150,steps=30",
        SchedPolicy::kRoundRobin, 2, 0.0, runner);
    // Unbounded sessions, served until they depart.
    expectReplayMatchesOnePodFleet(
        "poisson:rate=60,seed=9,hold=2,qos=20,cap=200,steps=0",
        SchedPolicy::kRoundRobin, 1, 0.0, runner);
    // A wall after the last arrival (about 2 s) and before the work
    // ends (about 3.9 s) cuts the run short.
    expectReplayMatchesOnePodFleet(mix + ",horizon=2",
                                   SchedPolicy::kRoundRobin, 1, 3.0,
                                   runner);
}

} // namespace
} // namespace diva
