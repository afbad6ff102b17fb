#include "fleet/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <queue>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "arrivals/admission.h"
#include "common/logging.h"
#include "common/task_pool.h"
#include "fleet/energy_budget.h"
#include "fleet/migration.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "tenant/context_switch.h"
#include "tenant/serve.h"

namespace diva
{

namespace
{

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/** Float slack for wall-budget and deadline comparisons. */
constexpr double kEps = 1e-9;

using serve_core::TaskState;

/** FNV-1a over the fields that identify a job class.  Buckets only --
 *  candidates are confirmed field-by-field, so a collision costs one
 *  extra compare, never a wrong class. */
std::uint64_t
jobClassHash(const TenantJob &job)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 0x100000001b3ull;
    };
    for (const unsigned char c : job.model)
        mix(c);
    mix(std::uint64_t(job.modelScale));
    mix(std::uint64_t(job.batch));
    mix(std::uint64_t(job.microbatch));
    mix(std::uint64_t(job.algorithm));
    return h;
}

bool
sameJobClass(const TenantJob &a, const TenantJob &b)
{
    return a.modelScale == b.modelScale && a.batch == b.batch &&
           a.microbatch == b.microbatch &&
           a.algorithm == b.algorithm && a.model == b.model;
}

/** Mutable per-tenant state tracked by the fleet engine. */
struct TenantRt
{
    /** The session's facts, scheduling state and step latencies, as
     *  the shared event core reads and writes them. */
    serve_core::Task task;
    std::uint32_t cls = 0;

    std::size_t pod = kNoPod;
    bool admitted = true;

    /** Earliest restart after a migration's state transfer. */
    double gateUntil = 0.0;

    double energyJ = 0.0;
    std::uint32_t switchesIn = 0;
    std::uint32_t migrations = 0;
    std::uint32_t suspensions = 0;
    double migSec = 0.0;
    double migEnergyJ = 0.0;

    /** Busy seconds this control epoch (rebalance's migration metric). */
    double epochBusySec = 0.0;
    std::uint64_t busyStamp = ~std::uint64_t(0);

    /** Steps done when the session arrived on its current pod: its
     *  samples [stayStart, done) belong to that pod's run. */
    std::uint64_t stayStart = 0;

    /** Index into FleetSim::prioValues (telemetry runs only). */
    std::uint32_t prioSlot = 0;
};

/** One pod's per-window telemetry accumulator: event counts, busy
 *  seconds and joules landed in the window, plus the queue-depth /
 *  gated-count gauges sampled at the window's first billable event. */
struct PodObsRow
{
    std::int64_t w = 0;
    std::uint64_t steps = 0;
    std::uint64_t switches = 0;
    double busySec = 0.0;
    double energyJ = 0.0;
    double queueDepth = 0.0;
    double gated = 0.0;
};

/** Mutable per-pod state; epochs touch only their own pod's. */
struct PodRt
{
    std::uint32_t type = 0;

    /** The pod's serving executor (clock, ready set, arrival cursor,
     *  gated heap), owned by the shared event core; `core.id` is the
     *  pod index. */
    serve_core::Executor core;

    /** Every tenant ever assigned here (lazily compacted). */
    std::vector<std::uint32_t> members;

    // Run accumulators.
    std::size_t placed = 0;
    std::size_t migIn = 0;
    std::size_t migOut = 0;
    std::uint64_t steps = 0;
    std::uint64_t switches = 0;
    double busySec = 0.0;
    double energyJ = 0.0;
    double switchSec = 0.0;
    double switchEnergyJ = 0.0;
    double migSec = 0.0;
    double migEnergyJ = 0.0;
    Bytes migBytes = 0;
    double lastActiveSec = 0.0;

    // Per-epoch scratch.
    double epochBusySec = 0.0;
    std::uint64_t epochSteps = 0;
    std::size_t finishedThisEpoch = 0;

    /** Samples of the stays migrate() closed here (FleetSim::
     *  closeStay), in migration order. */
    std::vector<double> closedLat;

    /** The step latencies served here, `steps` of them: closedLat,
     *  then each session's last stay in trace order. Allocated and
     *  filled at assembly (FleetSim::gatherRuns). */
    std::unique_ptr<double[]> run;

    // Windowed telemetry (telemetry runs only). All pod-owned:
    // written by whichever worker runs this pod's epoch -- the pod
    // clock is monotone, so obsRows flush in increasing window order
    // -- and merged sequentially in pod-index order at assemble.
    bool obsOpen = false;
    PodObsRow obsCur;
    /** Upper edge of the open window. Events roll the row with one FP
     *  compare against this instead of recomputing their window index
     *  (windowUpperEdge makes the compare bitwise-equivalent to the
     *  floor). +inf when telemetry is off, so the hot-path compare
     *  never fires; telemetry setup drops it to -inf to force the
     *  first roll. */
    double obsEdgeSec = kInf;
    std::vector<PodObsRow> obsRows;
    /** Cumulative-counter snapshots taken when the open row rolled;
     *  the row's counters are the deltas since then, so the step/
     *  switch hot paths never touch the row itself. */
    std::uint64_t obsBaseSteps = 0;
    std::uint64_t obsBaseSwitches = 0;
    double obsBaseBusySec = 0.0;
    double obsBaseEnergyJ = 0.0;
    std::vector<obs::ComponentWindows> latWindows; // one per prioSlot
    std::uint64_t decompFailures = 0;
};

/** The whole simulation state, shared by the engine's phases. */
struct FleetSim
{
    const FleetSpec &spec;
    const ArrivalTrace &trace;
    FleetResult &out;

    std::size_t n = 0;
    double wall = 0.0;

    // Pod types (deduped design points) and tenant classes (deduped
    // workloads); costs[type * numCls + cls] prices one iteration.
    std::vector<std::uint32_t> podType;
    std::vector<PodSpec> types;
    std::vector<std::uint32_t> jobCls;
    std::size_t numCls = 0;
    std::vector<IterationCost> costs;
    std::vector<SwitchCost> switchCosts;         // per type
    std::vector<MigrationCost> migCosts;         // type x type

    std::vector<TenantRt> tenants;
    std::vector<PodRt> pods;

    /** Per-tenant step-latency slices, packed by arrival order, that
     *  tenants[i].task.slots points into (latencySlots' slots). Direct
     *  indexed stores -- pods write disjoint tenants' slices -- replace
     *  200k per-tenant realloc chains on the hot path. new[] leaves
     *  its latArenaSize slots uninitialized: a slot is read only after
     *  its step wrote it, so the epochs' lanes touch its pages first. */
    std::unique_ptr<double[]> latArena;
    std::size_t latArenaSize = 0;

    // Placement projection (sequential, arrival-ordered).
    std::vector<PodLoadView> loadViews;

    /**
     * Projected session end, across all pods in one min-heap ordered
     * (end, pod, demand).  Per pod that is exactly the (end, demand)
     * pair order of the per-pod heaps this replaces -- the demand
     * subtractions replay in the same sequence, so every projected
     * load float is bit-identical -- but retiring expired demand costs
     * one heap peek per arrival instead of a scan over every pod.
     */
    struct ExpiryEntry
    {
        double endSec = 0.0;
        std::uint32_t pod = 0;
        double demand = 0.0;

        bool operator>(const ExpiryEntry &o) const
        {
            if (endSec != o.endSec)
                return endSec > o.endSec;
            if (pod != o.pod)
                return pod > o.pod;
            return demand > o.demand;
        }
    };
    std::priority_queue<ExpiryEntry, std::vector<ExpiryEntry>,
                        std::greater<ExpiryEntry>>
        expiry;
    std::size_t placeCursor = 0;

    // Placement scratch, hoisted out of the per-arrival hot path.
    std::vector<double> typeDemand;
    std::vector<double> typeEnergy;
    std::vector<double> demandOnPod;
    std::vector<double> energyOnPod;

    // Control-round scratch, reused across epochs (capacity persists).
    std::vector<TenantPowerView> powerViews;
    std::vector<std::uint32_t> powerActive;
    std::vector<double> utilScratch;

    std::size_t unfinished = 0;
    std::uint64_t epochId = 0;

    /** Policy, quantum and wall budget for the shared event core. */
    serve_core::Config coreCfg;

    /**
     * Optional sim-time trace. The control track (tid 0) is written
     * only from sequential boundary code; podTracks[p] (tid p+1) only
     * from whichever worker owns pod p's epoch -- single-writer per
     * track, as obs/trace.h requires.
     */
    obs::TraceSink *sink = nullptr;
    obs::TraceTrack *control = nullptr;
    std::vector<obs::TraceTrack *> podTracks;

    /**
     * Optional windowed telemetry. Hot-path hooks accumulate into the
     * executing pod's own state (PodRt) only; the cluster maps below
     * are written solely from sequential boundary code (placement,
     * budget, rebalance), and everything merges into the bundle at
     * the sequential assemble publish point.
     */
    obs::RunTelemetry *telemetry = nullptr;
    std::vector<int> prioValues; ///< distinct priorities, ascending
    std::map<std::int64_t, double> wPlaced, wRejected, wMigrations,
        wSuspensions, wResumes;

    /** Close the open row, filling its counters from the pod's
     *  cumulative accumulators (delta since the row opened), and
     *  rebase the snapshots. Steps and switches bill themselves to
     *  the open window by bumping only the run-level counters;
     *  control-plane contributions (a migration transfer's busy and
     *  energy seconds) fold into whichever window is open -- or next
     *  opens -- on the destination pod when they land. */
    void
    flushObsRow(PodRt &pod)
    {
        if (pod.obsOpen) {
            pod.obsCur.steps = pod.steps - pod.obsBaseSteps;
            pod.obsCur.switches =
                pod.switches - pod.obsBaseSwitches;
            pod.obsCur.busySec = pod.busySec - pod.obsBaseBusySec;
            pod.obsCur.energyJ = pod.energyJ - pod.obsBaseEnergyJ;
            pod.obsRows.push_back(pod.obsCur);
            pod.obsOpen = false;
        }
        pod.obsBaseSteps = pod.steps;
        pod.obsBaseSwitches = pod.switches;
        pod.obsBaseBusySec = pod.busySec;
        pod.obsBaseEnergyJ = pod.energyJ;
    }

    /** Open the window holding the pod clock. Callers check the edge
     *  BEFORE the event's accumulators land, so the cumulative-delta
     *  row attributes the triggering event to its own window. */
    void
    rollObsRow(PodRt &pod, const serve_core::Executor &ex)
    {
        flushObsRow(pod);
        const std::int64_t w =
            obs::windowIndexOf(ex.nowSec, telemetry->invWindowSec);
        pod.obsCur = PodObsRow{};
        pod.obsCur.w = w;
        pod.obsCur.queueDepth = double(ex.ready.size());
        pod.obsCur.gated = double(ex.gated.size());
        pod.obsOpen = true;
        pod.obsEdgeSec = obs::windowUpperEdge(
            w, telemetry->windowSec, telemetry->invWindowSec);
    }

    void
    bumpCluster(std::map<std::int64_t, double> &series, double tSec)
    {
        if (telemetry)
            ++series[obs::windowIndexOf(tSec,
                                        telemetry->invWindowSec)];
    }

    FleetSim(const FleetSpec &s, const ArrivalTrace &t, FleetResult &o)
        : spec(s), trace(t), out(o)
    {
    }

    const IterationCost &costOf(std::uint32_t type,
                                std::uint32_t cls) const
    {
        return costs[std::size_t(type) * numCls + cls];
    }

    // serve_core client interface (see serve_core::runUntil). FleetSim
    // is the client for every pod's executor; epochs run pods in
    // parallel, so these must only touch the executor's own pod state
    // and the tenants it owns. `owns` reads rt.pod, which is written
    // only at sequential epoch boundaries and is therefore race-free
    // even while another pod's epoch mutates the tenant's gen/state.
    bool owns(const serve_core::Executor &ex, std::uint32_t idx) const
    {
        return tenants[idx].pod == ex.id;
    }
    serve_core::Task &task(std::uint32_t i) { return tenants[i].task; }
    const serve_core::Task &task(std::uint32_t i) const
    {
        return tenants[i].task;
    }
    double stepSeconds(const serve_core::Executor &ex,
                       std::uint32_t i) const
    {
        return costOf(pods[ex.id].type, tenants[i].cls).seconds;
    }
    double switchSeconds(const serve_core::Executor &ex) const
    {
        return switchCosts[pods[ex.id].type].seconds;
    }
    void onSwitch(serve_core::Executor &ex, std::uint32_t i);
    void onStep(serve_core::Executor &ex, std::uint32_t i,
                double stepStartSec, double latencySec,
                double eligibleSec, double switchLeadSec);
    void onRetire(serve_core::Executor &ex, std::uint32_t i);

    /** Price every (pod type, tenant class) pair through the runner. */
    std::string price(SweepRunner &runner);

    void placeOne(std::size_t i);
    void runPodEpoch(std::size_t p, double t1);

    void suspendTenant(std::uint32_t idx);
    void resumeTenant(std::uint32_t idx);
    void enforceBudget(double nowSec, double intervalSec);
    std::size_t rebalanceRound(double nowSec, double widthSec);
    void migrate(std::uint32_t idx, std::size_t srcP, std::size_t dstP,
                 double nowSec);
    void closeStay(std::uint32_t idx);
    void gatherRuns(int threads);

    double globalNextEventSec();
    double totalEnergySoFar() const;

    void run(int threads);
    void assemble(int threads);
    void publishTelemetry();
};

std::string
FleetSim::price(SweepRunner &runner)
{
    // Dedupe pods into types, in first-appearance order: pods whose
    // design point, chip count and links all match price alike. (Not
    // the config name: two configs may share one and differ anywhere.)
    podType.resize(spec.pods.size());
    for (std::size_t p = 0; p < spec.pods.size(); ++p) {
        const PodSpec &ps = spec.pods[p];
        std::size_t t = 0;
        while (t < types.size() &&
               !(types[t].config == ps.config &&
                 types[t].chips == ps.chips &&
                 types[t].pod.interconnectGBs == ps.pod.interconnectGBs &&
                 types[t].pod.linkLatencyCycles ==
                     ps.pod.linkLatencyCycles))
            ++t;
        if (t == types.size())
            types.push_back(ps);
        podType[p] = std::uint32_t(t);
    }

    // Dedupe jobs into classes.  Class ids are assigned in first-
    // appearance order, and the hash only buckets candidates (equality
    // is confirmed on the fields), so the numbering is identical to
    // the string-keyed dedup this replaces -- without rendering a key
    // string per session on a hot path that sees the whole trace.
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> clsOf;
    jobCls.resize(n);
    std::vector<const TenantJob *> clsRep;
    for (std::size_t i = 0; i < n; ++i) {
        const TenantJob &job = trace.jobs[i];
        std::vector<std::uint32_t> &bucket = clsOf[jobClassHash(job)];
        std::uint32_t cls = std::uint32_t(-1);
        for (const std::uint32_t c : bucket)
            if (sameJobClass(*clsRep[c], job)) {
                cls = c;
                break;
            }
        if (cls == std::uint32_t(-1)) {
            cls = std::uint32_t(clsRep.size());
            clsRep.push_back(&job);
            bucket.push_back(cls);
        }
        jobCls[i] = cls;
    }
    numCls = clsRep.size();

    // Every backend the fleet's pods need must be permitted.
    for (const PodSpec &ps : spec.pods)
        if (std::string err = backendAllowedError(spec.backends,
                                                  ps.backend());
            !err.empty())
            return err;

    // One scenario per (type, class), all through one run() so the
    // runner's thread pool and caches do the heavy lifting.
    std::vector<Scenario> scenarios;
    scenarios.reserve(types.size() * numCls);
    for (const PodSpec &type : types)
        for (const TenantJob *job : clsRep)
            scenarios.push_back(
                tenantScenario(type.config, type.chips, type.pod, *job));
    const SweepReport report = runner.run(scenarios);
    out.planHits = report.planHits;
    out.planMisses = report.planMisses;

    costs.resize(report.results.size());
    for (std::size_t k = 0; k < report.results.size(); ++k) {
        const ScenarioResult &r = report.results[k];
        const PodSpec &type = types[k / numCls];
        const TenantJob *job = clsRep[k % numCls];
        std::ostringstream where;
        where << "pod type '" << type.config.name << " x" << type.chips
              << "' class '" << job->model << "'";
        if (!r.ok())
            return where.str() + ": " + r.error;
        if (!(r.seconds > 0.0) || !std::isfinite(r.seconds) ||
            !(r.energyJ >= 0.0) || !std::isfinite(r.energyJ))
            return where.str() +
                   ": iteration cost must be positive and finite";
        costs[k] = iterationCost(r);
    }

    switchCosts.reserve(types.size());
    for (const PodSpec &type : types)
        switchCosts.push_back(
            ContextSwitchModel(type.config, type.chips,
                               spec.workingSetFraction)
                .cost());
    migCosts.resize(types.size() * types.size());
    for (std::size_t s = 0; s < types.size(); ++s)
        for (std::size_t d = 0; d < types.size(); ++d)
            migCosts[s * types.size() + d] = migrationCost(
                types[s], types[d], spec.workingSetFraction);
    return "";
}

void
FleetSim::placeOne(std::size_t i)
{
    const TenantJob &job = trace.jobs[i];
    TenantRt &rt = tenants[i];
    const double a = rt.task.arrivalSec;

    // Retire projected demand whose sessions have ended by now.
    while (!expiry.empty() && expiry.top().endSec <= a + kEps) {
        const ExpiryEntry &e = expiry.top();
        loadViews[e.pod].demand =
            std::max(0.0, loadViews[e.pod].demand - e.demand);
        if (loadViews[e.pod].sessions > 0)
            --loadViews[e.pod].sessions;
        expiry.pop();
    }

    // Price the arrival's demand and joules/step once per pod type.
    typeDemand.resize(types.size());
    typeEnergy.resize(types.size());
    for (std::size_t t = 0; t < types.size(); ++t) {
        const IterationCost &c =
            costOf(std::uint32_t(t), rt.cls);
        typeDemand[t] = qosUtilizationDemand(job, c);
        typeEnergy[t] = c.energyJ;
    }
    demandOnPod.resize(pods.size());
    energyOnPod.resize(pods.size());
    for (std::size_t p = 0; p < pods.size(); ++p) {
        demandOnPod[p] = typeDemand[podType[p]];
        energyOnPod[p] = typeEnergy[podType[p]];
    }

    const std::size_t chosen =
        choosePod(spec.placement, loadViews, demandOnPod, energyOnPod,
                  spec.podDemandCap);
    if (chosen == kNoPod) {
        rt.admitted = false;
        rt.task.state = TaskState::kDone;
        ++out.rejectedCount;
        --unfinished;
        bumpCluster(wRejected, a);
        if (control)
            control->instant(a, "reject " + job.name, "admission");
        return;
    }

    rt.pod = chosen;
    PodRt &pod = pods[chosen];
    ++pod.placed;
    pod.core.arrivals.push_back(std::uint32_t(i));
    pod.members.push_back(std::uint32_t(i));
    bumpCluster(wPlaced, a);
    if (control)
        control->instant(a,
                         "place " + job.name + " -> " +
                             spec.pods[chosen].name,
                         "placement");

    const double d = demandOnPod[chosen];
    loadViews[chosen].demand += d;
    ++loadViews[chosen].sessions;
    const double step_sec = costOf(pod.type, rt.cls).seconds;
    const serve_core::Task &t = rt.task;
    double end = kInf;
    if (t.departSec > 0.0)
        end = t.departSec;
    else if (t.stepLimit > 0 && t.rateSps > 0.0)
        end = a + double(t.stepLimit) / t.rateSps;
    else if (t.stepLimit > 0)
        end = a + double(t.stepLimit) * step_sec;
    if (std::isfinite(end))
        expiry.push({end, std::uint32_t(chosen), d});
}

void
FleetSim::onSwitch(serve_core::Executor &ex, std::uint32_t i)
{
    // Bill the tenant change (the core already advanced the clock by
    // the stall): the engine idles while the outgoing working set
    // flushes and the incoming one loads.
    PodRt &pod = pods[ex.id];
    TenantRt &rt = tenants[i];
    const SwitchCost &sw = switchCosts[pod.type];
    if (ex.nowSec >= pod.obsEdgeSec)
        rollObsRow(pod, ex);
    ++pod.switches;
    ++rt.switchesIn;
    pod.switchSec += sw.seconds;
    pod.switchEnergyJ += sw.energyJ;
    pod.busySec += sw.seconds;
    pod.epochBusySec += sw.seconds;
    pod.energyJ += sw.energyJ;
    rt.energyJ += sw.energyJ;
    pod.lastActiveSec = ex.nowSec;
    if (sink)
        podTracks[ex.id]->instant(
            ex.nowSec, "switch -> " + trace.jobs[i].name, "switch");
}

void
FleetSim::onStep(serve_core::Executor &ex, std::uint32_t i,
                 double stepStartSec, double latencySec,
                 double eligibleSec, double switchLeadSec)
{
    PodRt &pod = pods[ex.id];
    TenantRt &rt = tenants[i];
    const IterationCost &cost = costOf(pod.type, rt.cls);
    if (ex.nowSec >= pod.obsEdgeSec)
        rollObsRow(pod, ex);
    pod.busySec += cost.seconds;
    pod.epochBusySec += cost.seconds;
    pod.energyJ += cost.energyJ;
    rt.energyJ += cost.energyJ;
    if (rt.busyStamp != epochId) {
        rt.busyStamp = epochId;
        rt.epochBusySec = 0.0;
    }
    rt.epochBusySec += cost.seconds;
    ++pod.steps;
    ++pod.epochSteps;
    pod.lastActiveSec = ex.nowSec;
    if (telemetry) {
        // Stall overlaps: the switch billed immediately ahead of this
        // step, and the part of the wait spent in this tenant's
        // migration state transfer. Most steps have neither, so the
        // overlap arithmetic stays off the common path.
        // decompSteps is derived at publish (it equals the recorded
        // window steps), so the hot path only tracks failures -- a
        // never-taken branch when the invariant holds. The stall-free
        // residual check q + s == T IS the fixed-order reconstruction
        // (the zero components add nothing), so the common case needs
        // no LatencyComponents round trip at all.
        const double q = latencySec - cost.seconds;
        if (switchLeadSec == 0.0 && rt.gateUntil <= eligibleSec &&
            q + cost.seconds == latencySec) {
            pod.latWindows[rt.prioSlot].recordAtFast(
                pod.obsCur.w, latencySec, q, cost.seconds);
        } else {
            const double wait =
                std::max(0.0, stepStartSec - eligibleSec);
            const double sw_ov = std::min(switchLeadSec, wait);
            const double mig_ov = std::clamp(
                rt.gateUntil - eligibleSec, 0.0, wait - sw_ov);
            obs::LatencyComponents comp;
            if (!obs::decomposeLatencyAudited(latencySec,
                                              cost.seconds, sw_ov,
                                              mig_ov, &comp))
                ++pod.decompFailures;
            pod.latWindows[rt.prioSlot].recordAt(pod.obsCur.w,
                                                 latencySec, comp);
        }
    }
    if (sink)
        podTracks[ex.id]->span(stepStartSec,
                               stepStartSec + cost.seconds,
                               trace.jobs[i].name, "step");
}

void
FleetSim::onRetire(serve_core::Executor &ex, std::uint32_t)
{
    ++pods[ex.id].finishedThisEpoch;
}

void
FleetSim::runPodEpoch(std::size_t p, double t1)
{
    PodRt &pod = pods[p];
    pod.epochBusySec = 0.0;
    pod.epochSteps = 0;
    pod.finishedThisEpoch = 0;
    serve_core::runUntil(*this, pod.core, coreCfg, t1);
}

void
FleetSim::suspendTenant(std::uint32_t idx)
{
    TenantRt &rt = tenants[idx];
    serve_core::unschedule(*this, pods[rt.pod].core, idx);
    rt.task.state = TaskState::kSuspended;
}

void
FleetSim::resumeTenant(std::uint32_t idx)
{
    const TenantRt &rt = tenants[idx];
    serve_core::gate(*this, pods[rt.pod].core, idx,
                     std::max(serve_core::nextDueSec(rt.task),
                              rt.gateUntil));
}

void
FleetSim::enforceBudget(double nowSec, double intervalSec)
{
    const double capW =
        effectivePowerCapW(spec.budget.powerCapW, spec.budget.totalJ,
                           totalEnergySoFar(), intervalSec);
    if (capW < 0.0) {
        for (std::size_t i = 0; i < n; ++i)
            if (tenants[i].task.state == TaskState::kSuspended)
                resumeTenant(std::uint32_t(i));
        return;
    }

    std::vector<TenantPowerView> &views = powerViews;
    std::vector<std::uint32_t> &active = powerActive;
    views.clear();
    active.clear();
    for (std::size_t i = 0; i < n; ++i) {
        const TenantRt &rt = tenants[i];
        const serve_core::Task &t = rt.task;
        // No pod yet: an arrival on the boundary (or within kEps past
        // it) is placed only after this round.
        if (rt.pod == kNoPod || t.state == TaskState::kDone ||
            t.arrivalSec > nowSec + kEps)
            continue;
        const IterationCost &c = costOf(pods[rt.pod].type, rt.cls);
        const double iso = 1.0 / c.seconds;
        const double sustained =
            t.rateSps > 0.0 ? std::min(t.rateSps, iso) : iso;
        TenantPowerView v;
        v.watts = sustained * c.energyJ;
        v.priority = t.priority;
        v.arrivalSec = t.arrivalSec;
        views.push_back(v);
        active.push_back(std::uint32_t(i));
    }

    const std::vector<std::size_t> suspend =
        chooseSuspensions(views, capW);
    std::size_t s = 0;
    for (std::size_t k = 0; k < active.size(); ++k) {
        const bool want = s < suspend.size() && suspend[s] == k;
        if (want)
            ++s;
        TenantRt &rt = tenants[active[k]];
        if (want) {
            ++rt.suspensions;
            ++out.suspensions;
            bumpCluster(wSuspensions, nowSec);
            if (rt.task.state != TaskState::kSuspended)
                suspendTenant(active[k]);
            if (control)
                control->instant(nowSec,
                                 "suspend " + trace.jobs[active[k]].name,
                                 "budget");
        } else if (rt.task.state == TaskState::kSuspended) {
            resumeTenant(active[k]);
            bumpCluster(wResumes, nowSec);
            if (control)
                control->instant(nowSec,
                                 "resume " + trace.jobs[active[k]].name,
                                 "budget");
        }
    }
}

void
FleetSim::migrate(std::uint32_t idx, std::size_t srcP,
                  std::size_t dstP, double nowSec)
{
    TenantRt &rt = tenants[idx];
    PodRt &src = pods[srcP];
    PodRt &dst = pods[dstP];

    serve_core::unschedule(*this, src.core, idx);
    if (src.core.last == idx)
        src.core.last = serve_core::kNoTask;
    closeStay(idx);

    const MigrationCost &mc =
        migCosts[std::size_t(src.type) * types.size() + dst.type];
    rt.pod = dstP;
    ++rt.migrations;
    rt.migSec += mc.seconds;
    rt.migEnergyJ += mc.energyJ;
    rt.energyJ += mc.energyJ;

    ++src.migOut;
    ++dst.migIn;
    dst.migSec += mc.seconds;
    dst.migEnergyJ += mc.energyJ;
    dst.migBytes += mc.dramBytes;
    dst.energyJ += mc.energyJ;
    dst.busySec += mc.seconds;
    // The transfer occupies [nowSec, nowSec + mc.seconds]; extend the
    // pod's active span so utilization = busySec / makespan stays <= 1
    // when a migration lands after the pod's last step.
    dst.lastActiveSec =
        std::max(dst.lastActiveSec, nowSec + mc.seconds);
    dst.members.push_back(idx);
    ++out.migrations;
    out.migrationSec += mc.seconds;
    out.migrationEnergyJ += mc.energyJ;
    out.migrationBytes += mc.dramBytes;
    bumpCluster(wMigrations, nowSec);
    // An instant, not a span: the transfer window [nowSec, +seconds)
    // may straddle the next epoch boundary, and overlapping spans on
    // one track would break the control track's clean nesting.
    if (control)
        control->instant(nowSec,
                         "migrate " + trace.jobs[idx].name + ": " +
                             spec.pods[srcP].name + " -> " +
                             spec.pods[dstP].name,
                         "migration");

    // Off the air until the state transfer lands (and, open loop,
    // until its next step is due anyway).
    rt.gateUntil = nowSec + mc.seconds;
    serve_core::gate(*this, dst.core, idx,
                     std::max(serve_core::nextDueSec(rt.task),
                              rt.gateUntil));
}

/**
 * Append tenant `idx`'s samples of its stay on its current pod, steps
 * [stayStart, done), to that pod's closed stays, and open the next
 * stay at `done`. Sequential only: it runs in migrate() at epoch
 * boundaries.
 */
void
FleetSim::closeStay(std::uint32_t idx)
{
    TenantRt &rt = tenants[idx];
    const std::span<const double> lat = serve_core::samples(rt.task);
    std::vector<double> &closed = pods[rt.pod].closedLat;
    closed.insert(closed.end(),
                  lat.begin() + std::ptrdiff_t(rt.stayStart), lat.end());
    rt.stayStart = rt.task.done;
}

/**
 * Build every pod's run: its closed stays, then each placed session's
 * last stay in trace order, the order a sequential closeStay over the
 * sessions would give. The last stays gather in three passes over one
 * contiguous tenant range per lane: count each (range, pod) pair's
 * samples, turn the counts into write offsets in range order, then
 * copy. A run holds exactly its pod's steps, so it is sized once.
 */
void
FleetSim::gatherRuns(int threads)
{
    TaskPool &pool = TaskPool::shared();
    const std::size_t P = pods.size();
    const std::size_t ranges = std::size_t(std::max(threads, 1));
    auto first = [&](std::size_t c) { return n * c / ranges; };
    std::vector<std::size_t> at(ranges * P, 0); // [range * P + pod]
    pool.parallelFor(ranges, threads, [&](std::size_t c) {
        std::size_t *count = &at[c * P];
        for (std::size_t i = first(c); i < first(c + 1); ++i)
            if (const TenantRt &rt = tenants[i]; rt.pod != kNoPod)
                count[rt.pod] += rt.task.done - rt.stayStart;
    });
    for (std::size_t p = 0; p < P; ++p) {
        PodRt &pod = pods[p];
        std::size_t off = pod.closedLat.size();
        for (std::size_t c = 0; c < ranges; ++c)
            off += std::exchange(at[c * P + p], off);
        DIVA_ASSERT(off == pod.steps, "pod ", p, " gathered ", off,
                    " latencies for ", pod.steps, " steps");
        pod.run.reset(new double[off]);
        std::copy(pod.closedLat.begin(), pod.closedLat.end(),
                  pod.run.get());
        std::vector<double>().swap(pod.closedLat);
    }
    pool.parallelFor(ranges, threads, [&](std::size_t c) {
        std::size_t *to = &at[c * P];
        for (std::size_t i = first(c); i < first(c + 1); ++i) {
            TenantRt &rt = tenants[i];
            if (rt.pod == kNoPod)
                continue;
            const std::span<const double> lat =
                serve_core::samples(rt.task).subspan(rt.stayStart);
            std::copy(lat.begin(), lat.end(),
                      pods[rt.pod].run.get() + to[rt.pod]);
            to[rt.pod] += lat.size();
        }
    });
}

std::size_t
FleetSim::rebalanceRound(double nowSec, double widthSec)
{
    if (!(widthSec > 0.0) || !std::isfinite(widthSec))
        return 0;
    std::vector<double> &util = utilScratch;
    util.resize(pods.size());
    for (std::size_t p = 0; p < pods.size(); ++p)
        util[p] = pods[p].epochBusySec / widthSec;

    std::size_t moved = 0;
    while (int(moved) < spec.rebalance.maxPerRound) {
        std::size_t hot = 0, cold = 0;
        for (std::size_t p = 1; p < pods.size(); ++p) {
            if (util[p] > util[hot])
                hot = p;
            if (util[p] < util[cold])
                cold = p;
        }
        const double gap = util[hot] - util[cold];
        if (gap <= spec.rebalance.skewThreshold + kEps)
            break;

        // Move the hot pod's busiest movable tenant whose measured
        // share fits in half the gap (a bigger move would overshoot
        // and oscillate). Ties break on the lowest index.
        PodRt &src = pods[hot];
        std::size_t keep = 0;
        std::uint32_t best = std::uint32_t(-1);
        double best_busy = 0.0;
        const double fit = gap * 0.5 * widthSec;
        for (std::size_t m = 0; m < src.members.size(); ++m) {
            const std::uint32_t idx = src.members[m];
            const TenantRt &rt = tenants[idx];
            if (rt.pod != hot || rt.task.state == TaskState::kDone)
                continue; // stale entry: compact it away
            src.members[keep++] = idx;
            if (rt.task.state != TaskState::kReady &&
                rt.task.state != TaskState::kGated)
                continue;
            const double busy =
                rt.busyStamp == epochId ? rt.epochBusySec : 0.0;
            if (busy <= 0.0 || busy > fit + kEps)
                continue;
            if (busy > best_busy + kEps) {
                best = idx;
                best_busy = busy;
            }
        }
        src.members.resize(keep);
        if (best == std::uint32_t(-1))
            break;

        migrate(best, hot, cold, nowSec);
        ++moved;
        const double share = best_busy / widthSec;
        util[hot] -= share;
        util[cold] += share;
    }
    return moved;
}

double
FleetSim::globalNextEventSec()
{
    double ev = kInf;
    if (placeCursor < n)
        ev = trace.jobs[placeCursor].arrivalSec;
    for (PodRt &pod : pods) {
        if (!pod.core.ready.empty())
            ev = std::min(ev, pod.core.nowSec);
        ev = std::min(ev, serve_core::nextEventSec(*this, pod.core));
    }
    return ev;
}

double
FleetSim::totalEnergySoFar() const
{
    double total = 0.0;
    for (const PodRt &pod : pods)
        total += pod.energyJ;
    return total;
}

void
FleetSim::run(int threads)
{
    n = trace.jobs.size();
    wall = spec.wallLimitSec;
    unfinished = n;

    tenants.resize(n);
    // A class's cheapest step on any pod type bounds how many of its
    // steps fit before a session's end, wherever it is placed.
    std::vector<double> min_step(numCls, kInf);
    for (std::size_t t = 0; t < types.size(); ++t)
        for (std::size_t c = 0; c < numCls; ++c)
            min_step[c] = std::min(
                min_step[c],
                costOf(std::uint32_t(t), std::uint32_t(c)).seconds);
    std::size_t lat_slots = 0;
    for (std::size_t i = 0; i < n; ++i) {
        TenantRt &rt = tenants[i];
        rt.task = taskOf(trace.jobs[i]);
        rt.cls = jobCls[i];
        lat_slots += latencySlots(rt.task, min_step[rt.cls], wall);
    }
    latArena.reset(new double[lat_slots]);
    latArenaSize = lat_slots;
    double *slice = latArena.get();
    for (TenantRt &rt : tenants)
        if (const std::uint64_t slots =
                latencySlots(rt.task, min_step[rt.cls], wall)) {
            rt.task.slots = slice;
            slice += slots;
        }
    pods.resize(spec.pods.size());
    for (std::size_t p = 0; p < pods.size(); ++p) {
        pods[p].type = podType[p];
        pods[p].core.id = p;
    }
    loadViews.assign(pods.size(), PodLoadView{});

    if (telemetry) {
        prioValues.clear();
        for (const TenantRt &rt : tenants)
            prioValues.push_back(rt.task.priority);
        std::sort(prioValues.begin(), prioValues.end());
        prioValues.erase(
            std::unique(prioValues.begin(), prioValues.end()),
            prioValues.end());
        for (TenantRt &rt : tenants)
            rt.prioSlot = std::uint32_t(
                std::lower_bound(prioValues.begin(), prioValues.end(),
                                 rt.task.priority) -
                prioValues.begin());
        for (PodRt &pod : pods) {
            pod.obsEdgeSec = -kInf; // arm the hot-path edge compare
            pod.latWindows.resize(prioValues.size());
            for (std::size_t s = 0; s < prioValues.size(); ++s)
                pod.latWindows[s].configure(
                    telemetry->invWindowSec,
                    telemetry->slo.targetFor(prioValues[s]),
                    telemetry->slo.globalTargetSec);
        }
    }

    if (sink) {
        // Tracks are created here, sequentially, before any parallel
        // epoch touches them; each pod's worker then appends to its
        // own track only.
        control = sink->track(0, "cluster");
        podTracks.resize(pods.size());
        for (std::size_t p = 0; p < pods.size(); ++p)
            podTracks[p] =
                sink->track(int(p) + 1, "pod " + spec.pods[p].name);
    }

    // Fleet sessions are open-loop trace replays, so rate gates stay
    // on (the Config default).
    coreCfg.policy = spec.policy;
    coreCfg.quantumIters = spec.quantumIters;
    coreCfg.wallLimitSec = wall;

    const bool controls =
        spec.rebalance.enabled || spec.budget.enabled();
    double interval = kInf;
    if (spec.controlIntervalSec > 0.0) {
        interval = spec.controlIntervalSec;
    } else if (controls) {
        const double span = trace.jobs.back().arrivalSec;
        interval = span > 0.0 ? span / 8.0 : 1.0;
    }

    double T = 0.0;
    for (;;) {
        if (unfinished == 0 && placeCursor >= n)
            break;

        double t1 = T + interval;
        if (std::isfinite(t1) && placeCursor >= n) {
            // Fast-forward empty epochs: when every next event is past
            // the boundary, push the boundary to just beyond it so a
            // sparse tail doesn't grind through thousands of idle
            // control rounds.
            const double ev = globalNextEventSec();
            if (std::isfinite(ev) && ev > t1)
                t1 = ev + interval;
        }
        if (wall > 0.0)
            t1 = std::min(t1, wall);

        const std::size_t placedBefore = placeCursor;
        {
            obs::ScopedPhase phase("placement");
            while (placeCursor < n &&
                   (!std::isfinite(t1) ||
                    trace.jobs[placeCursor].arrivalSec < t1))
                placeOne(placeCursor++);
        }

        {
            obs::ScopedPhase phase("epoch_serve");
            // Each pod's epoch touches only its own state, so any
            // schedule is race-free and the output does not depend on
            // the thread count.
            TaskPool::shared().parallelFor(
                pods.size(), threads,
                [&](std::size_t p) { runPodEpoch(p, t1); });
        }

        std::uint64_t epochSteps = 0;
        for (PodRt &pod : pods) {
            unfinished -= pod.finishedThisEpoch;
            epochSteps += pod.epochSteps;
        }

        if (!std::isfinite(t1))
            break; // one uninterrupted epoch ran everything
        const double width = t1 - T;
        T = t1;
        if (wall > 0.0 && T >= wall - kEps)
            break;
        if (unfinished == 0 && placeCursor >= n)
            break;

        obs::ScopedPhase controlsPhase("fleet_controls");
        if (spec.budget.enabled()) {
            // The epoch the budget just audited, as a control span:
            // consecutive epochs tile the timeline without overlap.
            if (control)
                control->span(T - width, T,
                              "budget epoch " +
                                  std::to_string(epochId),
                              "budget");
            enforceBudget(T, std::isfinite(interval) ? interval
                                                     : width);
        }
        std::size_t migrated = 0;
        if (spec.rebalance.enabled)
            migrated = rebalanceRound(T, width);

        // Deadlock guard: nothing ran, nothing will arrive, and every
        // survivor is budget-suspended with no resume in sight -- the
        // budget has permanently preempted them; end the run.
        if (epochSteps == 0 && migrated == 0 &&
            placeCursor == placedBefore && placeCursor >= n &&
            unfinished > 0) {
            bool all_suspended = true;
            for (const TenantRt &rt : tenants)
                if (rt.admitted && rt.task.state != TaskState::kDone &&
                    rt.task.state != TaskState::kSuspended) {
                    all_suspended = false;
                    break;
                }
            if (all_suspended) {
                for (TenantRt &rt : tenants)
                    if (rt.admitted &&
                        rt.task.state != TaskState::kDone)
                        rt.task.state = TaskState::kDone;
                unfinished = 0;
                break;
            }
        }
        ++epochId;
    }
}

void
FleetSim::assemble(int threads)
{
    for (const PodRt &pod : pods)
        out.makespanSec = std::max(out.makespanSec, pod.lastActiveSec);

    double qos_sum = 0.0;
    std::size_t qos_count = 0;
    std::vector<double> pod_qos_sum(pods.size(), 0.0);
    std::vector<std::size_t> pod_qos_count(pods.size(), 0);
    std::vector<std::size_t> pod_ended(pods.size(), 0);

    {
    obs::ScopedPhase tenants_phase("assemble_tenants");
    // The pods' runs still lack their sessions' last stays: gather
    // them before the tenant rows reorder their slices.
    {
        obs::ScopedPhase gather_phase("assemble_gather");
        gatherRuns(threads);
    }
    // Each row is a pure function of its own tenant's runtime state
    // (the latency stats sort disjoint arena ranges in place),
    // so rows build in parallel; the floating-point QoS accumulators
    // run in a sequential index-order pass below so their addition
    // order -- and therefore every mean byte -- is independent of the
    // worker count.
    out.tenants.resize(n);
    TaskPool::shared().parallelFor(n, threads, [&](std::size_t i) {
        const TenantJob &job = trace.jobs[i];
        TenantRt &rt = tenants[i];
        FleetTenantMetrics &m = out.tenants[i];
        m.job = job;
        m.finalPod = rt.pod;
        m.admitted = rt.admitted;
        m.stepsDone = rt.task.done;
        m.completed = rt.task.completed;
        m.switchesIn = rt.switchesIn;
        m.migrations = rt.migrations;
        m.migrationSec = rt.migSec;
        m.migrationEnergyJ = rt.migEnergyJ;
        m.suspensions = rt.suspensions;
        m.energyJ = rt.energyJ;

        if (rt.pod == kNoPod) {
            // Rejected, or cut off by the wall before placement: no
            // pod, no service window.
            m.resolvedBatch = job.batch;
            m.endSec = job.arrivalSec;
            m.achievedStepsPerSec = kNaN;
            m.isolatedStepsPerSec = kNaN;
            m.qosAttainmentPct = kNaN;
            m.stepLatency = computeLatencyStats({});
            return;
        }

        const std::uint32_t type = pods[rt.pod].type;
        const IterationCost &cost = costOf(type, rt.cls);
        m.resolvedBatch =
            cost.resolvedBatch > 0 ? cost.resolvedBatch : job.batch;

        const SessionOutcome end =
            sessionOutcome(rt.task, out.makespanSec, wall);
        m.departed = end.departed;
        m.endSec = end.endSec;
        m.achievedStepsPerSec = end.achievedStepsPerSec;
        m.qosAttainmentPct = end.qosAttainmentPct;
        m.isolatedStepsPerSec = safeRatio(1.0, cost.seconds);

        const std::span<double> lat = serve_core::samples(rt.task);
        m.stepLatency = computeLatencyStatsScratch(lat.data(), lat.size());
        // The pods' runs hold copies: free an overflow store before
        // the pods' radix scratch below grows the arena.
        std::vector<double>().swap(rt.task.overflow);
    });
    for (std::size_t i = 0; i < n; ++i) {
        const FleetTenantMetrics &m = out.tenants[i];
        out.totalSteps += m.stepsDone;
        if (m.finalPod == kNoPod)
            continue;
        ++pod_ended[m.finalPod];
        if (std::isfinite(m.qosAttainmentPct)) {
            qos_sum += m.qosAttainmentPct;
            ++qos_count;
            pod_qos_sum[m.finalPod] += m.qosAttainmentPct;
            ++pod_qos_count[m.finalPod];
        }
    }
    }
    out.placedCount = placeCursor - out.rejectedCount;
    out.meanQosAttainmentPct =
        qos_count > 0 ? qos_sum / double(qos_count) : kNaN;

    // Step latencies: every pod run sorts in place, in pieces of at
    // most max(kRadixSortMin, total / lanes) samples, so a hot pod's
    // run spreads over the lanes; a pod reads its stats by index off
    // its sorted run, or off the merge of its sorted pieces, and the
    // fleet-wide stats merge every piece. One lane never splits a run.
    TaskPool &pool = TaskPool::shared();
    const std::size_t P = pods.size();
    std::size_t total_lat = 0;
    for (const PodRt &pod : pods)
        total_lat += pod.steps;
    const std::size_t lanes = std::size_t(std::max(threads, 1));
    const std::size_t piece_len =
        std::max(kRadixSortMin, (total_lat + lanes - 1) / lanes);
    // Pod p owns pieces [pod_piece[p], pod_piece[p + 1]), which tile its
    // run in order; piece j's radix scratch sits at its offset in the
    // pods' concatenation, scratch_at[j], in latArena.
    std::vector<std::span<double>> pieces;
    std::vector<std::size_t> scratch_at;
    std::vector<std::size_t> pod_piece(P + 1, 0);
    for (std::size_t p = 0, at = 0; p < P; ++p) {
        const std::size_t len = pods[p].steps;
        const std::size_t k = (len + piece_len - 1) / piece_len;
        for (std::size_t j = 0; j < k; ++j) {
            const std::size_t from = len * j / k, to = len * (j + 1) / k;
            pieces.emplace_back(pods[p].run.get() + from, to - from);
            scratch_at.push_back(at + from);
        }
        pod_piece[p + 1] = pieces.size();
        at += len;
    }
    std::vector<char> piece_sorted(pieces.size(), 0);
    std::vector<char> run_sorted(P, 0);
    {
    obs::ScopedPhase pods_phase("assemble_pods");
    // latArena is dead once the tenant rows have read their slices,
    // and no task's `slots` is read after that: here it is the pieces'
    // disjoint radix scratch, then the multi-piece pods' merged runs,
    // and in assemble_agg the merged fleet-wide run. Only sessions on
    // their overflow vector, whose samples live outside it, can push
    // the step count past its size.
    if (latArenaSize < total_lat) {
        latArena.reset();
        latArena.reset(new double[total_lat]);
        latArenaSize = total_lat;
    }
    {
        obs::ScopedPhase sort_phase("assemble_sort");
        pool.parallelFor(pieces.size(), threads, [&](std::size_t j) {
            piece_sorted[j] = sortPositiveRun(
                pieces[j].data(), pieces[j].size(),
                latArena.get() + scratch_at[j]);
        });
    }
    for (std::size_t p = 0; p < P; ++p)
        run_sorted[p] = std::all_of(
            piece_sorted.begin() + std::ptrdiff_t(pod_piece[p]),
            piece_sorted.begin() + std::ptrdiff_t(pod_piece[p + 1]),
            [](char ok) { return ok != 0; });
    // Same split as the tenant rows: per-pod rows build in parallel,
    // totals accumulate sequentially afterwards.
    out.pods.resize(P);
    pool.parallelFor(P, threads, [&](std::size_t p) {
        PodRt &pod = pods[p];
        const PodSpec &ps = spec.pods[p];
        FleetPodReport &r = out.pods[p];
        r.name = ps.name;
        r.configName = ps.config.name;
        r.chips = ps.chips;
        r.backend = backendName(ps.backend());
        r.placed = pod.placed;
        r.migratedIn = pod.migIn;
        r.migratedOut = pod.migOut;
        r.ended = pod_ended[p];
        r.stepsDone = pod.steps;
        r.busySec = pod.busySec;
        r.utilization = safeRatio(pod.busySec, out.makespanSec);
        r.energyJ = pod.energyJ;
        r.contextSwitches = pod.switches;
        r.switchSec = pod.switchSec;
        r.switchEnergyJ = pod.switchEnergyJ;
        r.migrationSec = pod.migSec;
        r.migrationEnergyJ = pod.migEnergyJ;
        r.migrationBytes = pod.migBytes;
        r.meanQosAttainmentPct =
            pod_qos_count[p] > 0
                ? pod_qos_sum[p] / double(pod_qos_count[p])
                : kNaN;
        const double *lat = pod.run.get();
        if (!run_sorted[p]) {
            // A NaN or non-positive latency takes the exact fallback,
            // on a copy: the run, whose refused pieces stay as they
            // were, is left whole for the fleet-wide fallback below.
            r.stepLatency = computeLatencyStats(
                std::vector<double>(lat, lat + pod.steps));
        } else if (pod_piece[p + 1] - pod_piece[p] <= 1) {
            r.stepLatency = sortedRunStats(lat, pod.steps);
        }
    });
    {
        // A pod sorted in several pieces merges them on every lane into
        // its own slice of latArena, the pieces' spent radix scratch.
        obs::ScopedPhase merge_phase("assemble_pod_merge");
        for (std::size_t p = 0; p < P; ++p) {
            if (!run_sorted[p] || pod_piece[p + 1] - pod_piece[p] <= 1)
                continue;
            const std::vector<std::span<const double>> own(
                pieces.begin() + std::ptrdiff_t(pod_piece[p]),
                pieces.begin() + std::ptrdiff_t(pod_piece[p + 1]));
            out.pods[p].stepLatency = mergeSortedRuns(
                own, latArena.get() + scratch_at[pod_piece[p]], threads);
        }
    }
    for (const PodRt &pod : pods) {
        out.totalEnergyJ += pod.energyJ;
        out.contextSwitches += pod.switches;
        out.coreCounters += pod.core.counters;
    }
    }
    for (FleetPodReport &r : out.pods)
        r.energyShare = safeRatio(r.energyJ, out.totalEnergyJ);

    if (telemetry) {
        obs::ScopedPhase obs_phase("assemble_telemetry");
        publishTelemetry();
    }

    // Sequential publish point (after the parallel epochs are done):
    // everything below is a pure function of the simulated outcome,
    // so the snapshot is byte-identical across thread counts.
    if (auto &metrics = obs::MetricsRegistry::instance();
        metrics.enabled()) {
        metrics.setGauge("fleet.pods", double(pods.size()));
        metrics.setGauge("fleet.sessions", double(n));
        metrics.addCounter("fleet.placed", out.placedCount);
        metrics.addCounter("fleet.rejected", out.rejectedCount);
        metrics.addCounter(std::string("fleet.placement_picks.") +
                               placementName(spec.placement),
                           out.placedCount);
        metrics.addCounter("fleet.migrations", out.migrations);
        metrics.addCounter("fleet.suspensions", out.suspensions);
        metrics.addCounter("fleet.steps", out.totalSteps);
        // Cache-state-dependent, so it lives in the metrics snapshot
        // rather than in the byte-deterministic timeseries document.
        metrics.addCounter("fleet.plan_cache.hits", out.planHits);
        metrics.addCounter("fleet.plan_cache.misses", out.planMisses);
        metrics.setGauge(
            "fleet.plan_cache.hit_rate",
            safeRatio(double(out.planHits),
                      double(out.planHits + out.planMisses)));
        publishCoreCounters(out.coreCounters);
        // A histogram keeps counts, min and max only, so it cannot
        // tell the sorted runs from the input order.
        for (const PodRt &pod : pods)
            metrics.recordValues("fleet.step_latency_sec",
                                 pod.run.get(), pod.steps);
    }
    {
        obs::ScopedPhase agg_phase("assemble_agg");
        if (std::all_of(piece_sorted.begin(), piece_sorted.end(),
                        [](char ok) { return ok != 0; })) {
            const std::vector<std::span<const double>> runs(
                pieces.begin(), pieces.end());
            out.aggStepLatency =
                mergeSortedRuns(runs, latArena.get(), threads);
        } else {
            // The concatenation of sorted and refused runs: the stats
            // sort it anyway, and a step latency (now - eligible after
            // a step of positive cost) is never -0.0, so no +0/-0 tie
            // can make the order show.
            std::vector<double> all_lat;
            all_lat.reserve(total_lat);
            for (const PodRt &pod : pods)
                all_lat.insert(all_lat.end(), pod.run.get(),
                               pod.run.get() + pod.steps);
            out.aggStepLatency =
                computeLatencyStats(std::move(all_lat));
        }
    }
}

void
FleetSim::publishTelemetry()
{
    obs::TimeSeriesSnapshot &snap = telemetry->snapshot;
    using Kind = obs::TimeSeries::Kind;
    const double W = telemetry->windowSec;

    // Per-pod window series, in pod-index order. The pod clock is
    // monotone, so obsRows is already window-sorted per pod.
    for (std::size_t p = 0; p < pods.size(); ++p) {
        PodRt &pod = pods[p];
        flushObsRow(pod);
        const std::string base = "pod." + spec.pods[p].name + ".";
        obs::TimeSeries &steps =
            snap.seriesRef(base + "steps", Kind::kCounter);
        obs::TimeSeries &switches =
            snap.seriesRef(base + "switches", Kind::kCounter);
        obs::TimeSeries &busy =
            snap.seriesRef(base + "busy_s", Kind::kSum);
        obs::TimeSeries &energy =
            snap.seriesRef(base + "energy_j", Kind::kSum);
        obs::TimeSeries &util =
            snap.seriesRef(base + "util", Kind::kGauge);
        obs::TimeSeries &power =
            snap.seriesRef(base + "power_w", Kind::kGauge);
        obs::TimeSeries &queue =
            snap.seriesRef(base + "queue_depth", Kind::kGauge);
        obs::TimeSeries &gated =
            snap.seriesRef(base + "gated", Kind::kGauge);
        for (const PodObsRow &r : pod.obsRows) {
            steps.points[r.w] += double(r.steps);
            switches.points[r.w] += double(r.switches);
            busy.points[r.w] += r.busySec;
            energy.points[r.w] += r.energyJ;
            util.points[r.w] = r.busySec / W;
            power.points[r.w] = r.energyJ / W;
            queue.points[r.w] = r.queueDepth;
            gated.points[r.w] = r.gated;
        }
        telemetry->decompExactFailures += pod.decompFailures;
    }

    // Per-priority latency decomposition: merge each pod's
    // single-writer windows in pod-index order, then publish the
    // series/sketches and the SLO report over the merged rows.
    std::map<int, std::map<std::int64_t, obs::ComponentWindows::Row>>
        by_prio;
    for (PodRt &pod : pods)
        for (std::size_t s = 0; s < pod.latWindows.size(); ++s) {
            pod.latWindows[s].finish();
            // Every decomposed step went through recordAt, so the
            // audit denominator is the sum of recorded steps.
            for (const obs::ComponentWindows::Row &r :
                 pod.latWindows[s].rows())
                telemetry->decompSteps += r.steps;
            obs::mergeComponentRows(pod.latWindows[s].rows(),
                                    &by_prio[prioValues[s]]);
        }
    obs::publishLatencyWindows(by_prio, "", telemetry);

    auto emitCluster = [&](const char *name,
                           const std::map<std::int64_t, double> &m) {
        for (const auto &[w, v] : m)
            snap.add(name, Kind::kCounter, w, v);
    };
    emitCluster("cluster.placed", wPlaced);
    emitCluster("cluster.rejected", wRejected);
    emitCluster("cluster.migrations", wMigrations);
    emitCluster("cluster.suspensions", wSuspensions);
    emitCluster("cluster.resumes", wResumes);

    // Breach instants land on the cluster control track; the sink
    // stable-sorts by timestamp at write time, so appending after the
    // run keeps the emitted trace ordered.
    if (control)
        for (const obs::SloScope &sc : telemetry->report.scopes)
            for (const obs::SloWindow &sw : sc.windows)
                if (sw.breach)
                    control->instant(double(sw.w) * W,
                                     "slo breach " + sc.name, "slo");
}

} // namespace

FleetResult
simulateFleet(const FleetSpec &spec, const ArrivalTrace &trace,
              SweepRunner &runner, int threads,
              obs::TraceSink *traceSink, obs::RunTelemetry *telemetry)
{
    FleetResult out;
    out.fleetName = spec.name;
    out.traceName = trace.name;
    out.policy = spec.policy;
    out.placement = spec.placement;
    out.quantumIters = spec.quantumIters;
    out.wallLimitSec = spec.wallLimitSec;

    out.error = spec.validationError();
    if (!out.ok())
        return out;
    out.error = trace.validationError(spec.wallLimitSec > 0.0);
    if (!out.ok())
        return out;
    if (trace.jobs.size() >= std::size_t(std::uint32_t(-1))) {
        out.error = "trace exceeds the fleet engine's session limit";
        return out;
    }
    // Window width from the input trace alone (last arrival), so the
    // same trace always yields the same windows.
    if (telemetry && !(telemetry->invWindowSec > 0.0) &&
        !telemetry->resolveWindow(
            trace.jobs.empty() ? 0.0 : trace.jobs.back().arrivalSec,
            &out.error))
        return out;

    FleetSim sim(spec, trace, out);
    sim.n = trace.jobs.size();
    sim.sink = traceSink;
    sim.telemetry = telemetry;
    {
        obs::ScopedPhase phase("fleet_pricing");
        out.error = sim.price(runner);
    }
    if (!out.ok())
        return out;

    {
        obs::ScopedPhase phase("fleet_run");
        sim.run(threads);
    }
    {
        obs::ScopedPhase phase("fleet_assemble");
        sim.assemble(threads);
    }
    return out;
}

FleetResult
simulateFleet(const FleetSpec &spec, const ArrivalTrace &trace)
{
    SweepRunner runner;
    return simulateFleet(spec, trace, runner);
}

} // namespace diva
