#include "tenant/serve.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "serve_core/core.h"

namespace diva
{

namespace
{

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/** Per-tenant billing state the serve loop tracks beside the core's
 *  task record (serve_core::Task). */
struct TenantRun
{
    bool started = false;
    double firstStartSec = 0.0;
    double energyJ = 0.0;
    std::uint64_t switchesIn = 0;

    /** Windowed latency decomposition (telemetry runs only). */
    obs::ComponentWindows windows;
};

/** serve_core client for the single-executor tenant serve loop: one
 *  task per job, billing on TenantRun and the run-level ServeResult
 *  accumulators. */
struct ServeClient
{
    const std::vector<TenantJob> &jobs;
    const std::vector<IterationCost> &costs;
    const SwitchCost &sw;
    ServeResult &out;
    std::vector<TenantRun> &run;
    std::vector<serve_core::Task> tasks;

    /** Per-tenant step-latency slices, packed in tenant order (the
     *  fleet's FleetSim::latArena layout), sized and NaN-filled once
     *  before the loop. */
    std::vector<double> latArena;

    obs::TraceTrack *trace = nullptr;
    obs::RunTelemetry *telemetry = nullptr;

    /** End of the last step or switch: the run's makespan. */
    double lastActiveSec = 0.0;

    /** Context switches per window (single-writer: the loop is
     *  sequential), published as `serve.<policy>.switches`. */
    std::map<std::int64_t, double> switchWindows;

    ServeClient(const std::vector<TenantJob> &j,
                const std::vector<IterationCost> &c,
                const SwitchCost &s, ServeResult &o,
                std::vector<TenantRun> &r)
        : jobs(j), costs(c), sw(s), out(o), run(r)
    {
        tasks.reserve(jobs.size());
        for (const TenantJob &job : jobs)
            tasks.push_back(taskOf(job));
    }

    bool owns(const serve_core::Executor &, std::uint32_t) const
    {
        return true; // single executor; tasks never move
    }
    serve_core::Task &task(std::uint32_t i) { return tasks[i]; }
    const serve_core::Task &task(std::uint32_t i) const
    {
        return tasks[i];
    }
    double stepSeconds(const serve_core::Executor &,
                       std::uint32_t i) const
    {
        return costs[i].seconds;
    }
    double switchSeconds(const serve_core::Executor &) const
    {
        return sw.seconds;
    }

    void onSwitch(serve_core::Executor &ex, std::uint32_t i)
    {
        ++out.contextSwitches;
        ++run[i].switchesIn;
        out.switchSec += sw.seconds;
        out.switchEnergyJ += sw.energyJ;
        out.switchDramBytes += sw.dramBytes;
        run[i].energyJ += sw.energyJ;
        lastActiveSec = ex.nowSec;
        if (telemetry)
            ++switchWindows[obs::windowIndexOf(
                ex.nowSec, telemetry->invWindowSec)];
        if (trace)
            trace->instant(ex.nowSec, "switch -> " + jobs[i].name,
                           "switch");
    }
    void onStep(serve_core::Executor &ex, std::uint32_t i,
                double stepStartSec, double latencySec,
                double eligibleSec, double switchLeadSec)
    {
        if (!run[i].started) {
            run[i].started = true;
            run[i].firstStartSec = stepStartSec;
        }
        run[i].energyJ += costs[i].energyJ;
        lastActiveSec = ex.nowSec;
        if (telemetry) {
            obs::LatencyComponents comp;
            bool exact;
            if (switchLeadSec == 0.0) {
                exact = obs::decomposeLatencyAudited(
                    latencySec, costs[i].seconds, 0.0, 0.0, &comp);
            } else {
                const double wait =
                    std::max(0.0, stepStartSec - eligibleSec);
                exact = obs::decomposeLatencyAudited(
                    latencySec, costs[i].seconds,
                    std::min(switchLeadSec, wait), 0.0, &comp);
            }
            ++telemetry->decompSteps;
            if (!exact)
                ++telemetry->decompExactFailures;
            run[i].windows.record(ex.nowSec, latencySec, comp);
        }
        if (trace)
            trace->span(stepStartSec,
                        stepStartSec + costs[i].seconds,
                        jobs[i].name, "step");
    }
    void onRetire(serve_core::Executor &, std::uint32_t) {}
};

std::string
validateInputs(const ServeSpec &spec,
               const std::vector<IterationCost> &costs,
               const SwitchCost &sw)
{
    const bool wall_limited = spec.opts.wallLimitSec > 0.0;
    if (spec.opts.quantumIters < 1)
        return "quantum must be >= 1 iteration";
    if (!(spec.opts.wallLimitSec >= 0.0) ||
        !std::isfinite(spec.opts.wallLimitSec))
        return "wall budget must be finite and >= 0";
    if (spec.chips < 1)
        return "chip count must be >= 1";
    const std::string mix_err =
        spec.workload.validationError(wall_limited);
    if (!mix_err.empty())
        return mix_err;
    if (costs.size() != spec.workload.jobs.size())
        return "one iteration cost per tenant required";
    for (std::size_t i = 0; i < costs.size(); ++i)
        if (!(costs[i].seconds > 0.0) || !std::isfinite(costs[i].seconds) ||
            !(costs[i].energyJ >= 0.0) || !std::isfinite(costs[i].energyJ))
            return "tenant '" + spec.workload.jobs[i].name +
                   "': iteration cost must be positive and finite";
    if (!(sw.seconds >= 0.0) || !std::isfinite(sw.seconds) ||
        !(sw.energyJ >= 0.0) || !std::isfinite(sw.energyJ))
        return "context-switch cost must be finite and >= 0";
    return "";
}

/** The report row of a tenant admission control shed: no service
 *  window, no steps, NaN rates -- but the job echoed for the report. */
TenantMetrics
shedRow(const TenantJob &job, const IterationCost &cost)
{
    TenantMetrics m;
    m.job = job;
    m.admitted = false;
    m.resolvedBatch = cost.resolvedBatch > 0 ? cost.resolvedBatch
                                             : job.batch;
    m.endSec = job.arrivalSec;
    m.waitSec = kNaN;
    m.isolatedStepsPerSec = safeRatio(1.0, cost.seconds);
    m.slowdown = kNaN;
    m.qosAttainmentPct = kNaN;
    m.stepLatency = computeLatencyStats({});
    return m;
}

} // namespace

std::size_t
ServeResult::admittedCount() const
{
    std::size_t admitted = 0;
    for (const TenantMetrics &t : tenants)
        admitted += t.admitted ? 1 : 0;
    return admitted;
}

double
safeRatio(double num, double den)
{
    if (den == 0.0 || !std::isfinite(den))
        return kNaN;
    return num / den;
}

Scenario
tenantScenario(const AcceleratorConfig &config, int chips,
               const MultiChipConfig &pod, const TenantJob &job)
{
    Scenario s;
    s.config = config;
    s.model = job.model;
    s.modelScale = job.modelScale;
    s.batch = job.batch;
    s.microbatch = job.microbatch;
    s.algorithm = job.algorithm;
    if (chips > 1) {
        s.backend = SweepBackend::kMultiChip;
        s.pod = pod;
        s.pod.numChips = chips;
    }
    return s;
}

serve_core::Task
taskOf(const TenantJob &job)
{
    serve_core::Task t;
    t.arrivalSec = job.arrivalSec;
    t.departSec = job.departSec;
    t.rateSps = job.qosStepsPerSec;
    t.qosDeadlineSec = job.qosDeadlineSec;
    t.stepLimit = job.steps;
    t.priority = job.priority;
    return t;
}

SessionOutcome
sessionOutcome(const serve_core::Task &t, double makespanSec,
               double wallLimitSec)
{
    SessionOutcome o;
    // Departed: the session ended with steps outstanding and its
    // departure (not the wall budget) is what ended it.
    o.departed =
        !t.completed && t.departSec > 0.0 &&
        (wallLimitSec <= 0.0 ||
         t.departSec < wallLimitSec + serve_core::kEps);
    o.endSec = t.completed
                   ? t.completionSec
                   : (o.departed ? std::min(t.departSec, makespanSec)
                                 : makespanSec);
    const double window = std::max(0.0, o.endSec - t.arrivalSec);
    o.achievedStepsPerSec = window > 0.0 ? double(t.done) / window
                                         : (t.done > 0 ? kInf : 0.0);

    // QoS attainment: of the steps the target demanded by endSec, the
    // share that met their deadline.
    double demanded = kNaN;
    if (t.rateSps > 0.0) {
        demanded = t.completed ? double(t.stepLimit)
                               : std::floor(window * t.rateSps);
        if (t.stepLimit > 0)
            demanded = std::min(demanded, double(t.stepLimit));
    } else if (t.qosDeadlineSec > 0.0) {
        // Deadline targets are validated to have bounded steps;
        // nothing is demanded until the deadline has passed.
        if (t.completed || t.qosDeadlineSec <= o.endSec)
            demanded = double(t.stepLimit);
    }
    o.qosAttainmentPct =
        std::isfinite(demanded) && demanded > 0.0
            ? 100.0 * std::min(1.0, double(t.metDeadlines) / demanded)
            : kNaN;
    return o;
}

std::uint64_t
latencySlots(const serve_core::Task &t, double minStepSec,
             double wallLimitSec)
{
    if (t.stepLimit == 0)
        return 0;
    double endSec = t.departSec > 0.0 ? t.departSec : kInf;
    if (wallLimitSec > 0.0)
        endSec = std::min(endSec, wallLimitSec);
    // Back-to-back steps from the arrival at the cheapest cost are the
    // most any schedule can fit before the session's end.
    return t.arrivalSec + double(t.stepLimit) * minStepSec <=
                   endSec + serve_core::kEps
               ? t.stepLimit
               : 0;
}

void
publishCoreCounters(const serve_core::Counters &c)
{
    auto &metrics = obs::MetricsRegistry::instance();
    metrics.addCounter("serve_core.steps", c.steps);
    metrics.addCounter("serve_core.dispatches", c.dispatches);
    metrics.addCounter("serve_core.coalesced_quanta", c.coalescedQuanta);
    metrics.addCounter("serve_core.promotions", c.promotions);
    metrics.addCounter("serve_core.idle_jumps", c.idleJumps);
    metrics.addCounter("serve_core.context_switches", c.switches);
    metrics.addCounter("serve_core.retired", c.retired);
}

ServeResult
serveHeader(const ServeSpec &spec)
{
    ServeResult out;
    out.workloadName = spec.workload.name;
    out.configName = spec.config.name;
    out.policy = spec.policy;
    out.chips = spec.chips;
    out.quantumIters = spec.opts.quantumIters;
    out.wallLimitSec = spec.opts.wallLimitSec;
    return out;
}

IterationCost
iterationCost(const ScenarioResult &r)
{
    IterationCost c;
    c.seconds = r.seconds;
    c.energyJ = r.energyJ;
    c.dramBytes = r.dramBytes;
    c.cycles = r.cycles;
    c.resolvedBatch = r.resolvedBatch;
    return c;
}

ServeResult
runServeLoop(const ServeSpec &spec, const std::vector<IterationCost> &costs,
             const SwitchCost &switchCost)
{
    ServeResult out = serveHeader(spec);
    out.error = validateInputs(spec, costs, switchCost);
    if (!out.ok())
        return out;

    // The loop works on a private copy of the jobs so fair-share QoS
    // targets can be filled in and echoed back through the metrics.
    std::vector<TenantJob> jobs = spec.workload.jobs;
    const std::size_t n = jobs.size();
    if (spec.opts.autoQosFairShare)
        for (std::size_t i = 0; i < n; ++i)
            if (!jobs[i].hasQos())
                jobs[i].qosStepsPerSec =
                    safeRatio(1.0, costs[i].seconds) / double(n);

    // Admission prices the targets the loop enforces, so it runs
    // after the fair-share fill; one decision batch per serve.
    std::vector<bool> admitted(n, true);
    if (spec.opts.admission) {
        AdmissionDecision decision =
            decideAdmission(jobs, costs, *spec.opts.admission);
        if (auto &metrics = obs::MetricsRegistry::instance();
            metrics.enabled()) {
            metrics.addCounter("admission.admitted",
                               decision.admittedCount);
            metrics.addCounter("admission.rejected",
                               decision.rejectedCount);
        }
        if (obs::TraceTrack *track = spec.opts.traceTrack)
            for (std::size_t i = 0; i < n; ++i)
                track->instant(jobs[i].arrivalSec,
                               (decision.admitted[i] ? "admit "
                                                     : "shed ") +
                                   jobs[i].name,
                               "admission");
        if (decision.admittedCount == 0) {
            // Nothing feasible: an empty engine has no makespan,
            // energy or latency to report, so no loop runs.
            for (std::size_t i = 0; i < n; ++i) {
                out.tenants.push_back(shedRow(jobs[i], costs[i]));
                out.tenants.back().energyShare = safeRatio(0.0, 0.0);
            }
            out.meanQosAttainmentPct = kNaN;
            out.aggStepLatency = computeLatencyStats({});
            return out;
        }
        admitted = std::move(decision.admitted);
    }

    const double wall = spec.opts.wallLimitSec;
    std::vector<TenantRun> run(n);
    ServeClient client(jobs, costs, switchCost, out, run);
    client.trace = spec.opts.traceTrack;
    if (obs::RunTelemetry *tel = spec.opts.telemetry) {
        if (!(tel->invWindowSec > 0.0)) {
            // Deterministic span guess from the inputs alone: the
            // wall budget when one is set, else the last admitted
            // arrival.
            double span = wall;
            for (std::size_t i = 0; i < n; ++i)
                if (admitted[i])
                    span = std::max(span, jobs[i].arrivalSec);
            if (!tel->resolveWindow(span, &out.error))
                return out;
        }
        for (std::size_t i = 0; i < n; ++i)
            run[i].windows.configure(
                tel->invWindowSec, tel->slo.targetFor(jobs[i].priority),
                tel->slo.globalTargetSec);
        client.telemetry = tel;
    }

    serve_core::Config cfg;
    cfg.policy = spec.policy;
    cfg.quantumIters = spec.opts.quantumIters;
    cfg.wallLimitSec = wall;
    // Static mixes run closed loop; trace replays gate rate targets
    // on their due times, as the fleet does.
    cfg.rateGates = spec.opts.openLoop;

    // Shed tenants never enter the engine, and reserve no slots.
    std::vector<serve_core::Task> &tasks = client.tasks;
    serve_core::Executor ex;
    std::size_t lat_slots = 0;
    for (std::size_t i = 0; i < n; ++i)
        if (admitted[i]) {
            ex.arrivals.push_back(std::uint32_t(i));
            lat_slots += latencySlots(tasks[i], costs[i].seconds, wall);
        }
    client.latArena.assign(lat_slots, kNaN);
    double *slice = client.latArena.data();
    for (const std::uint32_t i : ex.arrivals) // still in tenant order
        if (const std::uint64_t slots =
                latencySlots(tasks[i], costs[i].seconds, wall)) {
            tasks[i].slots = slice;
            slice += slots;
        }
    std::stable_sort(ex.arrivals.begin(), ex.arrivals.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                         return jobs[a].arrivalSec < jobs[b].arrivalSec;
                     });

    serve_core::runUntil(client, ex, cfg, wall > 0.0 ? wall : kInf);
    out.makespanSec = client.lastActiveSec;
    out.coreCounters = ex.counters;

    // Telemetry publish point (sequential, tenant index order, so the
    // emitted floats replay byte-identically).
    if (obs::RunTelemetry *tel = spec.opts.telemetry) {
        const std::string prefix =
            std::string("serve.") + policyName(spec.policy) + ".";
        std::map<int,
                 std::map<std::int64_t, obs::ComponentWindows::Row>>
            by_prio;
        for (std::size_t i = 0; i < n; ++i) {
            if (!admitted[i])
                continue;
            run[i].windows.finish();
            std::map<std::int64_t, obs::ComponentWindows::Row> rows;
            obs::mergeComponentRows(run[i].windows.rows(), &rows);
            obs::publishComponentSeries(
                rows, prefix + "tenant." + jobs[i].name + ".",
                &tel->snapshot);
            obs::mergeComponentRows(run[i].windows.rows(),
                                    &by_prio[jobs[i].priority]);
        }
        obs::publishLatencyWindows(by_prio, prefix, tel);
        for (const auto &[w, count] : client.switchWindows)
            tel->snapshot.add(prefix + "switches",
                              obs::TimeSeries::Kind::kCounter, w,
                              count);
    }

    // Sequential publish point: the loop above is single-threaded, so
    // these totals are a pure function of the simulated work.
    if (auto &metrics = obs::MetricsRegistry::instance();
        metrics.enabled()) {
        publishCoreCounters(out.coreCounters);
        for (serve_core::Task &t : tasks) {
            const std::span<const double> lat = serve_core::samples(t);
            metrics.recordValues("serve.step_latency_sec", lat.data(),
                                 lat.size());
        }
    }

    // Per-tenant metrics; the latency stats reorder each tenant's
    // samples in place.
    double qos_sum = 0.0;
    std::size_t qos_count = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (!admitted[i]) {
            out.tenants.push_back(shedRow(jobs[i], costs[i]));
            continue;
        }
        TenantMetrics m;
        m.job = jobs[i];
        m.resolvedBatch = costs[i].resolvedBatch > 0
                              ? costs[i].resolvedBatch
                              : jobs[i].batch;
        m.stepsDone = tasks[i].done;
        m.completed = tasks[i].completed;
        const SessionOutcome end =
            sessionOutcome(tasks[i], out.makespanSec, wall);
        m.departed = end.departed;
        m.endSec = end.endSec;
        m.achievedStepsPerSec = end.achievedStepsPerSec;
        m.qosAttainmentPct = end.qosAttainmentPct;
        m.waitSec = run[i].started
                        ? run[i].firstStartSec - jobs[i].arrivalSec
                        : kNaN;
        m.isolatedStepsPerSec = safeRatio(1.0, costs[i].seconds);
        m.slowdown =
            safeRatio(m.isolatedStepsPerSec, m.achievedStepsPerSec);
        if (std::isfinite(m.qosAttainmentPct)) {
            qos_sum += m.qosAttainmentPct;
            ++qos_count;
        }

        const std::span<double> lat = serve_core::samples(tasks[i]);
        m.stepLatency = computeLatencyStatsScratch(lat.data(), lat.size());

        m.energyJ = run[i].energyJ;
        m.switchesIn = run[i].switchesIn;
        out.totalEnergyJ += m.energyJ;
        out.tenants.push_back(std::move(m));
    }
    for (TenantMetrics &m : out.tenants)
        m.energyShare = safeRatio(m.energyJ, out.totalEnergyJ);
    out.meanQosAttainmentPct =
        qos_count > 0 ? qos_sum / double(qos_count) : kNaN;

    // The aggregate reads every tenant's samples off the arena, with
    // the overflow runs appended: the slots a departed or wall-cut
    // tenant left unused still hold NaN, which the stats drop. Growing
    // the arena may move it, so no task's slots is read after that.
    std::vector<double> &arena = client.latArena;
    for (const serve_core::Task &t : tasks)
        arena.insert(arena.end(), t.overflow.begin(), t.overflow.end());
    out.aggStepLatency =
        computeLatencyStatsScratch(arena.data(), arena.size());
    return out;
}

std::vector<IterationCost>
isolatedCosts(const ServeSpec &spec, SweepRunner &runner,
              std::string *error)
{
    const std::string cfg_err = spec.config.validationError();
    if (!cfg_err.empty()) {
        *error = "invalid accelerator config: " + cfg_err;
        return {};
    }
    const std::string mix_err =
        spec.workload.validationError(spec.opts.wallLimitSec > 0.0);
    if (!mix_err.empty()) {
        *error = mix_err;
        return {};
    }

    std::vector<Scenario> scenarios;
    scenarios.reserve(spec.workload.jobs.size());
    for (const TenantJob &job : spec.workload.jobs)
        scenarios.push_back(
            tenantScenario(spec.config, spec.chips, spec.pod, job));
    // The mix validated non-empty, and every tenant prices on the
    // same backend.
    const std::string backend_err =
        backendAllowedError(spec.backends, scenarios.front().backend);
    if (!backend_err.empty()) {
        *error = backend_err;
        return {};
    }
    const SweepReport report = runner.run(scenarios);

    std::vector<IterationCost> costs;
    costs.reserve(report.results.size());
    for (std::size_t i = 0; i < report.results.size(); ++i) {
        const ScenarioResult &r = report.results[i];
        if (!r.ok()) {
            *error = "tenant '" + spec.workload.jobs[i].name + "': " +
                     r.error;
            return {};
        }
        costs.push_back(iterationCost(r));
    }
    return costs;
}

ServeResult
simulateServe(const ServeSpec &spec, SweepRunner &runner)
{
    std::string err;
    const std::vector<IterationCost> costs =
        isolatedCosts(spec, runner, &err);
    if (!err.empty()) {
        ServeResult out = serveHeader(spec);
        out.error = err;
        return out;
    }

    const ContextSwitchModel switches(spec.config, spec.chips);
    return runServeLoop(spec, costs, switches.cost());
}

ServeResult
simulateServe(const ServeSpec &spec)
{
    SweepRunner runner;
    return simulateServe(spec, runner);
}

} // namespace diva
