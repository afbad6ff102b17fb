#include <atomic>
#include <vector>

#include "common/percentile.h"
#include "common/task_pool.h"
#include "workloads.h"

using namespace diva;

namespace perfbench
{

double
Phases::seconds(const std::string &name) const
{
    const auto it = byName.find(name);
    return it == byName.end() ? 0.0 : it->second.seconds;
}

std::uint64_t
Phases::calls(const std::string &name) const
{
    const auto it = byName.find(name);
    return it == byName.end() ? 0 : it->second.calls;
}

void
traceOn(bool on)
{
    obs::Profiler &p = obs::Profiler::instance();
    p.enable(on);
    p.reset();
}

Phases
takePhases()
{
    Phases out;
    out.byName = obs::Profiler::instance().phases();
    return out;
}

void
measureCommonLayer(Run &run)
{
    const int reps = run.opt.smoke ? 1 : 5;

    // Latency samples shaped like the serve loops': a million steps
    // over a few thousand distinct latencies.
    const std::size_t n = run.opt.smoke ? 10000 : 1000000;
    std::uint64_t state = run.opt.seed;
    std::vector<double> samples(n);
    for (double &s : samples)
        s = 1e-3 * (1.0 + double(splitmix64(state) % 4096) / 64.0);
    std::vector<double> perSample;
    for (int r = 0; r < reps; ++r) {
        std::vector<double> scratch = samples;
        const Clock::time_point t0 = Clock::now();
        const LatencyStats st =
            computeLatencyStatsScratch(scratch.data(), scratch.size());
        perSample.push_back(since(t0) * 1e9 / double(n));
        run.ops.begin("computeLatencyStatsScratch");
        run.ops.expect(st.count == n && st.p50Sec <= st.p99Sec &&
                           st.p99Sec <= st.maxSec,
                       "inconsistent latency stats");
    }
    run.set("common.percentile_ns_per_sample", median(perSample));

    // Task-pool dispatch: many small parallelFor jobs on every lane.
    const int jobs = run.opt.smoke ? 100 : 2000;
    const std::size_t width = std::size_t(run.opt.threads) * 4;
    std::vector<double> perJob;
    for (int r = 0; r < reps; ++r) {
        std::vector<std::atomic<std::uint64_t>> hits(width);
        const Clock::time_point t0 = Clock::now();
        for (int j = 0; j < jobs; ++j)
            TaskPool::shared().parallelFor(
                width, run.opt.threads, [&](std::size_t i) {
                    hits[i].fetch_add(1, std::memory_order_relaxed);
                });
        perJob.push_back(since(t0) * 1e6 / double(jobs));
        run.ops.begin("TaskPool::parallelFor");
        bool all = true;
        for (const auto &h : hits)
            all = all && h.load() == std::uint64_t(jobs);
        run.ops.expect(all, "an index did not run exactly once per job");
    }
    run.set("common.task_pool_us_per_job", median(perJob));
}

} // namespace perfbench
