#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <set>

#include "sweep/scenario.h"

namespace perfbench
{

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"setup_s", "s"},
        {"ops_per_s", "1/s"},
        {"cached_ops_per_s", "1/s"},
        {"peak_rss_mb", "MB"},
        {"paper_speedup_err", "fraction"},
        {"paper_energy_err", "fraction"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = [] {
        std::vector<MetricDef> d = {
            {"host.calib_s", "s"},
            {"host.effective_cores", "count"},
            {"arrivals.generate_s", "s"},
            {"sweep.cold_run_s", "s"},
            {"sweep.scenario_us", "us"},
            {"sweep.warm_run_s", "s"},
            {"sweep.result_hit_rate", "fraction"},
            {"sweep.disk_preload_s", "s"},
            {"backend.plan_build_s", "s"},
            {"backend.scenario_eval_s", "s"},
            {"backend.plan_hit_rate", "fraction"},
            {"fleet.pricing_s", "s"},
            {"fleet.run_s", "s"},
            {"fleet.placement_ns_per_arrival", "ns"},
            {"fleet.epoch_serve_s", "s"},
            {"fleet.epochs", "count"},
            {"fleet.parallel_efficiency", "fraction"},
            {"fleet.controls_s", "s"},
            {"fleet.migrations", "count"},
            {"fleet.assemble_s", "s"},
            {"fleet.assemble_ns_per_step", "ns"},
            {"fleet.busiest_pod_step_share", "fraction"},
            {"fleet.pod_steps_max_over_mean", "ratio"},
            {"serve_core.events", "count"},
            {"serve_core.ns_per_event", "ns"},
            {"serve_core.coalesced_frac", "fraction"},
            {"serve_core.idle_jump_frac", "fraction"},
            {"tenant.pricing_s", "s"},
            {"tenant.loop_s", "s"},
            {"common.percentile_ns_per_sample", "ns"},
            {"common.task_pool_us_per_job", "us"},
            {"obs.overhead_frac", "fraction"},
            {"bench.trace_overhead_frac", "fraction"},
        };
        for (const std::string &m : diva::knownModels())
            d.push_back({"paper.speedup." + m, "x"});
        for (const std::string &m : diva::knownModels())
            d.push_back({"paper.energy_saving." + m, "x"});
        return d;
    }();
    return defs;
}

void
OpLog::begin(const std::string &what)
{
    ++attempted_;
    current_ = what;
    currentFailed_ = false;
}

void
OpLog::expect(bool ok, const std::string &check)
{
    if (ok)
        return;
    std::cout << "check failed: " << current_ << ": " << check << "\n";
    if (!currentFailed_) {
        currentFailed_ = true;
        ++failed_;
    }
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string
describe(const std::vector<double> &v)
{
    if (v.empty())
        return "n 0";
    char buf[128];
    std::snprintf(buf, sizeof(buf), "median %.6g (min %.6g, max %.6g, n %zu)",
                  median(v), *std::min_element(v.begin(), v.end()),
                  *std::max_element(v.begin(), v.end()), v.size());
    return buf;
}

void
repeatFor(double seconds, int minReps, const std::function<void(int)> &rep)
{
    const Clock::time_point t0 = Clock::now();
    int i = 0;
    while (i < minReps || since(t0) < seconds)
        rep(i++);
}

double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

std::string
digest(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
    return buf;
}

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

void
resetDir(const std::string &dir)
{
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

void
printResult(const Run &run, const std::vector<MetricDef> &defs)
{
    bool ok = true;
    std::set<std::string> known;
    for (const auto *list : {&endToEndMetrics(), &perLayerMetrics()})
        for (const MetricDef &d : *list)
            known.insert(d.name);
    for (const auto &[name, value] : run.values)
        if (!known.count(name)) {
            std::cout << "internal: metric '" << name
                      << "' is not in the catalogue\n";
            ok = false;
        }

    std::string metrics;
    for (const MetricDef &d : defs) {
        const auto it = run.values.find(d.name);
        double v = it == run.values.end() ? 0.0 : it->second;
        if (!std::isfinite(v)) {
            std::cout << "internal: metric '" << d.name
                      << "' is not finite\n";
            ok = false;
            v = 0.0;
        }
        char num[64];
        std::snprintf(num, sizeof(num), "%.17g", v);
        if (!metrics.empty())
            metrics += ", ";
        metrics += "\"" + d.name + "\": {\"value\": " + num +
                   ", \"unit\": \"" + d.unit + "\"}";
    }
    const std::uint64_t failed = run.ops.failed() + (ok ? 0 : 1);
    const std::uint64_t attempted = run.ops.attempted() + (ok ? 0 : 1);
    std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed << ", \"metrics\": {"
              << metrics << "}}" << std::endl;
}

} // namespace perfbench
