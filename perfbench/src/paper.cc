#include "paper.h"

#include <cmath>
#include <cstdio>
#include <iostream>
#include <unordered_map>

#include "sweep/runner.h"

using namespace diva;

namespace perfbench
{

namespace
{

// The paper's Figure 13 and Figure 16 averages and Figure 13's argmax.
constexpr double kPaperSpeedup = 3.6;
constexpr double kPaperEnergySaving = 2.6;
constexpr const char *kPaperSpeedupArgmax = "ResNet-152";

Scenario
protocolPoint(const std::string &model, const AcceleratorConfig &cfg)
{
    Scenario s;
    s.config = cfg;
    s.model = model;
    s.modelScale = 0;
    s.batch = kAutoBatch;
    s.algorithm = TrainingAlgorithm::kDpSgdR;
    return s;
}

double
geomean(const std::vector<double> &v)
{
    double log_sum = 0.0;
    for (double x : v)
        log_sum += std::log(x);
    return v.empty() ? 0.0 : std::exp(log_sum / double(v.size()));
}

std::string
fmtX(double x)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2fx", x);
    return buf;
}

} // namespace

std::vector<Scenario>
paperPoints()
{
    std::vector<Scenario> out;
    for (const std::string &m : knownModels()) {
        out.push_back(protocolPoint(m, tpuV3Ws()));
        out.push_back(protocolPoint(m, divaDefault(true)));
    }
    return out;
}

std::string
addPaperFidelity(const std::vector<ScenarioResult> &results, Run &run)
{
    std::unordered_map<std::string, const ScenarioResult *> byKey;
    for (const ScenarioResult &r : results)
        byKey.emplace(r.scenario.canonicalKey(), &r);

    std::vector<double> speedups;
    std::vector<double> savings;
    double maxSpeedup = 0.0;
    double maxSaving = 0.0;
    std::string speedupArgmax;
    std::string savingArgmax;
    for (const std::string &m : knownModels()) {
        const auto ws = byKey.find(protocolPoint(m, tpuV3Ws()).canonicalKey());
        const auto dv =
            byKey.find(protocolPoint(m, divaDefault(true)).canonicalKey());
        if (ws == byKey.end() || dv == byKey.end())
            return "no Fig. 13/16 protocol point for " + m;
        if (!ws->second->ok() || !dv->second->ok())
            return "Fig. 13/16 protocol point failed for " + m;
        const double s =
            double(ws->second->cycles) / double(dv->second->cycles);
        const double e = ws->second->energyJ / dv->second->energyJ;
        speedups.push_back(s);
        savings.push_back(e);
        run.set("paper.speedup." + m, s);
        run.set("paper.energy_saving." + m, e);
        if (s > maxSpeedup) {
            maxSpeedup = s;
            speedupArgmax = m;
        }
        if (e > maxSaving) {
            maxSaving = e;
            savingArgmax = m;
        }
    }
    const double gs = geomean(speedups);
    const double ge = geomean(savings);
    run.set("paper_speedup_err", std::fabs(gs - kPaperSpeedup) / kPaperSpeedup);
    run.set("paper_energy_err",
            std::fabs(ge - kPaperEnergySaving) / kPaperEnergySaving);
    run.paperDone = true;
    std::cout << "paper fidelity: speedup avg " << fmtX(gs) << " (max "
              << fmtX(maxSpeedup) << ", " << speedupArgmax
              << "; paper avg " << fmtX(kPaperSpeedup) << ", argmax "
              << kPaperSpeedupArgmax << "), energy saving avg " << fmtX(ge)
              << " (max " << fmtX(maxSaving) << ", " << savingArgmax
              << "; paper avg " << fmtX(kPaperEnergySaving) << ")\n";
    return "";
}

void
pricePaperFidelity(Run &run)
{
    SweepOptions opts;
    opts.threads = run.opt.threads;
    SweepRunner runner(opts);
    run.ops.begin("paper-fidelity pricing");
    const SweepReport report = runner.run(paperPoints());
    const std::string err = addPaperFidelity(report.results, run);
    run.ops.expect(err.empty(), err);
}

} // namespace perfbench
