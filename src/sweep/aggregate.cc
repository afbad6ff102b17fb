#include "sweep/aggregate.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"

namespace diva
{

namespace
{

/** Quantile with linear interpolation over a sorted series. */
double
quantileSorted(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const double pos = q * double(sorted.size() - 1);
    const std::size_t lo = std::size_t(std::floor(pos));
    const std::size_t hi = std::size_t(std::ceil(pos));
    const double frac = pos - double(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/** Whether `r`'s backend models `o` (every backend models seconds). */
bool
modeled(const ScenarioResult &r, Objective o)
{
    return o == Objective::kSeconds ||
           modelsChipMetrics(r.scenario.backend);
}

} // namespace

SummaryStats
summarize(std::vector<double> values)
{
    SummaryStats s;
    if (values.empty())
        return s;
    std::sort(values.begin(), values.end());
    s.count = values.size();
    s.min = values.front();
    s.max = values.back();
    s.mean = std::accumulate(values.begin(), values.end(), 0.0) /
             double(values.size());
    s.median = quantileSorted(values, 0.5);
    s.p95 = quantileSorted(values, 0.95);
    return s;
}

const char *
objectiveName(Objective o)
{
    switch (o) {
      case Objective::kCycles: return "cycles";
      case Objective::kSeconds: return "seconds";
      case Objective::kUtilization: return "utilization";
      case Objective::kEnergy: return "energy";
      case Objective::kDramBytes: return "dram_bytes";
      case Objective::kEnginePowerW: return "power";
      case Objective::kEngineAreaMm2: return "area";
    }
    return "?";
}

std::optional<Objective>
objectiveFromName(const std::string &name)
{
    for (Objective o :
         {Objective::kCycles, Objective::kSeconds, Objective::kUtilization,
          Objective::kEnergy, Objective::kDramBytes,
          Objective::kEnginePowerW, Objective::kEngineAreaMm2})
        if (name == objectiveName(o))
            return o;
    return std::nullopt;
}

double
objectiveValue(const ScenarioResult &r, Objective o)
{
    switch (o) {
      case Objective::kCycles: return double(r.cycles);
      case Objective::kSeconds: return r.seconds;
      case Objective::kUtilization: return r.utilization;
      case Objective::kEnergy: return r.energyJ;
      case Objective::kDramBytes: return double(r.dramBytes);
      case Objective::kEnginePowerW: return r.enginePowerW;
      case Objective::kEngineAreaMm2: return r.engineAreaMm2;
    }
    return 0.0;
}

bool
objectiveMaximized(Objective o)
{
    return o == Objective::kUtilization;
}

SweepSummary
summarizeResults(const std::vector<ScenarioResult> &results)
{
    std::vector<double> cycles, seconds, util, energy;
    for (const ScenarioResult &r : results) {
        if (!r.ok())
            continue;
        seconds.push_back(r.seconds);
        if (!modelsChipMetrics(r.scenario.backend))
            continue;
        cycles.push_back(double(r.cycles));
        util.push_back(r.utilization);
        energy.push_back(r.energyJ);
    }
    SweepSummary s;
    s.cycles = summarize(std::move(cycles));
    s.seconds = summarize(std::move(seconds));
    s.utilization = summarize(std::move(util));
    s.energyJ = summarize(std::move(energy));
    return s;
}

std::vector<std::size_t>
paretoFrontier(const std::vector<ScenarioResult> &results,
               const std::vector<Objective> &objectives)
{
    if (objectives.empty())
        DIVA_FATAL("Pareto extraction needs at least one objective");

    // Signed objective vectors with "smaller is better" everywhere.
    std::vector<std::vector<double>> points(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (!results[i].ok() ||
            !std::all_of(objectives.begin(), objectives.end(),
                         [&](Objective o) { return modeled(results[i], o); }))
            continue;
        points[i].reserve(objectives.size());
        for (Objective o : objectives) {
            const double v = objectiveValue(results[i], o);
            points[i].push_back(objectiveMaximized(o) ? -v : v);
        }
    }

    auto dominates = [](const std::vector<double> &a,
                        const std::vector<double> &b) {
        bool strictly = false;
        for (std::size_t k = 0; k < a.size(); ++k) {
            if (a[k] > b[k])
                return false;
            if (a[k] < b[k])
                strictly = true;
        }
        return strictly;
    };

    std::vector<std::size_t> frontier;
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (points[i].empty())
            continue;
        bool dominated = false;
        for (std::size_t j = 0; j < results.size() && !dominated; ++j)
            dominated = !points[j].empty() && j != i &&
                        dominates(points[j], points[i]);
        if (!dominated)
            frontier.push_back(i);
    }
    return frontier;
}

double
throughputExamplesPerSec(const ScenarioResult &r)
{
    if (!(r.seconds > 0.0) || !std::isfinite(r.seconds))
        return 0.0;
    return double(r.resolvedBatch) / r.seconds;
}

EnergySearchResult
energyConstrainedSearch(const std::vector<ScenarioResult> &results,
                        const EnergyBudget &budget)
{
    const bool joules_bound =
        std::isfinite(budget.maxJoulesPerIteration);
    const bool watts_bound = std::isfinite(budget.maxPowerW);

    EnergySearchResult out;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const ScenarioResult &r = results[i];
        if (!r.ok())
            continue;
        // A constrained metric must actually be modeled: energyJ <= 0
        // means "no energy model" (GPU roofline), not "free".
        if (joules_bound && (!(r.energyJ > 0.0) ||
                             r.energyJ > budget.maxJoulesPerIteration))
            continue;
        if (watts_bound &&
            (!(r.enginePowerW > 0.0) || r.enginePowerW > budget.maxPowerW))
            continue;
        out.feasible.push_back(i);
    }

    for (std::size_t i : out.feasible) {
        if (!out.best) {
            out.best = i;
            continue;
        }
        const double t = throughputExamplesPerSec(results[i]);
        const double t_best = throughputExamplesPerSec(results[*out.best]);
        if (t > t_best ||
            (t == t_best && results[i].energyJ < results[*out.best].energyJ))
            out.best = i;
    }

    // The budget-respecting trade-off curve, via the shared Pareto
    // machinery on the feasible subset.
    std::vector<ScenarioResult> feasible_results;
    feasible_results.reserve(out.feasible.size());
    for (std::size_t i : out.feasible)
        feasible_results.push_back(results[i]);
    for (std::size_t k : paretoFrontier(
             feasible_results, {Objective::kSeconds, Objective::kEnergy}))
        out.frontier.push_back(out.feasible[k]);
    return out;
}

} // namespace diva
