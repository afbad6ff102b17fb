/**
 * @file
 * Post-sweep analysis: summary statistics over result metrics and
 * Pareto-frontier extraction over user-chosen objectives (e.g.
 * iteration cycles vs. energy vs. engine area).
 */

#ifndef DIVA_SWEEP_AGGREGATE_H
#define DIVA_SWEEP_AGGREGATE_H

#include <cstddef>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "sweep/scenario.h"

namespace diva
{

/** Order statistics of one metric across a sweep. */
struct SummaryStats
{
    std::size_t count = 0;
    double min = 0.0;
    double max = 0.0;
    double mean = 0.0;
    double median = 0.0;
    double p95 = 0.0;
};

/**
 * Summarize a value series. Median and p95 use linear interpolation
 * between order statistics; an empty series yields all-zero stats.
 */
SummaryStats summarize(std::vector<double> values);

/** Sweep objectives usable for summaries and Pareto extraction. */
enum class Objective
{
    kCycles,
    kSeconds,
    kUtilization,
    kEnergy,
    kDramBytes,
    kEnginePowerW,
    kEngineAreaMm2,
};

/** CLI/CSV name of an objective ("cycles", "energy", ...). */
const char *objectiveName(Objective o);

/** Parse an objective name; nullopt for unknown names. */
std::optional<Objective> objectiveFromName(const std::string &name);

/** The objective's value in one result. */
double objectiveValue(const ScenarioResult &r, Objective o);

/** Whether bigger is better (only utilization); others minimize. */
bool objectiveMaximized(Objective o);

/**
 * Per-metric summaries over the successful results of a sweep. A
 * metric's series holds only the rows whose backend models it (see
 * modelsChipMetrics()), so GPU rows count towards `seconds` alone.
 */
struct SweepSummary
{
    SummaryStats cycles;
    SummaryStats seconds;
    SummaryStats utilization;
    SummaryStats energyJ;
};

SweepSummary summarizeResults(const std::vector<ScenarioResult> &results);

/**
 * Indices (ascending) of the results on the Pareto frontier of the
 * given objectives: no other successful result is at least as good in
 * every objective and strictly better in one. Results with errors, or
 * whose backend does not model one of the objectives (the GPU
 * roofline models seconds only), never make the frontier. Duplicate
 * objective vectors all survive.
 */
std::vector<std::size_t>
paretoFrontier(const std::vector<ScenarioResult> &results,
               const std::vector<Objective> &objectives);

/**
 * Constraints for the energy-constrained search. Unset budgets
 * (infinity) are unconstrained; at least one must be finite for
 * energyConstrainedSearch to do anything interesting.
 */
struct EnergyBudget
{
    /** Max energy per training iteration in joules (--budget-j). */
    double maxJoulesPerIteration = std::numeric_limits<double>::infinity();

    /** Max engine TDP in watts, pod-wide for pod scenarios (--budget-w). */
    double maxPowerW = std::numeric_limits<double>::infinity();
};

/** Outcome of an energy-constrained search over a sweep's results. */
struct EnergySearchResult
{
    /** Indices (ascending) of successful results within budget. */
    std::vector<std::size_t> feasible;

    /**
     * Feasible index with the highest training throughput
     * (examples/second); ties break toward lower energy, then input
     * order. nullopt when nothing is feasible.
     */
    std::optional<std::size_t> best;

    /**
     * Pareto frontier over (seconds, energy) restricted to the
     * feasible set -- the budget-respecting latency/energy trade-off
     * curve. Indices into `results`, ascending.
     */
    std::vector<std::size_t> frontier;
};

/** Training throughput of one result in examples per second. */
double throughputExamplesPerSec(const ScenarioResult &r);

/**
 * Best config under an energy budget: filter successful results to
 * those within every finite budget, pick the highest-throughput one,
 * and expose the feasible (seconds, energy) Pareto frontier. Results
 * without an energy model (energyJ <= 0, e.g. the GPU roofline
 * backend) are excluded whenever a joules budget is set, and likewise
 * enginePowerW <= 0 under a watts budget -- a missing model must not
 * trivially satisfy the constraint.
 */
EnergySearchResult
energyConstrainedSearch(const std::vector<ScenarioResult> &results,
                        const EnergyBudget &budget);

} // namespace diva

#endif // DIVA_SWEEP_AGGREGATE_H
