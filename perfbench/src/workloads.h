/**
 * @file
 * The four workloads and the per-layer helpers they share. Each
 * workload sets up its inputs from the run's seed, repeats its timed
 * calls for the run's seconds, checks every output, and fills the run's
 * metric values (end-to-end ones always, per-layer ones when traced).
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <string>

#include "obs/profile.h"
#include "report.h"

namespace perfbench
{

void sweepDesign(Run &run);
void fleetBalanced(Run &run);
void fleetSkewed(Run &run);
void tenantMix(Run &run);

/** obs::Profiler phases recorded since the last traceOn(true). */
struct Phases
{
    std::map<std::string, diva::obs::Profiler::Phase> byName;

    double seconds(const std::string &name) const;
    std::uint64_t calls(const std::string &name) const;
};

/** Enable (and reset) or disable obs::Profiler. */
void traceOn(bool on);

/** The phases recorded since the last traceOn(true). */
Phases takePhases();

/** Time the common layer (percentile, task pool) from outside. */
void measureCommonLayer(Run &run);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
