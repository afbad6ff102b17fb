/**
 * @file
 * Multi-tenant workload specification for the time-sharing scheduler
 * simulator: each tenant is one training job (a network-zoo model,
 * batch size and training algorithm) with an arrival time, a priority,
 * a step budget and an optional QoS target expressed either as a
 * sustained rate (steps/sec) or as an absolute completion deadline.
 */

#ifndef DIVA_TENANT_TENANT_H
#define DIVA_TENANT_TENANT_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "train/algorithm.h"

namespace diva
{

/** One tenant's training job time-sharing the accelerator. */
struct TenantJob
{
    /** Display name, e.g. "t0:ResNet-50". */
    std::string name;

    /** Network-zoo model name (see knownModels()). */
    std::string model;

    /** Input scale: image side / sequence length; 0 = paper default. */
    int modelScale = 0;

    /** Mini-batch size; kAutoBatch (0) = largest batch that fits. */
    int batch = 32;

    /** Micro-batch size for gradient accumulation; 0 = monolithic. */
    int microbatch = 0;

    TrainingAlgorithm algorithm = TrainingAlgorithm::kDpSgdR;

    /** Simulated time at which the job becomes runnable. */
    double arrivalSec = 0.0;

    /**
     * Simulated time at which the tenant leaves, finished or not
     * (trace replay: sessions end). 0 = stays until completion. Must
     * exceed arrivalSec when set.
     */
    double departSec = 0.0;

    /** Strict-priority rank; larger = more important. */
    int priority = 0;

    /**
     * Training steps (iterations) the job wants to run. 0 = unbounded,
     * which is only valid under a wall-clock budget (duration mode) or
     * with a departure time (trace replay).
     */
    std::uint64_t steps = 0;

    /**
     * Rate-type QoS target in training steps per second; step k's
     * deadline is arrivalSec + k / qosStepsPerSec. 0 = no rate target.
     */
    double qosStepsPerSec = 0.0;

    /**
     * Deadline-type QoS target: absolute simulated time by which every
     * step should have completed. 0 = no deadline. Mutually exclusive
     * with qosStepsPerSec.
     */
    double qosDeadlineSec = 0.0;

    /** Whether any QoS target is set. */
    bool hasQos() const { return qosStepsPerSec > 0.0 || qosDeadlineSec > 0.0; }

    /**
     * Why this job is malformed, or "" when well-formed. `wallLimited`
     * tells whether the serve run bounds wall-clock time (unbounded
     * steps are only terminating under a wall budget).
     */
    std::string validationError(bool wallLimited) const;
};

/** Per-tenant isolated iteration cost feeding the serve loop. */
struct IterationCost
{
    /** Wall-clock seconds of one isolated training iteration. */
    double seconds = 0.0;

    /** Joules of one isolated training iteration. */
    double energyJ = 0.0;

    /** Off-chip bytes of one isolated training iteration. */
    Bytes dramBytes = 0;

    Cycles cycles = 0;

    /** Mini-batch after kAutoBatch resolution. */
    int resolvedBatch = 0;
};

/**
 * Parse a --tenant spec,
 *   model[:batch[:qos_sps[:arrival_s[:prio[:steps[:depart_s]]]]]]
 * with batch 'auto' = kAutoBatch and depart_s 0 = stays. Fields the
 * spec leaves out keep their values in *job. Returns "" after filling
 * *job, or the rule the spec broke (and leaves *job untouched).
 */
std::string parseTenantSpec(const std::string &spec, TenantJob *job);

/** The tenant mix sharing one accelerator. */
struct TenantWorkload
{
    /** Mix label used in reports, e.g. "mixed-3". */
    std::string name;

    std::vector<TenantJob> jobs;

    /** First problem found across jobs (or empty workload), or "". */
    std::string validationError(bool wallLimited) const;
};

/**
 * Deterministic generated mix: `n` tenants rotating through a fixed
 * model cycle, each with `steps` steps (0 = unbounded), `batch`
 * examples per step and arrivals staggered by `arriveEverySec`.
 * Priorities rotate 0,1,2. QoS targets are left unset; callers enable
 * fair-share auto targets via ServeOptions::autoQosFairShare.
 */
TenantWorkload defaultWorkload(int n, std::uint64_t steps, int batch,
                               double arriveEverySec);

/**
 * The fixed model cycle generated mixes (and arrival-trace generators)
 * rotate through: a light CNN/sequence blend whose members all
 * simulate in milliseconds, keeping generated workloads CI-friendly.
 */
const std::vector<std::string> &defaultModelRotation();

} // namespace diva

#endif // DIVA_TENANT_TENANT_H
