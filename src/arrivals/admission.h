/**
 * @file
 * QoS admission control for any serve (ServeOptions::admission, static
 * mix or trace replay): before any scheduling happens, each tenant's
 * aggregate utilization demand -- the fraction of the engine its QoS
 * target claims, priced from its isolated iteration cost -- is summed
 * in priority order, and tenants whose demand would push the total
 * past capacity are rejected. The admitted subset is the feasible
 * mix; rejected tenants keep their report rows (admitted = false) so
 * the operator sees exactly what was shed.
 *
 * Demand model: a rate target of R steps/sec on a step that takes C
 * isolated seconds claims R*C of the engine; a deadline target claims
 * steps*C over its arrival->deadline window; a best-effort tenant
 * (no target) claims nothing and is always admitted -- it scavenges
 * whatever capacity the admitted QoS load leaves. Context-switch
 * overhead is not modeled in the demand, so a cap of 1.0 is the
 * optimistic bound; operators can set a lower cap to reserve
 * switching headroom.
 */

#ifndef DIVA_ARRIVALS_ADMISSION_H
#define DIVA_ARRIVALS_ADMISSION_H

#include <cstddef>
#include <vector>

#include "tenant/tenant.h"

namespace diva
{

/** Admission-controller knobs. */
struct AdmissionOptions
{
    /**
     * Fraction of the engine the admitted QoS demand may claim
     * (> 0; 1.0 = the whole engine, switch overhead ignored).
     */
    double utilizationCap = 1.0;
};

/** What the controller decided for one workload. */
struct AdmissionDecision
{
    /** Per-tenant verdict, aligned with the input job order. */
    std::vector<bool> admitted;

    /** Per-tenant utilization demand (0 for best-effort tenants). */
    std::vector<double> demand;

    /** Sum of the admitted tenants' demand. */
    double admittedDemand = 0.0;

    /** Sum over every tenant (what an uncontrolled run carries). */
    double totalDemand = 0.0;

    std::size_t admittedCount = 0;
    std::size_t rejectedCount = 0;
};

/**
 * The utilization demand of one job priced at `cost`: R*C for a rate
 * target, steps*C / (deadline - arrival) for a deadline target, 0
 * for best-effort. Non-finite inputs yield 0 (best effort).
 */
double qosUtilizationDemand(const TenantJob &job,
                            const IterationCost &cost);

/**
 * Greedy admission in (priority desc, arrival asc, index asc) order:
 * a tenant is admitted while the running demand stays within the
 * cap. Deterministic; costs[i] prices jobs[i].
 */
AdmissionDecision decideAdmission(const std::vector<TenantJob> &jobs,
                                  const std::vector<IterationCost> &costs,
                                  const AdmissionOptions &opts);

} // namespace diva

#endif // DIVA_ARRIVALS_ADMISSION_H
