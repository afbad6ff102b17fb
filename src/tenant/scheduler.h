/**
 * @file
 * Scheduling policies for the multi-tenant time-sharing simulator and
 * their CLI/CSV names. The serve core (src/serve_core/core.h) orders
 * its ready set by the configured policy, with the task index as the
 * final tie break, so repeated runs of the same workload produce
 * identical schedules whatever the host thread count.
 */

#ifndef DIVA_TENANT_SCHEDULER_H
#define DIVA_TENANT_SCHEDULER_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace diva
{

/** The scheduling policies offered by the serve simulator. One byte,
 *  as it sits in serve_core::Config on the serve core's hot path. */
enum class SchedPolicy : std::uint8_t
{
    /** Non-preemptive earliest-arrival-first. */
    kFifo,
    /** Round-robin time slicing over the ready tenants. */
    kRoundRobin,
    /** Strict priority (larger TenantJob::priority wins). */
    kPriority,
    /** QoS-aware earliest-deadline-first over the next-step deadline. */
    kEdf,
};

/** CLI/CSV name of a policy ("fifo", "rr", "prio", "edf"). */
const char *policyName(SchedPolicy p);

/** Parse a policy name (accepts common aliases); nullopt if unknown. */
std::optional<SchedPolicy> policyFromName(const std::string &name);

/** Every policy, in declaration order. */
std::vector<SchedPolicy> allPolicies();

} // namespace diva

#endif // DIVA_TENANT_SCHEDULER_H
