#include "tenant/scheduler.h"

#include <cctype>

namespace diva
{

const char *
policyName(SchedPolicy p)
{
    switch (p) {
      case SchedPolicy::kFifo: return "fifo";
      case SchedPolicy::kRoundRobin: return "rr";
      case SchedPolicy::kPriority: return "prio";
      case SchedPolicy::kEdf: return "edf";
    }
    return "?";
}

std::optional<SchedPolicy>
policyFromName(const std::string &name)
{
    std::string s;
    for (char c : name)
        s += char(std::tolower(static_cast<unsigned char>(c)));
    if (s == "fifo")
        return SchedPolicy::kFifo;
    if (s == "rr" || s == "round-robin" || s == "roundrobin")
        return SchedPolicy::kRoundRobin;
    if (s == "prio" || s == "priority")
        return SchedPolicy::kPriority;
    if (s == "edf" || s == "earliest-deadline-first" || s == "deadline")
        return SchedPolicy::kEdf;
    return std::nullopt;
}

std::vector<SchedPolicy>
allPolicies()
{
    return {SchedPolicy::kFifo, SchedPolicy::kRoundRobin,
            SchedPolicy::kPriority, SchedPolicy::kEdf};
}

} // namespace diva
