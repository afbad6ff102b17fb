#include "tenant/tenant.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <sstream>

#include "common/cli.h"
#include "sweep/scenario.h"

namespace diva
{

std::string
parseTenantSpec(const std::string &spec, TenantJob *job)
{
    std::vector<std::string> f;
    std::stringstream ss(spec);
    for (std::string item; std::getline(ss, item, ':');)
        f.push_back(item);
    if (f.empty() || f.size() > 7 || f[0].empty())
        return "must be model[:batch[:qos_sps[:arrival_s[:prio[:steps"
               "[:depart_s]]]]]]";
    TenantJob j = *job;
    j.model = f[0];
    const auto field = [&f](std::size_t i, const char *name,
                            const auto &parser, auto &dst) {
        if (i >= f.size())
            return std::string();
        const auto v = parser.parse(f[i]);
        if (!v)
            return std::string(name) + " " + parser.rule;
        dst = *v;
        return std::string();
    };
    const std::string errors[] = {
        field(1, "batch",
              cli::orWord(cli::integer(1), "auto", kAutoBatch), j.batch),
        field(2, "qos_sps", cli::real(0.0, true), j.qosStepsPerSec),
        field(3, "arrival_s", cli::real(0.0, true), j.arrivalSec),
        field(4, "prio", cli::integer(INT_MIN), j.priority),
        field(5, "steps", cli::integer<std::uint64_t>(0), j.steps),
        field(6, "depart_s", cli::real(0.0, true), j.departSec)};
    for (const std::string &err : errors)
        if (!err.empty())
            return err;
    *job = j;
    return "";
}

std::string
TenantJob::validationError(bool wallLimited) const
{
    const std::vector<std::string> zoo = knownModels();
    if (std::find(zoo.begin(), zoo.end(), model) == zoo.end())
        return "unknown model '" + model + "'";
    if (batch < 0)
        return "batch must be >= 0 (0 = auto)";
    if (microbatch < 0)
        return "microbatch must be >= 0";
    if (modelScale < 0)
        return "model scale must be >= 0";
    if (!(arrivalSec >= 0.0) || !std::isfinite(arrivalSec))
        return "arrival must be a finite time >= 0";
    if (!(departSec >= 0.0) || !std::isfinite(departSec))
        return "departure must be a finite time >= 0";
    if (departSec > 0.0 && departSec <= arrivalSec)
        return "departure precedes arrival";
    if (steps == 0 && !wallLimited && departSec <= 0.0)
        return "unbounded steps (0) need a wall-clock budget or a "
               "departure time";
    if (!(qosStepsPerSec >= 0.0) || !std::isfinite(qosStepsPerSec))
        return "QoS steps/sec must be finite and >= 0";
    if (!(qosDeadlineSec >= 0.0) || !std::isfinite(qosDeadlineSec))
        return "QoS deadline must be finite and >= 0";
    if (qosStepsPerSec > 0.0 && qosDeadlineSec > 0.0)
        return "set a steps/sec target or a deadline, not both";
    if (qosDeadlineSec > 0.0 && qosDeadlineSec <= arrivalSec)
        return "QoS deadline precedes arrival";
    if (qosDeadlineSec > 0.0 && steps == 0)
        return "a deadline target needs a bounded step budget";
    return "";
}

std::string
TenantWorkload::validationError(bool wallLimited) const
{
    if (jobs.empty())
        return "workload has no tenants";
    for (const TenantJob &job : jobs) {
        const std::string err = job.validationError(wallLimited);
        if (!err.empty())
            return "tenant '" + job.name + "': " + err;
    }
    return "";
}

const std::vector<std::string> &
defaultModelRotation()
{
    static const std::vector<std::string> kRotation = {
        "SqueezeNet", "MobileNet", "LSTM-small", "ResNet-50", "BERT-base",
    };
    return kRotation;
}

TenantWorkload
defaultWorkload(int n, std::uint64_t steps, int batch,
                double arriveEverySec)
{
    const std::vector<std::string> &rotation = defaultModelRotation();
    TenantWorkload mix;
    {
        std::ostringstream oss;
        oss << "mixed-" << n;
        mix.name = oss.str();
    }
    for (int i = 0; i < n; ++i) {
        TenantJob job;
        job.model = rotation[std::size_t(i) % rotation.size()];
        std::ostringstream oss;
        oss << "t" << i << ":" << job.model;
        job.name = oss.str();
        job.batch = batch;
        job.steps = steps;
        job.arrivalSec = arriveEverySec * double(i);
        job.priority = i % 3;
        mix.jobs.push_back(std::move(job));
    }
    return mix;
}

} // namespace diva
