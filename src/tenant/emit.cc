#include "tenant/emit.h"

#include "common/format.h"

namespace diva
{

namespace
{

using enum ColumnKind;

/** The run-level cells that lead each row of one serve, and its JSON. */
void
runColumns(RowWriter col, const ServeResult &s)
{
    col({"policy", "policy", kText}, policyName(s.policy));
    col({"config", "config", kText}, s.configName);
    col({"workload", "workload", kText}, s.workloadName);
    col({"chips", "chips", kInteger}, s.chips);
    col({"quantum", "quantum", kInteger}, s.quantumIters);
    col({"wall_s", "wall_s", kReal}, s.wallLimitSec);
}

/**
 * One tenant's cells. The JSON object calls the tenant `name`, leaves
 * out `scale` and adds the latency sample count and maximum.
 */
void
tenantColumns(RowWriter col, const ServeResult &,
              const TenantMetrics &t)
{
    col({"tenant", "name", kText, "-"}, t.job.name);
    col({"model", "model", kText, "-"}, t.job.model);
    col({"scale", nullptr, kInteger, "0"}, t.job.modelScale);
    col({"algorithm", "algorithm", kText, "-"},
        algorithmName(t.job.algorithm));
    col({"batch", "batch", kInteger, "0"}, t.resolvedBatch);
    col({"priority", "priority", kInteger, "0"}, t.job.priority);
    col({"arrival_s", "arrival_s", kReal, "0"}, t.job.arrivalSec);
    col({"depart_s", "depart_s", kReal, "0"}, t.job.departSec);
    col({"qos_sps", "qos_sps", kReal, "0"}, t.job.qosStepsPerSec);
    col({"qos_deadline_s", "qos_deadline_s", kReal, "0"},
        t.job.qosDeadlineSec);
    col({"steps", "steps", kInteger, "0"}, t.job.steps);
    col({"steps_done", "steps_done", kInteger, "0"}, t.stepsDone);
    col({"completed", "completed", kFlag, "0"}, t.completed);
    col({"departed", "departed", kFlag, "0"}, t.departed);
    col({"admitted", "admitted", kFlag, "0"}, t.admitted);
    col({"wait_s", "wait_s", kReal, "nan"}, t.waitSec);
    col({"end_s", "end_s", kReal, "nan"}, t.endSec);
    col({"achieved_sps", "achieved_sps", kReal, "nan"},
        t.achievedStepsPerSec);
    col({"isolated_sps", "isolated_sps", kReal, "nan"},
        t.isolatedStepsPerSec);
    col({"slowdown", "slowdown", kReal, "nan"}, t.slowdown);
    col({nullptr, "lat_count", kInteger}, t.stepLatency.count);
    col({"lat_p50_s", "lat_p50_s", kReal, "nan"}, t.stepLatency.p50Sec);
    col({"lat_p95_s", "lat_p95_s", kReal, "nan"}, t.stepLatency.p95Sec);
    col({"lat_p99_s", "lat_p99_s", kReal, "nan"}, t.stepLatency.p99Sec);
    col({nullptr, "lat_max_s", kReal}, t.stepLatency.maxSec);
    col({"qos_attainment_pct", "qos_attainment_pct", kReal, "nan"},
        t.qosAttainmentPct);
    col({"energy_j", "energy_j", kReal, "nan"}, t.energyJ);
    col({"energy_share", "energy_share", kReal, "nan"}, t.energyShare);
    col({"switches_in", "switches_in", kInteger, "0"}, t.switchesIn);
    // Only a failed run has an error, and its placeholder row prints it.
    col({"error", nullptr, kText}, "");
}

} // namespace

void
writeServeCsv(std::ostream &os, const std::vector<ServeResult> &serves)
{
    os << runTableHeader(runColumns, tenantColumns);
    for (const ServeResult &s : serves)
        writeRunRows(os, runColumns, s, tenantColumns, s.tenants);
}

void
writeServeJson(std::ostream &os, const std::vector<ServeResult> &serves)
{
    os << "{\n  \"serves\": [";
    for (std::size_t i = 0; i < serves.size(); ++i) {
        const ServeResult &s = serves[i];
        std::string fields;
        runColumns(RowWriter(fields, RowWriter::kJsonFields), s);
        os << (i ? ",\n    {" : "\n    {") << fields;
        if (!s.ok()) {
            os << ", \"error\": \"" << jsonEscape(s.error) << "\"}";
            continue;
        }
        const std::size_t admitted = s.admittedCount();
        os << ", \"makespan_s\": " << jsonNumber(s.makespanSec)
           << ", \"energy_j\": " << jsonNumber(s.totalEnergyJ)
           << ", \"context_switches\": " << s.contextSwitches
           << ", \"switch_s\": " << jsonNumber(s.switchSec)
           << ", \"switch_energy_j\": " << jsonNumber(s.switchEnergyJ)
           << ", \"switch_dram_bytes\": " << s.switchDramBytes
           << ", \"mean_qos_attainment_pct\": "
           << jsonNumber(s.meanQosAttainmentPct)
           << ", \"admitted\": " << admitted << ", \"rejected\": "
           << s.tenants.size() - admitted
           << ", \"lat_count\": " << s.aggStepLatency.count
           << ", \"lat_mean_s\": " << jsonNumber(s.aggStepLatency.meanSec)
           << ", \"lat_p50_s\": " << jsonNumber(s.aggStepLatency.p50Sec)
           << ", \"lat_p95_s\": " << jsonNumber(s.aggStepLatency.p95Sec)
           << ", \"lat_p99_s\": " << jsonNumber(s.aggStepLatency.p99Sec)
           << ", \"lat_max_s\": " << jsonNumber(s.aggStepLatency.maxSec)
           << ", \"tenants\": [";
        for (std::size_t j = 0; j < s.tenants.size(); ++j) {
            fields.clear();
            tenantColumns(RowWriter(fields, RowWriter::kJsonFields), s,
                          s.tenants[j]);
            os << (j ? ", {" : "{") << fields << "}";
        }
        os << "]}";
    }
    os << "\n  ]\n}\n";
}

} // namespace diva
