#include "fleet/emit.h"

#include "common/format.h"

namespace diva
{

namespace
{

using enum ColumnKind;

/**
 * The run-level cells that lead each row of both fleet tables; the
 * JSON document opens with them plus the quantum and the wall.
 */
void
runColumns(RowWriter col, const FleetResult &f)
{
    col({"policy", "policy", kText}, policyName(f.policy));
    col({"placement", "placement", kText}, placementName(f.placement));
    col({"fleet", "fleet", kText}, f.fleetName);
    col({"trace", "trace", kText}, f.traceName);
    col({nullptr, "quantum", kInteger}, f.quantumIters);
    col({nullptr, "wall_s", kReal}, f.wallLimitSec);
}

/**
 * One session's cells. The JSON object calls the session `name`,
 * leaves out `qos_deadline_s`, and a session that never reached a pod
 * has `pod` null.
 */
void
tenantColumns(RowWriter col, const FleetResult &f,
              const FleetTenantMetrics &t)
{
    col({"tenant", "name", kText, "-"}, t.job.name);
    col({"model", "model", kText, "-"}, t.job.model);
    col({"batch", "batch", kInteger, "0"}, t.resolvedBatch);
    col({"priority", "priority", kInteger, "0"}, t.job.priority);
    col({"arrival_s", "arrival_s", kReal, "0"}, t.job.arrivalSec);
    col({"depart_s", "depart_s", kReal, "0"}, t.job.departSec);
    col({"qos_sps", "qos_sps", kReal, "0"}, t.job.qosStepsPerSec);
    col({"qos_deadline_s", nullptr, kReal, "0"}, t.job.qosDeadlineSec);
    col({"steps", "steps", kInteger, "0"}, t.job.steps);
    col({"steps_done", "steps_done", kInteger, "0"}, t.stepsDone);
    col({"pod", "pod", kText, "-"},
        t.finalPod == kNoPod ? Cell() : Cell(f.pods[t.finalPod].name));
    col({"admitted", "admitted", kFlag, "0"}, t.admitted);
    col({"completed", "completed", kFlag, "0"}, t.completed);
    col({"departed", "departed", kFlag, "0"}, t.departed);
    col({"end_s", "end_s", kReal, "nan"}, t.endSec);
    col({"achieved_sps", "achieved_sps", kReal, "nan"},
        t.achievedStepsPerSec);
    col({"isolated_sps", "isolated_sps", kReal, "nan"},
        t.isolatedStepsPerSec);
    col({"lat_p50_s", "lat_p50_s", kReal, "nan"}, t.stepLatency.p50Sec);
    col({"lat_p95_s", "lat_p95_s", kReal, "nan"}, t.stepLatency.p95Sec);
    col({"lat_p99_s", "lat_p99_s", kReal, "nan"}, t.stepLatency.p99Sec);
    col({"qos_attainment_pct", "qos_attainment_pct", kReal, "nan"},
        t.qosAttainmentPct);
    col({"energy_j", "energy_j", kReal, "nan"}, t.energyJ);
    col({"switches_in", "switches_in", kInteger, "0"}, t.switchesIn);
    col({"migrations", "migrations", kInteger, "0"}, t.migrations);
    col({"migration_s", "migration_s", kReal, "nan"}, t.migrationSec);
    col({"migration_energy_j", "migration_energy_j", kReal, "nan"},
        t.migrationEnergyJ);
    col({"suspensions", "suspensions", kInteger, "0"}, t.suspensions);
    // Only a failed run has an error, and its placeholder row prints it.
    col({"error", nullptr, kText}, "");
}

/** One pod's cells. */
void
podColumns(RowWriter col, const FleetResult &,
           const FleetPodReport &p)
{
    col({"pod", "pod", kText, "-"}, p.name);
    col({"config", "config", kText, "-"}, p.configName);
    col({"chips", "chips", kInteger, "0"}, p.chips);
    col({"backend", "backend", kText, "-"}, p.backend);
    col({"placed", "placed", kInteger, "0"}, p.placed);
    col({"migrated_in", "migrated_in", kInteger, "0"}, p.migratedIn);
    col({"migrated_out", "migrated_out", kInteger, "0"}, p.migratedOut);
    col({"ended", "ended", kInteger, "0"}, p.ended);
    col({"steps_done", "steps_done", kInteger, "0"}, p.stepsDone);
    col({"busy_s", "busy_s", kReal, "0"}, p.busySec);
    col({"utilization", "utilization", kReal, "nan"}, p.utilization);
    col({"energy_j", "energy_j", kReal, "0"}, p.energyJ);
    col({"energy_share", "energy_share", kReal, "nan"}, p.energyShare);
    col({"switches", "switches", kInteger, "0"}, p.contextSwitches);
    col({"switch_s", "switch_s", kReal, "0"}, p.switchSec);
    col({"switch_energy_j", "switch_energy_j", kReal, "0"},
        p.switchEnergyJ);
    col({"migration_s", "migration_s", kReal, "0"}, p.migrationSec);
    col({"migration_energy_j", "migration_energy_j", kReal, "0"},
        p.migrationEnergyJ);
    col({"migration_bytes", "migration_bytes", kInteger, "0"},
        p.migrationBytes);
    col({"lat_count", "lat_count", kInteger, "0"}, p.stepLatency.count);
    col({"lat_p50_s", "lat_p50_s", kReal, "nan"}, p.stepLatency.p50Sec);
    col({"lat_p95_s", "lat_p95_s", kReal, "nan"}, p.stepLatency.p95Sec);
    col({"lat_p99_s", "lat_p99_s", kReal, "nan"}, p.stepLatency.p99Sec);
    col({"mean_qos_attainment_pct", "mean_qos_attainment_pct", kReal,
         "nan"},
        p.meanQosAttainmentPct);
    col({"error", nullptr, kText}, "");
}

} // namespace

void
writeFleetTenantCsv(std::ostream &os, const FleetResult &fleet)
{
    os << runTableHeader(runColumns, tenantColumns);
    writeRunRows(os, runColumns, fleet, tenantColumns, fleet.tenants);
}

void
writeFleetPodCsv(std::ostream &os, const FleetResult &fleet)
{
    os << runTableHeader(runColumns, podColumns);
    writeRunRows(os, runColumns, fleet, podColumns, fleet.pods);
}

void
writeFleetJson(std::ostream &os, const FleetResult &f,
               bool includeTenants)
{
    std::string fields;
    runColumns(RowWriter(fields, RowWriter::kJsonFields), f);
    os << "{\n  " << fields;
    if (!f.ok()) {
        os << ", \"error\": \"" << jsonEscape(f.error) << "\"\n}\n";
        return;
    }
    os << ",\n  \"pods_total\": " << f.pods.size()
       << ", \"placed\": " << f.placedCount
       << ", \"rejected\": " << f.rejectedCount
       << ", \"steps\": " << f.totalSteps
       << ", \"makespan_s\": " << jsonNumber(f.makespanSec)
       << ", \"energy_j\": " << jsonNumber(f.totalEnergyJ)
       << ", \"context_switches\": " << f.contextSwitches
       << ",\n  \"migrations\": " << f.migrations
       << ", \"migration_s\": " << jsonNumber(f.migrationSec)
       << ", \"migration_energy_j\": " << jsonNumber(f.migrationEnergyJ)
       << ", \"migration_bytes\": " << f.migrationBytes
       << ", \"suspensions\": " << f.suspensions
       << ", \"mean_qos_attainment_pct\": "
       << jsonNumber(f.meanQosAttainmentPct)
       << ",\n  \"lat_count\": " << f.aggStepLatency.count
       << ", \"lat_mean_s\": " << jsonNumber(f.aggStepLatency.meanSec)
       << ", \"lat_p50_s\": " << jsonNumber(f.aggStepLatency.p50Sec)
       << ", \"lat_p95_s\": " << jsonNumber(f.aggStepLatency.p95Sec)
       << ", \"lat_p99_s\": " << jsonNumber(f.aggStepLatency.p99Sec)
       << ", \"lat_max_s\": " << jsonNumber(f.aggStepLatency.maxSec)
       << ",\n  \"pods\": [";
    for (std::size_t p = 0; p < f.pods.size(); ++p) {
        fields.clear();
        podColumns(RowWriter(fields, RowWriter::kJsonFields), f,
                   f.pods[p]);
        os << (p ? ",\n    {" : "\n    {") << fields << "}";
    }
    os << "\n  ]";
    if (includeTenants) {
        os << ",\n  \"tenants\": [";
        for (std::size_t i = 0; i < f.tenants.size(); ++i) {
            fields.clear();
            tenantColumns(RowWriter(fields, RowWriter::kJsonFields), f,
                          f.tenants[i]);
            os << (i ? ",\n    {" : "\n    {") << fields << "}";
        }
        os << "\n  ]";
    }
    os << "\n}\n";
}

} // namespace diva
