#include "sweep/emit.h"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace diva
{

std::string
csvHeader()
{
    return "config,dataflow,ppu,pe_rows,pe_cols,sram_mib,dram_gbs,"
           "backend,chips,ici_gbs,link_lat,model,scale,algorithm,"
           "batch,microbatch,cycles,compute_cycles,allreduce_cycles,"
           "seconds,utilization,energy_j,dram_bytes,"
           "postproc_dram_bytes,engine_power_w,engine_area_mm2,error";
}

std::string
csvRow(const ScenarioResult &r)
{
    const Scenario &s = r.scenario;
    const bool gpu = s.backend == SweepBackend::kGpu;
    // Metrics the backend does not model are emitted as empty cells
    // (integral columns) or "nan" (floating columns), never as fake
    // zeros a reader could mistake for measurements.
    const bool modeled = modelsChipMetrics(s.backend);
    std::ostringstream oss;
    oss << csvCell(gpu ? s.gpu.name : s.config.name) << ','
        << (gpu ? "-" : dataflowName(s.config.dataflow)) << ','
        << (gpu ? 0 : int(s.config.hasPpu)) << ','
        << (gpu ? 0 : s.config.peRows) << ','
        << (gpu ? 0 : s.config.peCols) << ','
        << (gpu ? 0 : s.config.sramBytes >> 20) << ','
        << formatDouble(gpu ? s.gpu.bandwidthGBs
                            : s.config.dramBandwidthGBs)
        << ',' << backendName(s.backend) << ','
        << (s.backend == SweepBackend::kMultiChip ? s.pod.numChips : 1)
        << ',';
    // Pod link design point; zeros for backends without interconnect.
    if (s.backend == SweepBackend::kMultiChip)
        oss << formatDouble(s.pod.interconnectGBs) << ','
            << s.pod.linkLatencyCycles;
    else
        oss << 0 << ',' << 0;
    oss << ',' << csvCell(s.model) << ',' << s.modelScale << ','
        << csvCell(algorithmName(s.algorithm)) << ',' << r.resolvedBatch
        << ',' << s.microbatch << ',';
    if (modeled)
        oss << r.cycles << ',' << r.computeCycles << ','
            << r.allReduceCycles << ',';
    else
        oss << ",,,";
    oss << formatDouble(r.seconds) << ','
        << (modeled ? formatDouble(r.utilization) : "nan") << ','
        << (modeled ? formatDouble(r.energyJ) : "nan") << ',';
    if (modeled)
        oss << r.dramBytes << ',' << r.postProcDramBytes << ',';
    else
        oss << ",,";
    oss << (modeled ? formatDouble(r.enginePowerW) : "nan") << ','
        << (modeled ? formatDouble(r.engineAreaMm2) : "nan") << ','
        << csvCell(r.error);
    return oss.str();
}

void
writeCsv(std::ostream &os, const SweepReport &report)
{
    os << csvHeader() << '\n';
    for (const ScenarioResult &r : report.results)
        os << csvRow(r) << '\n';
}

void
writeJson(std::ostream &os, const SweepReport &report)
{
    // No cache accounting here: the file is a pure function of the
    // scenario list, so a rerun against a warm disk cache is
    // byte-identical. Cache hit/miss counts go to the CLI summary.
    os << "{\n  \"failures\": " << report.failures
       << ",\n  \"results\": [";
    for (std::size_t i = 0; i < report.results.size(); ++i) {
        const ScenarioResult &r = report.results[i];
        const Scenario &s = r.scenario;
        const bool gpu = s.backend == SweepBackend::kGpu;
        // Unmodeled metrics are null, never fake zeros.
        const bool modeled = modelsChipMetrics(s.backend);
        os << (i ? ",\n    {" : "\n    {") << "\"config\": \""
           << jsonEscape(gpu ? s.gpu.name : s.config.name)
           << "\", \"backend\": \"" << backendName(s.backend) << '"';
        if (s.backend == SweepBackend::kMultiChip)
            os << ", \"chips\": " << s.pod.numChips << ", \"ici_gbs\": "
               << jsonNumber(s.pod.interconnectGBs)
               << ", \"link_lat\": " << s.pod.linkLatencyCycles;
        os << ", \"model\": \"" << jsonEscape(s.model)
           << "\", \"scale\": " << s.modelScale << ", \"algorithm\": \""
           << jsonEscape(algorithmName(s.algorithm))
           << "\", \"batch\": " << r.resolvedBatch
           << ", \"microbatch\": " << s.microbatch << ", \"cycles\": ";
        if (modeled)
            os << r.cycles << ", \"compute_cycles\": "
               << r.computeCycles << ", \"allreduce_cycles\": "
               << r.allReduceCycles;
        else
            os << "null, \"compute_cycles\": null"
               << ", \"allreduce_cycles\": null";
        os << ", \"seconds\": " << jsonNumber(r.seconds)
           << ", \"utilization\": "
           << (modeled ? jsonNumber(r.utilization) : "null")
           << ", \"energy_j\": "
           << (modeled ? jsonNumber(r.energyJ) : "null")
           << ", \"dram_bytes\": ";
        if (modeled)
            os << r.dramBytes;
        else
            os << "null";
        if (!r.ok())
            os << ", \"error\": \"" << jsonEscape(r.error) << "\"";
        os << "}";
    }
    os << "\n  ]\n}\n";
}

} // namespace diva
