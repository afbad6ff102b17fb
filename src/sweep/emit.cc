#include "sweep/emit.h"

namespace diva
{

namespace
{

using enum ColumnKind;

/**
 * The sweep row's columns. A GPU row's design-point cells read the
 * GPU; the JSON object leaves out the design-point columns `config`
 * names, writes the pod link only for pod rows and the error only for
 * failed ones.
 */
void
columns(RowWriter col, const ScenarioResult &r)
{
    const Scenario &s = r.scenario;
    const bool gpu = s.backend == SweepBackend::kGpu;
    const bool pod = s.backend == SweepBackend::kMultiChip;
    // Metrics the backend does not model are unmodeled cells, never
    // fake zeros a reader could mistake for measurements.
    const bool modeled = modelsChipMetrics(s.backend);
    const auto chip = [modeled](const Cell &c) {
        return modeled ? c : Cell();
    };
    col({"config", "config", kText}, gpu ? s.gpu.name : s.config.name);
    col({"dataflow", nullptr, kText},
        gpu ? Cell() : Cell(dataflowName(s.config.dataflow)));
    col({"ppu", nullptr, kFlag}, !gpu && s.config.hasPpu);
    col({"pe_rows", nullptr, kInteger}, gpu ? 0 : s.config.peRows);
    col({"pe_cols", nullptr, kInteger}, gpu ? 0 : s.config.peCols);
    col({"sram_mib", nullptr, kInteger},
        gpu ? 0 : s.config.sramBytes >> 20);
    col({"dram_gbs", nullptr, kReal},
        gpu ? s.gpu.bandwidthGBs : s.config.dramBandwidthGBs);
    col({"backend", "backend", kText}, backendName(s.backend));
    col({"chips", "chips", kInteger}, pod ? s.pod.numChips : 1, pod);
    col({"ici_gbs", "ici_gbs", kReal}, pod ? s.pod.interconnectGBs : 0.0,
        pod);
    col({"link_lat", "link_lat", kInteger},
        pod ? s.pod.linkLatencyCycles : 0, pod);
    col({"model", "model", kText}, s.model);
    col({"scale", "scale", kInteger}, s.modelScale);
    col({"algorithm", "algorithm", kText}, algorithmName(s.algorithm));
    col({"batch", "batch", kInteger}, r.resolvedBatch);
    col({"microbatch", "microbatch", kInteger}, s.microbatch);
    col({"cycles", "cycles", kInteger}, chip(r.cycles));
    col({"compute_cycles", "compute_cycles", kInteger},
        chip(r.computeCycles));
    col({"allreduce_cycles", "allreduce_cycles", kInteger},
        chip(r.allReduceCycles));
    col({"seconds", "seconds", kReal}, r.seconds);
    col({"utilization", "utilization", kReal}, chip(r.utilization));
    col({"energy_j", "energy_j", kReal}, chip(r.energyJ));
    col({"dram_bytes", "dram_bytes", kInteger}, chip(r.dramBytes));
    col({"postproc_dram_bytes", nullptr, kInteger},
        chip(r.postProcDramBytes));
    col({"engine_power_w", nullptr, kReal}, chip(r.enginePowerW));
    col({"engine_area_mm2", nullptr, kReal}, chip(r.engineAreaMm2));
    col({"error", "error", kText}, r.error, !r.ok());
}

std::string
render(RowWriter::Part part, const ScenarioResult &r)
{
    std::string out;
    columns(RowWriter(out, part), r);
    return out;
}

} // namespace

std::string
csvHeader()
{
    return render(RowWriter::kCsvHeader, ScenarioResult{});
}

std::string
csvRow(const ScenarioResult &r)
{
    return render(RowWriter::kCsvRow, r);
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
    for (std::size_t i = 0; i < report.results.size(); ++i)
        os << (i ? ",\n    {" : "\n    {")
           << render(RowWriter::kJsonFields, report.results[i]) << "}";
    os << "\n  ]\n}\n";
}

} // namespace diva
