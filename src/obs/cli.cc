#include "obs/cli.h"

#include <fstream>
#include <iostream>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/profile.h"

namespace diva
{
namespace obs
{

namespace
{

/**
 * Fail fast on unwritable output paths: probe with an append-mode
 * open (never truncates what is already there) so the tool can exit
 * with a clear message at startup instead of silently losing the
 * output after a long run.
 */
bool
probeWritable(const std::string &path, const char *flag)
{
    if (path.empty())
        return true;
    std::ofstream probe(path, std::ios::app);
    if (!probe) {
        std::cerr << "error: " << flag << " path '" << path
                  << "' is not writable\n";
        return false;
    }
    return true;
}

} // namespace

bool
CliObs::activate()
{
    if (!probeWritable(metricsOut, "--metrics-out") ||
        !probeWritable(traceOut, "--trace-out") ||
        !probeWritable(timeseriesOut, "--timeseries-out"))
        return false;
    SloSpec slo;
    if (!sloSpecText.empty()) {
        std::string err;
        if (!parseSloSpec(sloSpecText, &slo, &err)) {
            std::cerr << "error: " << err << "\n";
            return false;
        }
    }
    if (!metricsOut.empty())
        MetricsRegistry::instance().enable(true);
    if (profile)
        Profiler::instance().enable(true);
    if (!traceOut.empty())
        sink = std::make_unique<TraceSink>(traceMaxEvents);
    if (!timeseriesOut.empty() || slo.enabled() ||
        obsWindowSec > 0.0) {
        telemetry = std::make_unique<RunTelemetry>();
        telemetry->windowSec = obsWindowSec;
        telemetry->slo = slo;
    }
    return true;
}

bool
CliObs::finish()
{
    bool ok = true;
    if (!metricsOut.empty()) {
        // Cap-induced trace loss belongs in the metrics snapshot too,
        // so it is visible without opening the trace file.
        if (sink) {
            auto &metrics = MetricsRegistry::instance();
            metrics.addCounter("trace.dropped_events",
                               sink->dropped());
            for (const auto &[name, droppedCount] :
                 sink->droppedByTrack())
                metrics.addCounter(
                    "trace.track." + name + ".dropped_events",
                    droppedCount);
        }
        std::ofstream os(metricsOut);
        if (os)
            MetricsRegistry::instance().snapshot().writeJson(os);
        if (!os) {
            DIVA_WARN("could not write metrics to ", metricsOut);
            ok = false;
        }
    }
    if (!traceOut.empty() && sink) {
        std::ofstream os(traceOut);
        if (os)
            sink->write(os);
        if (!os) {
            DIVA_WARN("could not write trace to ", traceOut);
            ok = false;
        }
    }
    if (telemetry && !timeseriesOut.empty()) {
        const bool csv =
            timeseriesOut.size() >= 4 &&
            timeseriesOut.compare(timeseriesOut.size() - 4, 4,
                                  ".csv") == 0;
        std::ofstream os(timeseriesOut);
        if (os) {
            if (csv)
                telemetry->writeCsv(os);
            else
                telemetry->writeJson(os);
        }
        if (!os) {
            DIVA_WARN("could not write timeseries to ", timeseriesOut);
            ok = false;
        }
    }
    if (telemetry)
        telemetry->printSloSummary(std::cerr);
    if (profile)
        Profiler::instance().writeTable(std::cerr);
    return ok;
}

cli::FlagGroup
cliObsFlags(CliObs &obs, bool &verbose)
{
    return {
        "Observability (all optional; no effect on results)",
        {{"--metrics-out", "FILE",
          "write a deterministic counters/gauges/histograms snapshot "
          "(diva-metrics-v2 JSON; histograms keep 16 sub-buckets per "
          "octave, <= 6.25% over exact)",
          cli::text(obs.metricsOut)},
         {"--trace-out", "FILE",
          "write a sim-time Chrome/Perfetto trace (JSON; open in "
          "ui.perfetto.dev)",
          cli::text(obs.traceOut)},
         {"--trace-max-events", "N",
          "per-track event cap for --trace-out (default 1048576; excess "
          "is counted as droppedEvents)",
          cli::set(obs.traceMaxEvents, cli::integer<std::size_t>(1))},
         {"--timeseries-out", "FILE",
          "write windowed sim-time telemetry (diva-timeseries-v1; CSV "
          "when FILE ends in .csv, JSON otherwise)",
          cli::text(obs.timeseriesOut)},
         {"--obs-window-s", "W",
          "telemetry window width in simulated seconds (default: trace "
          "span / 64; the span must fit in < 2^53 windows)",
          cli::set(obs.obsWindowSec, cli::real(0.0))},
         {"--slo-p99-s", "SPEC",
          "p99 step-latency target: seconds (global) and/or "
          "prio:seconds pairs, comma-separated (e.g. \"0.5,1:0.2\"); "
          "enables the per-window attainment report",
          cli::text(obs.sloSpecText)},
         {"--profile", "", "wall-clock phase table on stderr",
          cli::toggle(obs.profile)},
         {"--verbose", "", "extra stderr progress notes",
          cli::toggle(verbose)}}};
}

} // namespace obs
} // namespace diva
