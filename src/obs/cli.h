/**
 * @file
 * Shared observability plumbing for the CLI tools: the flag-table
 * group declaring --metrics-out / --trace-out / --trace-max-events /
 * --timeseries-out / --obs-window-s / --slo-p99-s / --profile /
 * --verbose, one struct holding their values, the switch-on step, and
 * the end-of-run emission of metrics JSON, trace JSON, the timeseries
 * document and the profile table. All three tools (diva_sweep,
 * diva_serve, diva_fleet) funnel through this so the flags mean the
 * same thing everywhere.
 */

#ifndef DIVA_OBS_CLI_H
#define DIVA_OBS_CLI_H

#include <memory>
#include <string>

#include "common/cli.h"
#include "obs/slo.h"
#include "obs/trace.h"

namespace diva
{
namespace obs
{

struct CliObs
{
    std::string metricsOut;    ///< --metrics-out FILE.json
    std::string traceOut;      ///< --trace-out FILE.json
    std::string timeseriesOut; ///< --timeseries-out FILE.{json,csv}
    bool profile = false;      ///< --profile (stderr table)

    /** --obs-window-s W (<= 0: auto, trace span / 64). */
    double obsWindowSec = 0.0;

    /** Raw --slo-p99-s text; parsed and validated by activate(). */
    std::string sloSpecText;

    /** --trace-max-events N (per track; see obs/trace.h). */
    std::size_t traceMaxEvents = TraceSink::kDefaultMaxEventsPerTrack;

    /** Live only between activate() and finish() when tracing is on. */
    std::unique_ptr<TraceSink> sink;

    /** Live only between activate() and finish() when the windowed
     *  telemetry layer is on (--timeseries-out / --slo-p99-s). */
    std::unique_ptr<RunTelemetry> telemetry;

    bool
    any() const
    {
        return !metricsOut.empty() || !traceOut.empty() ||
               !timeseriesOut.empty() || !sloSpecText.empty() ||
               profile;
    }

    /**
     * Validate the parsed flags and flip on whatever they ask for:
     * the metrics registry, the profiler, the trace sink
     * (--trace-out) and the telemetry bundle (--timeseries-out /
     * --slo-p99-s). Every output path is probed for writability here,
     * so a bad path fails fast at startup -- false means a clear
     * message already went to stderr and the tool should exit
     * non-zero. Call once, after argument parsing, before the
     * simulation.
     */
    bool activate();

    /**
     * Emit everything that was collected: metrics JSON to
     * `metricsOut`, trace JSON to `traceOut`, the timeseries document
     * to `timeseriesOut` (CSV when the path ends in .csv, JSON
     * otherwise), the SLO attainment summary and the profile table to
     * stderr. Returns false (with a DIVA_WARN naming the file) if
     * any requested output could not be written.
     */
    bool finish();
};

/** The shared telemetry flags, plus --verbose, as one table group. */
cli::FlagGroup cliObsFlags(CliObs &obs, bool &verbose);

} // namespace obs
} // namespace diva

#endif // DIVA_OBS_CLI_H
