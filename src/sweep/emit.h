/**
 * @file
 * Deterministic CSV and JSON emitters for sweep reports. Output is a
 * pure function of the results (no timestamps, no wall-clock), so a
 * parallel sweep emits bytes identical to a serial one.
 *
 * The row's columns are declared once, in emit.cc, and render through
 * the RowWriter of common/format.h.
 */

#ifndef DIVA_SWEEP_EMIT_H
#define DIVA_SWEEP_EMIT_H

#include <ostream>
#include <string>

#include "common/format.h"
#include "sweep/runner.h"

namespace diva
{

/** Header matching csvRow()'s columns. */
std::string csvHeader();

/** One RFC-4180 CSV data row for one result. */
std::string csvRow(const ScenarioResult &r);

/** Emit header + one row per result. */
void writeCsv(std::ostream &os, const SweepReport &report);

/**
 * Emit the report's results as JSON. Like the CSV, the output is a
 * pure function of the scenario list (cache accounting is deliberately
 * excluded so reruns against a warm disk cache emit identical bytes).
 */
void writeJson(std::ostream &os, const SweepReport &report);

} // namespace diva

#endif // DIVA_SWEEP_EMIT_H
