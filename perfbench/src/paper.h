/**
 * @file
 * Paper fidelity: the Figure 13 / Figure 16 protocol points (every zoo
 * model, DP-SGD(R), the auto batch, the default input scale, on the WS
 * baseline and on DiVa with its PPU) and the model's error against the
 * paper's averages: 3.6x speedup and 2.6x energy saving over WS.
 */

#ifndef PERFBENCH_PAPER_H
#define PERFBENCH_PAPER_H

#include <string>
#include <vector>

#include "report.h"
#include "sweep/scenario.h"

namespace perfbench
{

/** The WS and the DiVa+PPU protocol point of every zoo model. */
std::vector<diva::Scenario> paperPoints();

/**
 * Find the protocol points among `results` (by canonical key), fold the
 * per-model speedups and energy savings, the two error metrics and
 * their per-model per-layer metrics into `run`, and print the
 * comparison with the paper. Returns "" or why the points were missing.
 */
std::string addPaperFidelity(const std::vector<diva::ScenarioResult> &results,
                             Run &run);

/** Price paperPoints() on a fresh runner and add their fidelity. */
void pricePaperFidelity(Run &run);

} // namespace perfbench

#endif // PERFBENCH_PAPER_H
