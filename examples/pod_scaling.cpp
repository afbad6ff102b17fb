/**
 * @file
 * Data-parallel pod scaling study: shard a DP-SGD(R) mini-batch over
 * 1..32 chips and report per-iteration latency, all-reduce cost and
 * strong-scaling efficiency on the WS baseline vs DiVa -- the natural
 * "what happens on a pod" follow-up to the paper's single-chip
 * evaluation.
 *
 * The pod points run as ordinary sweep scenarios on the pod backend
 * (SweepBackend::kMultiChip, evaluated by runScenario() in
 * src/sweep/runner.cc), so the chip-count axis is simulated on the
 * runner's worker pool with one shared workload plan: every point
 * shares one network, and each chip count's shard stream comes from
 * the runner's PlanCache, shared by the WS and DiVa points, instead
 * of being rebuilt per point.
 *
 * Usage: pod_scaling [model-name] [global-batch]
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/table.h"
#include "common/types.h"
#include "sweep/runner.h"
#include "sweep/spec.h"

using namespace diva;

int
main(int argc, char **argv)
{
    const std::string wanted = argc > 1 ? argv[1] : "ResNet-152";
    const int global_batch = argc > 2 ? std::atoi(argv[2]) : 512;
    bool found = false;
    for (const std::string &m : knownModels())
        found = found || m == wanted;
    if (!found || global_batch <= 0) {
        std::printf("usage: pod_scaling [model-name] [global-batch]\n");
        return 1;
    }

    std::vector<int> chip_counts;
    for (int chips : {1, 2, 4, 8, 16, 32})
        if (chips <= global_batch)
            chip_counts.push_back(chips);

    SweepSpec spec;
    spec.configs = {tpuV3Ws(), divaDefault(true)};
    spec.models = {wanted};
    spec.algorithms = {TrainingAlgorithm::kDpSgdR};
    spec.batches = {global_batch};
    spec.backends = {SweepBackend::kMultiChip};
    for (int chips : chip_counts) {
        MultiChipConfig pod;
        pod.numChips = chips;
        spec.pods.push_back(pod);
    }

    SweepOptions opts;
    opts.threads = 4;
    SweepRunner runner(opts);
    const SweepReport report = runner.run(spec);
    if (report.failures ||
        report.results.size() != 2 * chip_counts.size()) {
        std::printf("pod sweep failed (%zu failures)\n",
                    report.failures);
        return 1;
    }
    // Axis-major expansion: WS rows first, then the DiVa rows.
    const std::size_t n = chip_counts.size();
    const auto ws = [&](std::size_t i) { return report.results[i]; };
    const auto dv = [&](std::size_t i) {
        return report.results[n + i];
    };

    std::printf("%s, DP-SGD(R), global mini-batch %d, TPUv3-class ICI "
                "(70 GB/s per link)\n\n",
                wanted.c_str(), global_batch);
    TextTable table({"chips", "per-chip B", "WS cycles", "DiVa cycles",
                     "DiVa allreduce", "DiVa efficiency",
                     "DiVa speedup"});
    for (std::size_t i = 0; i < n; ++i) {
        const int chips = chip_counts[i];
        // Strong-scaling efficiency vs the 1-chip pod of the same
        // design point (whose iteration has no all-reduce).
        const double efficiency = double(dv(0).cycles) /
                                  (double(chips) * double(dv(i).cycles));
        table.addRow(
            {std::to_string(chips),
             std::to_string(ceilDiv(global_batch, chips)),
             std::to_string(ws(i).cycles), std::to_string(dv(i).cycles),
             std::to_string(dv(i).allReduceCycles),
             TextTable::fmtPct(efficiency),
             TextTable::fmtX(double(ws(i).cycles) /
                             double(dv(i).cycles))});
    }
    table.print(std::cout);
    std::printf("\nNote: per-example clipping is chip-local, so DP-SGD "
                "composes with data parallelism without extra "
                "communication; only the reduced G(W) crosses the "
                "interconnect, after which noise is added once.\n");
    return 0;
}
