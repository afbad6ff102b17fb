#include "sim/multichip.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "energy/energy_model.h"

namespace diva
{

int
shardBatch(int global_batch, const MultiChipConfig &pod)
{
    DIVA_ASSERT(pod.numChips >= 1);
    if (global_batch < pod.numChips)
        DIVA_FATAL("global batch ", global_batch,
                   " cannot shard over ", pod.numChips, " chips");
    return ceilDiv(global_batch, pod.numChips);
}

ScalingResult
simulateDataParallel(const AcceleratorConfig &chip, const Network &net,
                     const SimResult &shard, const MultiChipConfig &pod)
{
    DIVA_ASSERT(pod.numChips >= 1);
    ScalingResult result;
    // The slowest chip carries the ceil-sized shard.
    result.computeCycles = shard.totalCycles();

    const double grad_bytes = double(net.paramCount()) * 4.0;
    if (pod.numChips > 1) {
        // Ring all-reduce of the FP32 per-batch weight gradients:
        // each chip sends 2*(N-1)/N of |G(W)| over its link.
        const double wire_bytes = 2.0 *
                                  double(pod.numChips - 1) /
                                  double(pod.numChips) * grad_bytes;
        const double bytes_per_cycle =
            pod.interconnectGBs * 1e9 / (chip.freqGhz * 1e9);
        result.allReduceCycles =
            Cycles(std::ceil(wire_bytes / bytes_per_cycle)) +
            Cycles(2 * (pod.numChips - 1)) * pod.linkLatencyCycles;
    }
    result.totalCycles = result.computeCycles + result.allReduceCycles;

    // Pod-level utilization, traffic, and energy. Every chip runs the
    // same shard, so pod totals are numChips times the per-chip result
    // plus the all-reduce contributions: each chip streams its
    // gradients out to the link and the reduced gradients back (2*|G|
    // of DRAM traffic), and its engine keeps drawing power while
    // stalled on the ring.
    const double chips = double(pod.numChips);
    result.utilization =
        result.totalCycles == 0
            ? 0.0
            : shard.overallUtilization(chip) *
                  double(result.computeCycles) /
                  double(result.totalCycles);
    Bytes per_chip_dram = shard.totalDram().total();
    double pod_energy = chips * EnergyModel::energy(shard, chip).total();
    if (pod.numChips > 1) {
        const Bytes reduce_dram = Bytes(2.0 * grad_bytes);
        per_chip_dram += reduce_dram;
        pod_energy += chips * EnergyModel::kDramJoulesPerByte *
                      double(reduce_dram);
        pod_energy += chips * EnergyModel::enginePowerW(chip) *
                      chip.cyclesToSeconds(result.allReduceCycles);
    }
    result.dramBytes = Bytes(chips) * per_chip_dram;
    result.energyJ = pod_energy;
    result.postProcDramBytes =
        Bytes(chips) * shard.postProcessingDram.total();
    return result;
}

} // namespace diva
