/**
 * @file
 * Data-parallel multi-chip scaling model. The paper evaluates a single
 * TPUv3-class chip; production DP training runs on pods, where each
 * chip processes a shard of the mini-batch and the per-batch weight
 * gradients are ring-all-reduced over the interconnect before the
 * (noised) update. DP-SGD composes cleanly with data parallelism:
 * per-example clipping is local to the chip that saw the example, and
 * noise is added once after the reduction.
 */

#ifndef DIVA_SIM_MULTICHIP_H
#define DIVA_SIM_MULTICHIP_H

#include "arch/accelerator_config.h"
#include "common/types.h"
#include "models/network.h"
#include "train/algorithm.h"

namespace diva
{

/** Pod-level configuration. */
struct MultiChipConfig
{
    /** Largest chip count and link latency the CLIs accept. */
    static constexpr int kMaxChips = 65536;
    static constexpr int kMaxLinkLatencyCycles = 1000000;

    int numChips = 8;
    /** Per-link interconnect bandwidth (TPUv3 ICI class). */
    double interconnectGBs = 70.0;
    /** Per-hop link latency in core cycles. */
    Cycles linkLatencyCycles = 500;
};

/** Outcome of one data-parallel training iteration. */
struct ScalingResult
{
    int numChips = 1;
    int perChipBatch = 0;
    Cycles computeCycles = 0;   ///< slowest chip's local iteration
    Cycles allReduceCycles = 0; ///< ring all-reduce of G(W)
    Cycles totalCycles = 0;

    /**
     * Strong-scaling efficiency: single-chip time at the global batch
     * divided by (numChips x multi-chip time). 1.0 = perfect scaling.
     */
    double efficiency = 0.0;

    /**
     * Pod-level effective FLOPS utilization: the per-chip iteration
     * utilization derated by the all-reduce stall (engines are idle
     * while gradients circulate the ring).
     */
    double utilization = 0.0;

    /**
     * Pod energy per iteration in joules, summed over all chips:
     * per-chip compute/SRAM/DRAM energy, engine power drawn during the
     * all-reduce stall, and the DRAM traffic of streaming each chip's
     * gradient shard out and the reduced gradients back in.
     */
    double energyJ = 0.0;

    /** Pod-wide DRAM traffic, including the gradient-reduce streaming. */
    Bytes dramBytes = 0;

    /** Pod-wide gradient post-processing off-chip traffic. */
    Bytes postProcDramBytes = 0;
};

/**
 * Simulate one data-parallel iteration of `global_batch` examples
 * sharded over the pod. Requires global_batch >= numChips.
 */
ScalingResult simulateDataParallel(const AcceleratorConfig &chip,
                                   const Network &net,
                                   TrainingAlgorithm algo,
                                   int global_batch,
                                   const MultiChipConfig &pod);

} // namespace diva

#endif // DIVA_SIM_MULTICHIP_H
