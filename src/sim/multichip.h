/**
 * @file
 * Data-parallel multi-chip scaling model. The paper evaluates a single
 * TPUv3-class chip; production DP training runs on pods, where each
 * chip processes a shard of the mini-batch and the per-batch weight
 * gradients are ring-all-reduced over the interconnect before the
 * (noised) update. DP-SGD composes cleanly with data parallelism:
 * per-example clipping is local to the chip that saw the example, and
 * noise is added once after the reduction.
 *
 * Each chip still hits DP-SGD's per-example-gradient memory wall on
 * its shard, so a shard is an ordinary single-chip iteration,
 * micro-batch included: the sweep runner takes its op stream from the
 * PlanCache and prices it with the chip's Executor, and this file
 * composes the pod iteration from that priced shard.
 */

#ifndef DIVA_SIM_MULTICHIP_H
#define DIVA_SIM_MULTICHIP_H

#include "arch/accelerator_config.h"
#include "common/types.h"
#include "models/network.h"
#include "sim/result.h"

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
    Cycles computeCycles = 0;   ///< slowest chip's local iteration
    Cycles allReduceCycles = 0; ///< ring all-reduce of G(W)
    Cycles totalCycles = 0;

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
 * The shard of a `global_batch` mini-batch that the slowest chip of
 * `pod` trains: ceil(global_batch / numChips) examples. Throws
 * std::runtime_error unless global_batch >= numChips.
 */
int shardBatch(int global_batch, const MultiChipConfig &pod);

/**
 * Compose one data-parallel iteration of `net` on `pod` from `shard`,
 * one `chip`'s priced iteration at shardBatch(): every chip runs the
 * shard, then the per-batch weight gradients are ring-all-reduced.
 */
ScalingResult simulateDataParallel(const AcceleratorConfig &chip,
                                   const Network &net,
                                   const SimResult &shard,
                                   const MultiChipConfig &pod);

} // namespace diva

#endif // DIVA_SIM_MULTICHIP_H
