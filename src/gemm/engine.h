/**
 * @file
 * Cycle-level GEMM engine model and its result record.
 *
 * One engine models the three dataflows studied in the paper and
 * switches over the configuration's Dataflow: weight-stationary
 * systolic (the TPUv3-like baseline), output-stationary systolic, and
 * DiVa's outer-product broadcast engine. All three share the same DRAM
 * traffic model so that performance differences come from the
 * dataflow, as in the paper.
 */

#ifndef DIVA_GEMM_ENGINE_H
#define DIVA_GEMM_ENGINE_H

#include "arch/accelerator_config.h"
#include "common/types.h"
#include "gemm/gemm_shape.h"
#include "mem/dram_model.h"
#include "mem/sram_buffer.h"

namespace diva
{

/** Per-GEMM execution knobs controlled by the training planner. */
struct GemmOptions
{
    /**
     * Whether the GEMM output is committed to DRAM. Per-example weight
     * gradients that are consumed on-the-fly by the PPU (norm-only use
     * under DP-SGD(R)) never leave the chip, which is the source of the
     * paper's 99% post-processing traffic reduction.
     */
    bool writeOutputToDram = true;

    /** Whether the LHS/RHS operands must be fetched from DRAM. */
    bool lhsFromDram = true;
    bool rhsFromDram = true;
};

/** Outcome of simulating one GEMM (or a batch of identical GEMMs). */
struct GemmResult
{
    /** PE-array occupancy, before overlapping with memory. */
    Cycles computeCycles = 0;

    /** DRAM streaming time for all operand/output traffic. */
    Cycles memoryCycles = 0;

    /** Final latency: max(compute, memory) plus fixed access latency. */
    Cycles cycles = 0;

    /** MACs that contribute to the mathematical result. */
    Macs usefulMacs = 0;

    /** Off-chip traffic. */
    DramTraffic dram;

    /** On-chip SRAM traffic (for the energy model). */
    Bytes sramReadBytes = 0;
    Bytes sramWriteBytes = 0;

    /** Effective FLOPS utilization: useful MACs over peak MACs. */
    double utilization(const AcceleratorConfig &cfg) const
    {
        if (cycles == 0)
            return 0.0;
        return double(usefulMacs) /
               (double(cycles) * double(cfg.macsPerCycle()));
    }

    /** Effective TFLOPS achieved. */
    double effectiveTflops(const AcceleratorConfig &cfg) const
    {
        return utilization(cfg) * cfg.peakTflops();
    }

    GemmResult &operator+=(const GemmResult &o);
};

/**
 * Cycle-level GEMM engine model of cfg.dataflow: the dataflow decides
 * the compute-cycle count and the SRAM port rates; the DRAM traffic
 * model and the compute/memory overlap policy are shared.
 */
class GemmEngineModel
{
  public:
    /** Throws std::runtime_error when `cfg` fails validate(). */
    explicit GemmEngineModel(const AcceleratorConfig &cfg);

    /** Simulate a single GEMM. */
    GemmResult simulate(const GemmShape &shape,
                        const GemmOptions &opt = {}) const;

    /**
     * Simulate `count` independent GEMMs of identical shape (e.g. the
     * B per-example weight-gradient GEMMs of one layer). The GEMMs are
     * assumed to be issued back-to-back so the DRAM access latency is
     * charged once for the whole train.
     */
    GemmResult simulateBatched(const GemmShape &shape, std::uint64_t count,
                               const GemmOptions &opt = {}) const;

    const AcceleratorConfig &config() const { return cfg_; }

  private:
    /**
     * Dataflow-specific PE-array occupancy in cycles for one GEMM,
     * excluding memory stalls. Costs O(1) in the shape: the result
     * equals accumulating every PE-array tile's cycles one by one, but
     * sums the identical full tiles in closed form plus the one
     * remainder tile per axis. SRAM traffic comes from the per-cycle
     * rates below.
     */
    Cycles computeCycles(const GemmShape &shape) const;

    /** Per-cycle SRAM read/write rates of this dataflow (Table I). */
    Bytes sramReadBytesPerCycle() const;
    Bytes sramWriteBytesPerCycle() const;

    AcceleratorConfig cfg_;
    DramModel dram_;
    SramBuffer sram_;
};

} // namespace diva

#endif // DIVA_GEMM_ENGINE_H
