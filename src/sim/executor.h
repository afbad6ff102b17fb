/**
 * @file
 * The executor maps a training op stream onto one accelerator
 * configuration, producing per-stage cycle counts, utilization and
 * off-chip traffic.
 *
 * Dispatch policy (Sections III-C and IV-C of the paper):
 *   - GEMM ops run on the configured GEMM engine model.
 *   - Per-example weight gradients are committed to DRAM only when a
 *     later consumer needs them: always under vanilla DP-SGD (for the
 *     clip stage), and under DP-SGD(R) only when no PPU exists (the
 *     vector unit must re-read them for norm derivation).
 *   - Gradient norms run on the PPU (on-the-fly, no traffic) when
 *     present, otherwise on the vector unit against spilled tensors.
 *   - Clip/reduce/noise run on the vector unit (or PPU reduction
 *     datapath) and are memory-bandwidth bound.
 */

#ifndef DIVA_SIM_EXECUTOR_H
#define DIVA_SIM_EXECUTOR_H

#include <optional>

#include "arch/accelerator_config.h"
#include "gemm/engine.h"
#include "mem/dram_model.h"
#include "ppu/ppu_model.h"
#include "ppu/vector_unit.h"
#include "sim/result.h"
#include "sim/trace.h"
#include "train/op.h"

namespace diva
{

/** Simulates op streams on one accelerator configuration. */
class Executor
{
  public:
    explicit Executor(const AcceleratorConfig &cfg);

    /**
     * Simulate one training iteration. An op's cost depends only on
     * the op, the stream's algorithm and the configuration, so each
     * class of the stream's class table is priced once and added
     * count times; every accumulated field is an integer, so the
     * result is exactly the per-op sum. When `trace` is non-null, a
     * latency/traffic record is appended for every op, in op order,
     * from its class's cost. A stream whose class table does not
     * cover its ops (one never passed through indexOpClasses()) is
     * an error.
     */
    SimResult run(const OpStream &stream, Trace *trace = nullptr) const;

    const AcceleratorConfig &config() const { return cfg_; }

  private:
    /** What one op costs; all of it falls in the op's stage. */
    struct OpCost
    {
        Cycles cycles = 0;
        Macs macs = 0;
        DramTraffic dram;
        Bytes sramReadBytes = 0;
        Bytes sramWriteBytes = 0;
        /** Share of the traffic that is gradient post-processing. */
        DramTraffic postProcessingDram;
    };

    OpCost price(const Op &op, TrainingAlgorithm algo) const;
    OpCost runGemm(const Op &op, TrainingAlgorithm algo) const;
    OpCost runGradNorm(const Op &op) const;
    OpCost runGradClip(const Op &op) const;
    OpCost runGradReduce(const Op &op) const;
    OpCost runNoiseAdd(const Op &op) const;

    /** Whether per-example gradient GEMM outputs must go to DRAM. */
    bool spillPerExampleGrads(TrainingAlgorithm algo) const;

    /** The cost of a memory-bound post-processing phase. */
    OpCost postProcCost(Cycles compute, Bytes read, Bytes write) const;

    AcceleratorConfig cfg_;
    GemmEngineModel engine_;
    DramModel dram_;
    std::optional<PpuModel> ppu_;
    VectorUnitModel vectorUnit_;
};

} // namespace diva

#endif // DIVA_SIM_EXECUTOR_H
