/**
 * @file
 * Accelerator configuration: PE-array geometry, dataflow, clock, on-chip
 * SRAM and off-chip memory parameters.
 *
 * The default values reproduce the paper's Table II (DiVa architecture
 * configuration), which is itself modeled after Google TPUv3: a 128x128
 * PE array at 940 MHz, 16 MB of on-chip SRAM, and 450 GB/s of HBM
 * bandwidth with 100-cycle access latency.
 */

#ifndef DIVA_ARCH_ACCELERATOR_CONFIG_H
#define DIVA_ARCH_ACCELERATOR_CONFIG_H

#include <cstddef>
#include <optional>
#include <string>

#include "common/types.h"

namespace diva
{

/** GEMM-engine dataflow families studied in the paper (Sections II-D, IV). */
enum class Dataflow
{
    /** Weight-stationary systolic array (Google TPU style baseline). */
    kWeightStationary,
    /** Output-stationary systolic array. */
    kOutputStationary,
    /** DiVa's outer-product all-to-all broadcast engine (OS-class). */
    kOuterProduct,
};

/** Short human-readable name of a dataflow ("WS", "OS", "DiVa"). */
const char *dataflowName(Dataflow df);

/** The dataflow a dataflowName() spelling names; nullopt otherwise. */
std::optional<Dataflow> dataflowFromName(const std::string &name);

/**
 * Full configuration of one simulated accelerator.
 *
 * Use the factory functions below (tpuV3Ws(), systolicOs(), divaDefault())
 * for the paper's design points; individual fields can then be overridden
 * for sensitivity and ablation studies.
 */
struct AcceleratorConfig
{
    std::string name = "DiVa";
    Dataflow dataflow = Dataflow::kOuterProduct;

    /** PE array height (rows) and width (columns). */
    int peRows = 128;
    int peCols = 128;

    /** Core clock of the GEMM engine and PPU (Table II: 940 MHz). */
    double freqGhz = 0.94;

    /** Unified on-chip SRAM for LHS/RHS/output tiles (Table II: 16 MB). */
    Bytes sramBytes = 16_MiB;

    /** Off-chip (HBM) bandwidth and access latency (Table II). */
    double dramBandwidthGBs = 450.0;
    Cycles dramLatencyCycles = 100;

    /** WS arrays latch this many RHS rows per cycle (Table I: 8). */
    int weightFillRowsPerCycle = 8;

    /**
     * Whether the WS array double-buffers its weight latches so the
     * next tile's RHS fill overlaps the current tile's LHS stream
     * (TPUv1-style weight FIFO). Off by default to match the paper's
     * baseline; exposed for ablation.
     */
    bool wsDoubleBufferWeights = false;

    /**
     * OS-class arrays drain this many output rows per cycle into the
     * SRAM buffer or the PPU (the paper's R parameter; default 8).
     */
    int drainRowsPerCycle = 8;

    /** Whether the post-processing unit (adder trees) is present. */
    bool hasPpu = false;

    /** Input (BF16) and accumulation (FP32) element widths in bytes. */
    int inputBytes = 2;
    int accumBytes = 4;

    /**
     * Vector-unit lanes used for post-processing when no PPU exists
     * (TPUv3 VPU: 128 lanes x 8 sublanes).
     */
    int vectorLanes = 1024;

    /** Peak MAC throughput of the PE array per cycle. */
    Macs macsPerCycle() const { return Macs(peRows) * Macs(peCols); }

    /** Peak TFLOPS (2 FLOPs per MAC). */
    double peakTflops() const
    {
        return 2.0 * double(macsPerCycle()) * freqGhz * 1e9 / 1e12;
    }

    /** DRAM bytes deliverable per core clock cycle. */
    double dramBytesPerCycle() const
    {
        return dramBandwidthGBs * 1e9 / (freqGhz * 1e9);
    }

    /** Convert a cycle count to seconds at the configured clock. */
    double cyclesToSeconds(Cycles c) const
    {
        return double(c) / (freqGhz * 1e9);
    }

    /**
     * Why this configuration is invalid, or an empty string when it is
     * well-formed. Never logs or throws; sweep expansion uses it to
     * probe and silently skip invalid axis combinations.
     */
    std::string validationError() const;

    /** Sanity-check field values; calls DIVA_FATAL on invalid configs. */
    void validate() const;
};

/**
 * Semantic equality: every field compares equal, deliberately
 * including the display name. Sweeps use names to distinguish design
 * points whose simulated fields coincide (e.g. "DiVa R=8" vs the
 * default "DiVa"), so two same-valued configs with different names are
 * different axis points -- they simulate identically but are cached
 * and reported separately.
 */
bool operator==(const AcceleratorConfig &a, const AcceleratorConfig &b);
bool operator!=(const AcceleratorConfig &a, const AcceleratorConfig &b);

/**
 * Canonical hash of a configuration, used as the sweep result-cache
 * key. The hash is a pure function of the field *values*, folded in a
 * fixed canonical sequence independent of the struct's declaration
 * order, so reordering fields in AcceleratorConfig (or assigning them
 * in any order) never changes the hash of a given design point.
 * Consistent with operator==: a == b implies configHash(a) ==
 * configHash(b).
 */
std::size_t configHash(const AcceleratorConfig &cfg);

/** Baseline TPUv3-like weight-stationary systolic array (no PPU). */
AcceleratorConfig tpuV3Ws();

/** Output-stationary systolic array; PPU optional (Figure 13 uses PPU). */
AcceleratorConfig systolicOs(bool with_ppu);

/** DiVa: outer-product GEMM engine, PPU optional (default present). */
AcceleratorConfig divaDefault(bool with_ppu = true);

/**
 * The design point the CLIs name by dataflow and PPU setting:
 * tpuV3Ws(), systolicOs(ppu) or divaDefault(ppu). Without a PPU
 * setting every dataflow but WS gets the PPU. WS has no PPU datapath,
 * so WS with ppu=true keeps hasPpu set and fails validationError():
 * sweeps count it as skipped, single design points report it.
 */
AcceleratorConfig presetConfig(Dataflow df, std::optional<bool> ppu = {});

} // namespace diva

#endif // DIVA_ARCH_ACCELERATOR_CONFIG_H
