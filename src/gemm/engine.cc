#include "gemm/engine.h"

#include <algorithm>

#include "common/logging.h"
#include "gemm/traffic_model.h"

namespace diva
{

namespace
{

/**
 * Weight-stationary systolic array (TPUv3-like baseline).
 *
 * The RHS ("weight") matrix is latched into the array in (peRows x
 * peCols) tiles at weightFillRowsPerCycle rows per cycle; the LHS is
 * then streamed from the left edge with diagonal skew. A K-dimension
 * tile smaller than peRows latches only part of the array, leaving the
 * remaining PE rows idle for the whole stream -- the paper's root cause
 * for DP-SGD's low utilization (Sections II-D, III-C).
 */
Cycles
wsComputeCycles(const AcceleratorConfig &cfg, const GemmShape &shape)
{
    const std::int64_t pe_h = cfg.peRows;
    const std::int64_t pe_w = cfg.peCols;
    const std::int64_t fill = cfg.weightFillRowsPerCycle;

    const std::int64_t tiles_k = ceilDiv(shape.k, pe_h);
    const std::int64_t tiles_n = ceilDiv(shape.n, pe_w);
    const std::int64_t last_k = shape.k - (tiles_k - 1) * pe_h;

    // Each (kt x nt) weight tile is latched in ceil(kt/fill) cycles,
    // then all M LHS rows stream through it in M + kt + nt - 1 cycles
    // due to the diagonal input/output skew (Figure 3(c):
    // M + K + PE_W - 1). Over the tile grid the kt terms add up to K
    // per tile column and the nt terms to N per tile row. Unsigned
    // products wrap exactly as a per-tile running sum would.
    const Cycles tk = Cycles(tiles_k);
    const Cycles tn = Cycles(tiles_n);
    const Cycles streams = tk * tn * (Cycles(shape.m) - 1) +
                           tn * Cycles(shape.k) + tk * Cycles(shape.n);
    if (cfg.wsDoubleBufferWeights) {
        // Double-buffered latches hide each fill behind the previous
        // tile's stream; only the first fill stays exposed. A fill of
        // ceil(kt/fill) <= kt cycles never outlasts a stream.
        return streams + Cycles(ceilDiv(std::min(pe_h, shape.k), fill));
    }
    const Cycles latches = tn * ((tk - 1) * Cycles(ceilDiv(pe_h, fill)) +
                                 Cycles(ceilDiv(last_k, fill)));
    return streams + latches;
}

/**
 * Output-stationary systolic array.
 *
 * Each PE owns one output element; LHS and RHS vectors stream in from
 * the left and top edges with diagonal skew and partial sums accumulate
 * locally. After the K-dimension is exhausted the latched outputs are
 * drained row-by-row (optionally straight into the PPU, Section IV-C).
 * Like WS, a small K dimension is dominated by the skew overhead, so OS
 * alone does not fix DP-SGD's per-example gradient GEMMs.
 */
Cycles
osComputeCycles(const AcceleratorConfig &cfg, const GemmShape &shape)
{
    const std::int64_t pe_h = cfg.peRows;
    const std::int64_t pe_w = cfg.peCols;
    const std::int64_t drain = cfg.drainRowsPerCycle;

    const std::int64_t tiles_m = ceilDiv(shape.m, pe_h);
    const std::int64_t tiles_n = ceilDiv(shape.n, pe_w);
    const std::int64_t last_m = shape.m - (tiles_m - 1) * pe_h;

    // Figure 3(b): an (mt x nt) tile's skewed LHS/RHS streams take
    // K + mt + nt - 1 cycles to produce the final partial sum; the
    // latched outputs must then drain for ceil(mt/R) cycles before the
    // PEs can start the next tile's accumulation. Over the tile grid
    // the mt terms add up to M per tile column and the nt terms to N
    // per tile row; only the drain needs the full/remainder split.
    // Unsigned products wrap exactly as a per-tile running sum would.
    const Cycles tm = Cycles(tiles_m);
    const Cycles tn = Cycles(tiles_n);
    const Cycles drain_per_column =
        (tm - 1) * Cycles(ceilDiv(pe_h, drain)) +
        Cycles(ceilDiv(last_m, drain));
    return tm * tn * (Cycles(shape.k) - 1) +
           tn * (Cycles(shape.m) + drain_per_column) +
           tm * Cycles(shape.n);
}

/**
 * DiVa's outer-product engine (Section IV-B).
 *
 * Each cycle, one LHS column (length M) and one RHS row (length N) are
 * broadcast over per-row / per-column local buses and multiplied
 * all-to-all, producing a full M x N partial-sum update. A (M,K,N) GEMM
 * tile therefore takes exactly K cycles of accumulation regardless of
 * K's size -- the engine always performs peRows x peCols MACs per cycle
 * on full tiles, which is what makes it robust to the tall-skinny
 * per-example weight-gradient GEMMs of DP-SGD.
 */
Cycles
outerProductComputeCycles(const AcceleratorConfig &cfg,
                          const GemmShape &shape)
{
    const std::int64_t pe_h = cfg.peRows;
    const std::int64_t pe_w = cfg.peCols;
    const std::int64_t drain = cfg.drainRowsPerCycle;

    const std::int64_t tiles_m = ceilDiv(shape.m, pe_h);
    const std::int64_t tiles_n = ceilDiv(shape.n, pe_w);
    const std::int64_t last_m = shape.m - (tiles_m - 1) * pe_h;

    // Broadcast over the local buses has a short, constant pipeline
    // fill (bus drive + multiply + accumulate register).
    constexpr Cycles kPipelineFill = 2;

    // K vector pairs streamed, one per cycle; no skew. The
    // R-rows-per-cycle drain proceeds progressively, so the next
    // tile's accumulation overlaps the drain in rows that have already
    // been read out: an mt-row tile costs max(K, drain-time) rather
    // than their sum. The cost ignores nt, so each tile row holds
    // tiles_m - 1 full tiles and one remainder tile.
    const auto tile = [&](std::int64_t mt) {
        return std::max(Cycles(shape.k), Cycles(ceilDiv(mt, drain))) +
               kPipelineFill;
    };
    return Cycles(tiles_n) *
           ((Cycles(tiles_m) - 1) * tile(pe_h) + tile(last_m));
}

} // namespace

GemmResult &
GemmResult::operator+=(const GemmResult &o)
{
    computeCycles += o.computeCycles;
    memoryCycles += o.memoryCycles;
    cycles += o.cycles;
    usefulMacs += o.usefulMacs;
    dram += o.dram;
    sramReadBytes += o.sramReadBytes;
    sramWriteBytes += o.sramWriteBytes;
    return *this;
}

GemmEngineModel::GemmEngineModel(const AcceleratorConfig &cfg)
    : cfg_(cfg), dram_(cfg), sram_(cfg)
{
    cfg_.validate();
}

GemmResult
GemmEngineModel::simulate(const GemmShape &shape,
                          const GemmOptions &opt) const
{
    return simulateBatched(shape, 1, opt);
}

GemmResult
GemmEngineModel::simulateBatched(const GemmShape &shape,
                                 std::uint64_t count,
                                 const GemmOptions &opt) const
{
    DIVA_ASSERT(shape.valid(), "invalid GEMM shape ", shape.str());
    if (count == 0)
        return {};

    GemmResult r;
    r.computeCycles = computeCycles(shape) * count;
    r.usefulMacs = shape.macs() * count;

    DramTraffic per_gemm =
        gemmDramTraffic(shape, sram_, cfg_.inputBytes, cfg_.accumBytes,
                        opt);
    r.dram.readBytes = per_gemm.readBytes * count;
    r.dram.writeBytes = per_gemm.writeBytes * count;
    r.memoryCycles = dram_.streamingCycles(r.dram.total());

    // Double-buffered operand staging lets compute overlap the DRAM
    // streams; the GEMM finishes when the slower of the two is done,
    // plus one exposed access latency for the leading tile.
    r.cycles = std::max(r.computeCycles, r.memoryCycles) +
               cfg_.dramLatencyCycles;

    // On-chip traffic runs at the dataflow's per-cycle port rates for
    // the duration of the compute phase (Table I).
    r.sramReadBytes = sramReadBytesPerCycle() * r.computeCycles;
    r.sramWriteBytes = sramWriteBytesPerCycle() * r.computeCycles;
    return r;
}

Cycles
GemmEngineModel::computeCycles(const GemmShape &shape) const
{
    switch (cfg_.dataflow) {
      case Dataflow::kWeightStationary:
        return wsComputeCycles(cfg_, shape);
      case Dataflow::kOutputStationary:
        return osComputeCycles(cfg_, shape);
      case Dataflow::kOuterProduct:
        return outerProductComputeCycles(cfg_, shape);
    }
    DIVA_PANIC("unknown dataflow");
}

Bytes
GemmEngineModel::sramReadBytesPerCycle() const
{
    switch (cfg_.dataflow) {
      case Dataflow::kWeightStationary:
        // Table I: LHS stream PE_H x 2B plus weight fill PE_W x 8 x 2B.
        return Bytes(cfg_.peRows) * cfg_.inputBytes +
               Bytes(cfg_.peCols) * cfg_.weightFillRowsPerCycle *
                   cfg_.inputBytes;
      case Dataflow::kOutputStationary:
        // Table I: one LHS vector (PE_H) and one RHS vector (PE_W) per
        // cycle, both 2B elements.
      case Dataflow::kOuterProduct:
        // Two input vectors per cycle: O(PE_H + PE_W), same as systolic
        // OS (Table I / Section IV-D).
        return Bytes(cfg_.peRows) * cfg_.inputBytes +
               Bytes(cfg_.peCols) * cfg_.inputBytes;
    }
    DIVA_PANIC("unknown dataflow");
}

Bytes
GemmEngineModel::sramWriteBytesPerCycle() const
{
    switch (cfg_.dataflow) {
      case Dataflow::kWeightStationary:
        // Table I: one output row of PE_W elements per cycle, 4B each.
        return Bytes(cfg_.peCols) * cfg_.accumBytes;
      case Dataflow::kOutputStationary:
        // Table I: R output rows of PE_W elements drained per cycle, 4B.
      case Dataflow::kOuterProduct:
        return Bytes(cfg_.peCols) * cfg_.drainRowsPerCycle *
               cfg_.accumBytes;
    }
    DIVA_PANIC("unknown dataflow");
}

} // namespace diva
