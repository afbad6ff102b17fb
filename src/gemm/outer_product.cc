#include "gemm/outer_product.h"

#include <algorithm>

#include "common/logging.h"

namespace diva
{

OuterProductModel::OuterProductModel(const AcceleratorConfig &cfg)
    : GemmEngineModel(cfg)
{
    DIVA_ASSERT(cfg.dataflow == Dataflow::kOuterProduct);
}

Cycles
OuterProductModel::computeCycles(const GemmShape &shape) const
{
    const std::int64_t pe_h = cfg_.peRows;
    const std::int64_t pe_w = cfg_.peCols;
    const std::int64_t drain = cfg_.drainRowsPerCycle;

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

Bytes
OuterProductModel::sramReadBytesPerCycle() const
{
    // Two input vectors per cycle: O(PE_H + PE_W), same as systolic OS
    // (Table I / Section IV-D).
    return Bytes(cfg_.peRows) * cfg_.inputBytes +
           Bytes(cfg_.peCols) * cfg_.inputBytes;
}

Bytes
OuterProductModel::sramWriteBytesPerCycle() const
{
    return Bytes(cfg_.peCols) * cfg_.drainRowsPerCycle * cfg_.accumBytes;
}

} // namespace diva
