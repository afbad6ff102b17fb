#include "gemm/ws_systolic.h"

#include <algorithm>

#include "common/logging.h"

namespace diva
{

WsSystolicModel::WsSystolicModel(const AcceleratorConfig &cfg)
    : GemmEngineModel(cfg)
{
    DIVA_ASSERT(cfg.dataflow == Dataflow::kWeightStationary);
}

Cycles
WsSystolicModel::computeCycles(const GemmShape &shape) const
{
    const std::int64_t pe_h = cfg_.peRows;
    const std::int64_t pe_w = cfg_.peCols;
    const std::int64_t fill = cfg_.weightFillRowsPerCycle;

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
    if (cfg_.wsDoubleBufferWeights) {
        // Double-buffered latches hide each fill behind the previous
        // tile's stream; only the first fill stays exposed. A fill of
        // ceil(kt/fill) <= kt cycles never outlasts a stream.
        return streams + Cycles(ceilDiv(std::min(pe_h, shape.k), fill));
    }
    const Cycles latches = tn * ((tk - 1) * Cycles(ceilDiv(pe_h, fill)) +
                                 Cycles(ceilDiv(last_k, fill)));
    return streams + latches;
}

Bytes
WsSystolicModel::sramReadBytesPerCycle() const
{
    // Table I: LHS stream PE_H x 2B plus weight fill PE_W x 8 x 2B.
    return Bytes(cfg_.peRows) * cfg_.inputBytes +
           Bytes(cfg_.peCols) * cfg_.weightFillRowsPerCycle *
               cfg_.inputBytes;
}

Bytes
WsSystolicModel::sramWriteBytesPerCycle() const
{
    // Table I: one output row of PE_W elements per cycle, 4B each.
    return Bytes(cfg_.peCols) * cfg_.accumBytes;
}

} // namespace diva
