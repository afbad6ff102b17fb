#include "gemm/os_systolic.h"

#include "common/logging.h"

namespace diva
{

OsSystolicModel::OsSystolicModel(const AcceleratorConfig &cfg)
    : GemmEngineModel(cfg)
{
    DIVA_ASSERT(cfg.dataflow == Dataflow::kOutputStationary);
}

Cycles
OsSystolicModel::computeCycles(const GemmShape &shape) const
{
    const std::int64_t pe_h = cfg_.peRows;
    const std::int64_t pe_w = cfg_.peCols;
    const std::int64_t drain = cfg_.drainRowsPerCycle;

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

Bytes
OsSystolicModel::sramReadBytesPerCycle() const
{
    // Table I: one LHS vector (PE_H) and one RHS vector (PE_W) per
    // cycle, both 2B elements.
    return Bytes(cfg_.peRows) * cfg_.inputBytes +
           Bytes(cfg_.peCols) * cfg_.inputBytes;
}

Bytes
OsSystolicModel::sramWriteBytesPerCycle() const
{
    // Table I: R output rows of PE_W elements drained per cycle, 4B.
    return Bytes(cfg_.peCols) * cfg_.drainRowsPerCycle * cfg_.accumBytes;
}

} // namespace diva
