/**
 * @file
 * Unit tests for the GEMM engine's three dataflow cycle models,
 * checking the dataflow-specific behaviors the paper builds its case on
 * and that each closed-form cycle count equals its per-tile sum.
 */

#include <algorithm>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "arch/accelerator_config.h"
#include "gemm/engine.h"

namespace diva
{
namespace
{

GemmResult
simulate(const AcceleratorConfig &cfg, const GemmShape &shape,
         std::uint64_t count = 1, GemmOptions opt = {})
{
    return GemmEngineModel(cfg).simulateBatched(shape, count, opt);
}

TEST(Engines, UsefulMacsIndependentOfEngine)
{
    const GemmShape s(300, 70, 500);
    const Macs expected = s.macs();
    EXPECT_EQ(simulate(tpuV3Ws(), s).usefulMacs, expected);
    EXPECT_EQ(simulate(systolicOs(false), s).usefulMacs, expected);
    EXPECT_EQ(simulate(divaDefault(), s).usefulMacs, expected);
}

TEST(Engines, UtilizationNeverExceedsOne)
{
    const GemmShape shapes[] = {
        {128, 128, 128}, {4096, 4096, 4096}, {1024, 1, 1024},
        {1, 1024, 1},    {17, 3, 999},
    };
    for (const auto &cfg :
         {tpuV3Ws(), systolicOs(false), divaDefault()}) {
        for (const auto &s : shapes) {
            const GemmResult r = simulate(cfg, s);
            EXPECT_LE(r.utilization(cfg), 1.0)
                << cfg.name << " " << s.str();
            EXPECT_GT(r.cycles, 0u);
        }
    }
}

TEST(Engines, BatchedCountZeroIsEmpty)
{
    const GemmResult r = simulate(divaDefault(), GemmShape(8, 8, 8), 0);
    EXPECT_EQ(r.cycles, 0u);
    EXPECT_EQ(r.usefulMacs, 0u);
}

TEST(Engines, BatchedScalesCompute)
{
    const GemmShape s(256, 64, 256);
    const GemmResult one = simulate(divaDefault(), s, 1);
    const GemmResult ten = simulate(divaDefault(), s, 10);
    EXPECT_EQ(ten.computeCycles, 10 * one.computeCycles);
    EXPECT_EQ(ten.usefulMacs, 10 * one.usefulMacs);
    EXPECT_EQ(ten.dram.total(), 10 * one.dram.total());
}

TEST(Engines, InvalidShapeRejected)
{
    EXPECT_THROW(simulate(divaDefault(), GemmShape(0, 1, 1)),
                 std::logic_error);
}

TEST(WsSystolic, SmallKLeavesArrayIdle)
{
    // The paper's WS pathology: K=1 latches one of 128 PE rows, so
    // utilization cannot exceed 1/128 even before other overheads.
    const AcceleratorConfig cfg = tpuV3Ws();
    GemmOptions opt;
    opt.writeOutputToDram = false; // isolate compute behaviour
    const GemmResult r =
        simulate(cfg, GemmShape(4096, 1, 128), 1, opt);
    EXPECT_LE(r.utilization(cfg), 1.0 / 128.0 + 1e-9);
}

TEST(WsSystolic, LargeSquareGemmIsEfficient)
{
    const AcceleratorConfig cfg = tpuV3Ws();
    const GemmResult r = simulate(cfg, GemmShape(4096, 4096, 4096));
    EXPECT_GT(r.utilization(cfg), 0.5);
}

TEST(WsSystolic, ComputeCyclesCoverWeightFill)
{
    // A (1,K,1) GEMM is dominated by latching K/8 weight rows.
    const AcceleratorConfig cfg = tpuV3Ws();
    GemmOptions opt;
    opt.writeOutputToDram = false;
    const GemmResult r128 =
        simulate(cfg, GemmShape(1, 128, 1), 1, opt);
    // 16 fill cycles + 1 + 128 + 1 - 1 stream cycles.
    EXPECT_EQ(r128.computeCycles, 16u + 129u);
}

TEST(WsSystolic, DoubleBufferedWeightsNeverSlower)
{
    AcceleratorConfig dbuf = tpuV3Ws();
    dbuf.wsDoubleBufferWeights = true;
    const GemmShape shapes[] = {
        {128, 128, 128}, {1024, 1024, 1024}, {512, 1, 512},
        {64, 4096, 64},
    };
    GemmOptions opt;
    opt.writeOutputToDram = false;
    for (const auto &s : shapes) {
        const Cycles plain =
            simulate(tpuV3Ws(), s, 1, opt).computeCycles;
        const Cycles overlapped =
            simulate(dbuf, s, 1, opt).computeCycles;
        EXPECT_LE(overlapped, plain) << s.str();
    }
    // Multi-K-tile GEMMs must see a strict improvement.
    const Cycles plain =
        simulate(tpuV3Ws(), GemmShape(64, 4096, 64), 1, opt)
            .computeCycles;
    const Cycles overlapped =
        simulate(dbuf, GemmShape(64, 4096, 64), 1, opt).computeCycles;
    EXPECT_LT(overlapped, plain);
}

TEST(OsSystolic, SkewDominatesSmallK)
{
    // OS does not fix small-K GEMMs: a K=1 tile still pays the
    // PE_H + PE_W skew (Section IV-B).
    const AcceleratorConfig cfg = systolicOs(false);
    GemmOptions opt;
    opt.writeOutputToDram = false;
    const GemmResult r = simulate(cfg, GemmShape(128, 1, 128), 1, opt);
    EXPECT_GE(r.computeCycles, 250u);
}

TEST(OuterProduct, KCyclesPerFullTile)
{
    // One full 128x128 output tile takes K cycles of accumulation
    // (plus constant fill), independent of K's size.
    const AcceleratorConfig cfg = divaDefault();
    GemmOptions opt;
    opt.writeOutputToDram = false;
    const GemmResult r64 =
        simulate(cfg, GemmShape(128, 64, 128), 1, opt);
    const GemmResult r512 =
        simulate(cfg, GemmShape(128, 512, 128), 1, opt);
    EXPECT_EQ(r512.computeCycles - r64.computeCycles, 512u - 64u);
}

TEST(OuterProduct, ThroughputIndependentOfKShape)
{
    // Same MAC count split as (M,K,N)=(128,256,128) vs (128,1,128)x256:
    // the outer-product engine keeps high throughput for both, while
    // WS collapses on the K=1 version.
    const AcceleratorConfig diva_cfg = divaDefault();
    const AcceleratorConfig ws_cfg = tpuV3Ws();
    GemmOptions opt;
    opt.writeOutputToDram = false;

    const GemmResult diva_batched =
        simulate(diva_cfg, GemmShape(128, 1, 128), 256, opt);
    const GemmResult ws_batched =
        simulate(ws_cfg, GemmShape(128, 1, 128), 256, opt);
    EXPECT_GT(diva_batched.utilization(diva_cfg),
              5.0 * ws_batched.utilization(ws_cfg));
}

TEST(OuterProduct, DrainOverlapBoundsTileCost)
{
    // With K=1 the tile cost is the drain time (128/R = 16), not
    // K + drain.
    AcceleratorConfig cfg = divaDefault();
    GemmOptions opt;
    opt.writeOutputToDram = false;
    const GemmResult r = simulate(cfg, GemmShape(128, 1, 128), 1, opt);
    EXPECT_LE(r.computeCycles, 16u + 2u);
}

TEST(Engines, MemoryBoundGemmLimitedByBandwidth)
{
    // A huge K=1 GEMM writing its output is DRAM-bound on every
    // engine: cycles ~ bytes / bytes-per-cycle.
    const GemmShape s(8192, 1, 8192);
    for (const auto &cfg :
         {tpuV3Ws(), systolicOs(false), divaDefault()}) {
        const GemmResult r = simulate(cfg, s);
        EXPECT_GE(r.cycles, r.memoryCycles);
        EXPECT_GT(r.memoryCycles, 0u);
    }
}

TEST(Engines, SuppressedOutputReducesTrafficAndTime)
{
    const GemmShape s(1024, 4, 1024);
    GemmOptions keep;
    GemmOptions drop;
    drop.writeOutputToDram = false;
    const GemmResult with_write = simulate(divaDefault(), s, 64, keep);
    const GemmResult no_write = simulate(divaDefault(), s, 64, drop);
    EXPECT_LT(no_write.dram.total(), with_write.dram.total());
    EXPECT_LE(no_write.cycles, with_write.cycles);
    EXPECT_EQ(no_write.dram.writeBytes, 0u);
}

TEST(Engines, SramTrafficScalesWithComputeCycles)
{
    const GemmShape s(512, 512, 512);
    for (const auto &cfg :
         {tpuV3Ws(), systolicOs(false), divaDefault()}) {
        const GemmResult r = simulate(cfg, s);
        EXPECT_GT(r.sramReadBytes, 0u);
        EXPECT_GT(r.sramWriteBytes, 0u);
    }
}

// ------------------------------------ closed forms vs per-tile sums
//
// Each dataflow sums its tile grid in closed form. The references
// below accumulate the grid tile by tile: every remainder tile, fill
// and drain must land on the same count.

Cycles
referenceOsCycles(const AcceleratorConfig &cfg, const GemmShape &shape)
{
    const std::int64_t pe_h = cfg.peRows;
    const std::int64_t pe_w = cfg.peCols;
    const std::int64_t drain = cfg.drainRowsPerCycle;
    const std::int64_t tiles_m = ceilDiv(shape.m, pe_h);
    const std::int64_t tiles_n = ceilDiv(shape.n, pe_w);
    Cycles total = 0;
    for (std::int64_t tm = 0; tm < tiles_m; ++tm) {
        const std::int64_t mt =
            std::min<std::int64_t>(pe_h, shape.m - tm * pe_h);
        for (std::int64_t tn = 0; tn < tiles_n; ++tn) {
            const std::int64_t nt =
                std::min<std::int64_t>(pe_w, shape.n - tn * pe_w);
            const Cycles stream = Cycles(shape.k + mt + nt - 1);
            const Cycles drain_cycles = Cycles(ceilDiv(mt, drain));
            total += stream + drain_cycles;
        }
    }
    return total;
}

Cycles
referenceOuterProductCycles(const AcceleratorConfig &cfg,
                            const GemmShape &shape)
{
    const std::int64_t pe_h = cfg.peRows;
    const std::int64_t pe_w = cfg.peCols;
    const std::int64_t drain = cfg.drainRowsPerCycle;
    const std::int64_t tiles_m = ceilDiv(shape.m, pe_h);
    const std::int64_t tiles_n = ceilDiv(shape.n, pe_w);
    constexpr Cycles kPipelineFill = 2;
    Cycles total = 0;
    for (std::int64_t tm = 0; tm < tiles_m; ++tm) {
        const std::int64_t mt =
            std::min<std::int64_t>(pe_h, shape.m - tm * pe_h);
        for (std::int64_t tn = 0; tn < tiles_n; ++tn) {
            const Cycles accumulate = Cycles(shape.k);
            const Cycles drain_cycles = Cycles(ceilDiv(mt, drain));
            total += std::max(accumulate, drain_cycles) + kPipelineFill;
        }
    }
    return total;
}

Cycles
referenceWsCycles(const AcceleratorConfig &cfg, const GemmShape &shape)
{
    const std::int64_t pe_h = cfg.peRows;
    const std::int64_t pe_w = cfg.peCols;
    const std::int64_t fill = cfg.weightFillRowsPerCycle;
    const std::int64_t tiles_k = ceilDiv(shape.k, pe_h);
    const std::int64_t tiles_n = ceilDiv(shape.n, pe_w);
    Cycles total = 0;
    bool first_tile = true;
    for (std::int64_t tk = 0; tk < tiles_k; ++tk) {
        const std::int64_t kt =
            std::min<std::int64_t>(pe_h, shape.k - tk * pe_h);
        for (std::int64_t tn = 0; tn < tiles_n; ++tn) {
            const std::int64_t nt =
                std::min<std::int64_t>(pe_w, shape.n - tn * pe_w);
            const Cycles latch = Cycles(ceilDiv(kt, fill));
            const Cycles stream = Cycles(shape.m + kt + nt - 1);
            if (cfg.wsDoubleBufferWeights) {
                total += first_tile ? latch + stream
                                    : std::max(latch, stream);
            } else {
                total += latch + stream;
            }
            first_tile = false;
        }
    }
    return total;
}

Cycles
referenceCycles(const AcceleratorConfig &cfg, const GemmShape &shape)
{
    switch (cfg.dataflow) {
      case Dataflow::kWeightStationary:
        return referenceWsCycles(cfg, shape);
      case Dataflow::kOutputStationary:
        return referenceOsCycles(cfg, shape);
      case Dataflow::kOuterProduct:
        return referenceOuterProductCycles(cfg, shape);
    }
    return 0;
}

/** Compare every dataflow (WS with and without double buffering). */
void
expectClosedFormsMatchTileSums(AcceleratorConfig cfg,
                               const GemmShape &shape)
{
    cfg.hasPpu = false; // WS cannot host one; cycles ignore it anyway
    for (const Dataflow df :
         {Dataflow::kWeightStationary, Dataflow::kOutputStationary,
          Dataflow::kOuterProduct}) {
        cfg.dataflow = df;
        for (const bool dbuf : {false, true}) {
            if (dbuf && df != Dataflow::kWeightStationary)
                continue;
            cfg.wsDoubleBufferWeights = dbuf;
            ASSERT_EQ(simulate(cfg, shape).computeCycles,
                      referenceCycles(cfg, shape))
                << dataflowName(df) << (dbuf ? " double-buffered" : "")
                << " " << cfg.peRows << "x" << cfg.peCols
                << " drain=" << cfg.drainRowsPerCycle
                << " fill=" << cfg.weightFillRowsPerCycle << " shape "
                << shape.str();
        }
    }
}

/**
 * A GEMM dimension tiled by `pe`: an exact multiple, a single partial
 * or full tile, several tiles plus a remainder, or anything in
 * [1, 5000].
 */
std::int64_t
randomDim(std::mt19937_64 &rng, std::int64_t pe)
{
    constexpr std::int64_t kMax = 5000;
    const auto uniform = [&](std::int64_t lo, std::int64_t hi) {
        return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
    };
    switch (uniform(0, 3)) {
      case 0:
        return pe * uniform(1, std::max<std::int64_t>(1, kMax / pe));
      case 1:
        return uniform(1, std::min(pe, kMax));
      case 2:
        if (pe > 1 && pe < kMax)
            return pe * uniform(1, std::max<std::int64_t>(
                                       1, (kMax - pe) / pe)) +
                   uniform(1, pe - 1);
        [[fallthrough]];
      default:
        return uniform(1, kMax);
    }
}

TEST(EngineClosedForms, MatchPerTileSumsOnRandomConfigsAndShapes)
{
    std::mt19937_64 rng(0x5eedf00d);
    const auto uniform = [&](int lo, int hi) {
        return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    int checked = 0;
    while (checked < 20000) {
        AcceleratorConfig cfg = divaDefault(false);
        cfg.peRows = uniform(1, 300);
        cfg.peCols = uniform(1, 300);
        cfg.drainRowsPerCycle = uniform(1, cfg.peRows);
        cfg.weightFillRowsPerCycle = uniform(1, 16);
        const GemmShape shape(randomDim(rng, cfg.peRows),
                              randomDim(rng, cfg.peRows),
                              randomDim(rng, cfg.peCols));
        // Keep the per-tile references cheap: both tile grids (M x N
        // for OS/DiVa, K x N for WS) stay under 250k tiles.
        const std::int64_t tiles_n = ceilDiv(shape.n, std::int64_t(cfg.peCols));
        if (std::max(ceilDiv(shape.m, std::int64_t(cfg.peRows)),
                     ceilDiv(shape.k, std::int64_t(cfg.peRows))) *
                tiles_n >
            250000)
            continue;
        expectClosedFormsMatchTileSums(cfg, shape);
        if (HasFatalFailure())
            return;
        ++checked;
    }
}

TEST(EngineClosedForms, MatchPerTileSumsOnNcfAndGnmtLayers)
{
    // The NCF and GNMT GEMM layers of MAESTRO's mapping specs, with
    // Y as M, C as K and K as N: K up to 4096, N down to 1.
    const GemmShape layers[] = {
        // ncf_gemm GEMM0-9
        {256, 2048, 128}, {128, 2048, 64}, {256, 2048, 256},
        {2048, 256, 256}, {2048, 256, 256}, {2048, 256, 128},
        {2048, 128, 256}, {2048, 64, 128}, {2048, 128, 64},
        {128, 2048, 1},
        // gnmt_gemm GEMM0-8
        {128, 4096, 2048}, {128, 4096, 2048}, {320, 4096, 3072},
        {128, 4096, 2048}, {128, 4096, 2048}, {320, 4096, 3072},
        {320, 4096, 3072}, {320, 4096, 3072}, {320, 4096, 3072},
    };
    std::vector<AcceleratorConfig> configs = {tpuV3Ws(),
                                              systolicOs(false),
                                              divaDefault(false)};
    AcceleratorConfig odd = divaDefault(false);
    odd.peRows = 96;
    odd.peCols = 200;
    odd.drainRowsPerCycle = 7;
    odd.weightFillRowsPerCycle = 3;
    configs.push_back(odd);
    AcceleratorConfig tall = odd;
    tall.peRows = 300;
    tall.peCols = 3;
    tall.drainRowsPerCycle = 300;
    tall.weightFillRowsPerCycle = 16;
    configs.push_back(tall);
    for (const AcceleratorConfig &cfg : configs)
        for (const GemmShape &shape : layers) {
            expectClosedFormsMatchTileSums(cfg, shape);
            if (HasFatalFailure())
                return;
        }
}

TEST(GemmResult, Accumulation)
{
    GemmResult a;
    a.cycles = 10;
    a.usefulMacs = 100;
    a.dram.readBytes = 5;
    GemmResult b = a;
    a += b;
    EXPECT_EQ(a.cycles, 20u);
    EXPECT_EQ(a.usefulMacs, 200u);
    EXPECT_EQ(a.dram.readBytes, 10u);
}

} // namespace
} // namespace diva
