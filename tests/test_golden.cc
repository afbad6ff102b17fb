/**
 * @file
 * Golden regression tests: exact cycle counts and traffic for
 * hand-computable GEMMs on every engine, locking the cycle models
 * against accidental drift. Each expected value is derived in the
 * accompanying comment from the model equations.
 */

#include <gtest/gtest.h>

#include "arch/accelerator_config.h"
#include "gemm/engine.h"

namespace diva
{
namespace
{

GemmResult
computeOnly(const AcceleratorConfig &cfg, const GemmShape &shape)
{
    GemmOptions opt;
    opt.writeOutputToDram = false;
    opt.lhsFromDram = false;
    opt.rhsFromDram = false;
    return GemmEngineModel(cfg).simulate(shape, opt);
}

TEST(Golden, WsSingleTileGemm)
{
    // (128,128,128), one tile: latch 128/8 = 16, stream
    // 128 + 128 + 128 - 1 = 383 -> 399 compute cycles.
    const GemmResult r = computeOnly(tpuV3Ws(), GemmShape(128, 128, 128));
    EXPECT_EQ(r.computeCycles, 399u);
    // No operand traffic; total = compute + 100 latency.
    EXPECT_EQ(r.cycles, 499u);
    EXPECT_EQ(r.dram.total(), 0u);
}

TEST(Golden, WsMultiTileGemm)
{
    // (256,256,256): 2x2 tiles of (128,128); each costs 16 + 256 +
    // 128 + 128 - 1 = 527 -> 4 * 527 = 2108.
    const GemmResult r = computeOnly(tpuV3Ws(), GemmShape(256, 256, 256));
    EXPECT_EQ(r.computeCycles, 2108u);
}

TEST(Golden, WsTinyKGemm)
{
    // (128,1,128): latch ceil(1/8)=1, stream 128 + 1 + 128 - 1 = 256
    // -> 257 compute cycles for 16384 MACs (util 0.39%).
    const GemmResult r = computeOnly(tpuV3Ws(), GemmShape(128, 1, 128));
    EXPECT_EQ(r.computeCycles, 257u);
}

TEST(Golden, WsDoubleBufferedWeights)
{
    // (256,256,256) with double buffering: first tile 16 + 527-16=527
    // full; remaining 3 tiles max(16, 511+16... each tile stream=527-16
    // Compute directly: latch=16, stream=511 (256+128+128-1).
    // Non-overlapped: 4*(16+511) = 2108. Overlapped: (16+511) +
    // 3*max(16,511) = 527 + 1533 = 2060.
    AcceleratorConfig cfg = tpuV3Ws();
    cfg.wsDoubleBufferWeights = true;
    const GemmResult r = computeOnly(cfg, GemmShape(256, 256, 256));
    EXPECT_EQ(r.computeCycles, 2060u);
}

TEST(Golden, OsSingleTileGemm)
{
    // (128,64,128): stream 64 + 128 + 128 - 1 = 319, drain
    // ceil(128/8) = 16 -> 335.
    const GemmResult r =
        computeOnly(systolicOs(false), GemmShape(128, 64, 128));
    EXPECT_EQ(r.computeCycles, 335u);
}

TEST(Golden, OsPartialTileGemm)
{
    // (64,32,64): one partial tile: 32 + 64 + 64 - 1 = 159, drain
    // ceil(64/8) = 8 -> 167.
    const GemmResult r =
        computeOnly(systolicOs(false), GemmShape(64, 32, 64));
    EXPECT_EQ(r.computeCycles, 167u);
}

TEST(Golden, OuterProductSingleTile)
{
    // (128,64,128): max(K=64, drain 16) + 2 = 66.
    const GemmResult r =
        computeOnly(divaDefault(false), GemmShape(128, 64, 128));
    EXPECT_EQ(r.computeCycles, 66u);
}

TEST(Golden, OuterProductDrainBound)
{
    // (128,1,128): max(1, 16) + 2 = 18 -- the drain, not K, binds.
    const GemmResult r =
        computeOnly(divaDefault(false), GemmShape(128, 1, 128));
    EXPECT_EQ(r.computeCycles, 18u);
}

TEST(Golden, OuterProductMultiTile)
{
    // (256,100,300): tiles_m=2, tiles_n=3 -> 6 tiles, each
    // max(100,16)+2 = 102 -> 612.
    const GemmResult r =
        computeOnly(divaDefault(false), GemmShape(256, 100, 300));
    EXPECT_EQ(r.computeCycles, 612u);
}

TEST(Golden, TrafficSmallGemmWithDram)
{
    // (128,128,128) from DRAM: reads 2*128*128*2 = 65536 B, writes
    // 128*128*4 = 65536 B; memory cycles = ceil(131072 / 478.72..)
    // = 274.
    const GemmResult r = GemmEngineModel(divaDefault(false))
                             .simulate(GemmShape(128, 128, 128));
    EXPECT_EQ(r.dram.readBytes, 65536u);
    EXPECT_EQ(r.dram.writeBytes, 65536u);
    EXPECT_EQ(r.memoryCycles, 274u);
    // Memory-bound: 274 > compute 130 -> total 274 + 100.
    EXPECT_EQ(r.cycles, 374u);
}

TEST(Golden, BatchedScalesExactly)
{
    const GemmEngineModel engine(divaDefault(false));
    GemmOptions opt;
    opt.writeOutputToDram = false;
    opt.lhsFromDram = false;
    opt.rhsFromDram = false;
    const GemmResult one =
        engine.simulateBatched(GemmShape(128, 64, 128), 1, opt);
    const GemmResult many =
        engine.simulateBatched(GemmShape(128, 64, 128), 37, opt);
    EXPECT_EQ(many.computeCycles, 37 * one.computeCycles);
    // Latency charged once per train, not per GEMM.
    EXPECT_EQ(many.cycles, many.computeCycles + 100u);
}

TEST(Golden, WsSramPortRates)
{
    // Table I per-cycle rates feed the SRAM energy: WS reads
    // 128*2 + 128*8*2 = 2304 B and writes 128*4 = 512 B per compute
    // cycle.
    const GemmResult r = computeOnly(tpuV3Ws(), GemmShape(128, 128, 128));
    EXPECT_EQ(r.sramReadBytes, 399u * 2304u);
    EXPECT_EQ(r.sramWriteBytes, 399u * 512u);
}

} // namespace
} // namespace diva
