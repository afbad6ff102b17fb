/**
 * @file
 * Parameterized property tests sweeping GEMM shapes across all three
 * engine models: invariants that must hold for every (shape, engine)
 * combination, plus the paper's comparative claims (outer-product
 * robustness to K, WS/OS sensitivity to K).
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "arch/accelerator_config.h"
#include "gemm/engine.h"

namespace diva
{
namespace
{

AcceleratorConfig
configFor(const std::string &which)
{
    if (which == "ws")
        return tpuV3Ws();
    if (which == "os")
        return systolicOs(false);
    return divaDefault(false);
}

using ShapeParam = std::tuple<std::string, std::int64_t, std::int64_t,
                              std::int64_t>;

class EngineShapeSweep : public ::testing::TestWithParam<ShapeParam>
{
  protected:
    void
    SetUp() override
    {
        const auto &[engine, m, k, n] = GetParam();
        cfg_ = configFor(engine);
        shape_ = GemmShape(m, k, n);
        result_ = GemmEngineModel(cfg_).simulate(shape_);
    }

    AcceleratorConfig cfg_;
    GemmShape shape_;
    GemmResult result_;
};

TEST_P(EngineShapeSweep, CyclesPositive)
{
    EXPECT_GT(result_.cycles, 0u);
}

TEST_P(EngineShapeSweep, UtilizationInUnitInterval)
{
    const double u = result_.utilization(cfg_);
    EXPECT_GT(u, 0.0);
    EXPECT_LE(u, 1.0);
}

TEST_P(EngineShapeSweep, UsefulMacsExact)
{
    EXPECT_EQ(result_.usefulMacs, shape_.macs());
}

TEST_P(EngineShapeSweep, CyclesAtLeastComputeAndMemory)
{
    EXPECT_GE(result_.cycles, result_.computeCycles);
    EXPECT_GE(result_.cycles, result_.memoryCycles);
}

TEST_P(EngineShapeSweep, ComputeCyclesLowerBound)
{
    // No engine can beat peak-MAC throughput.
    const Cycles min_cycles =
        Cycles(ceilDiv(shape_.macs(), Macs(cfg_.macsPerCycle())));
    EXPECT_GE(result_.computeCycles, min_cycles);
}

TEST_P(EngineShapeSweep, DramTrafficCoversCompulsoryBytes)
{
    // At least the output must be written (default options).
    EXPECT_GE(result_.dram.writeBytes,
              shape_.outBytes(cfg_.accumBytes));
    EXPECT_GE(result_.dram.readBytes,
              Bytes(0));
}

TEST_P(EngineShapeSweep, DoublingMNeverReducesCycles)
{
    // Note GE, not GT: the outer-product engine performs M*N MACs per
    // cycle, so growing M within one PE-array tile is free -- that is
    // exactly its robustness property.
    const GemmShape doubled(shape_.m * 2, shape_.k, shape_.n);
    const GemmResult r2 = GemmEngineModel(cfg_).simulate(doubled);
    EXPECT_GE(r2.computeCycles, result_.computeCycles);
    EXPECT_EQ(r2.usefulMacs, 2 * result_.usefulMacs);
}

TEST_P(EngineShapeSweep, DoublingKIncreasesCycles)
{
    const GemmShape doubled(shape_.m, shape_.k * 2, shape_.n);
    const GemmResult r2 = GemmEngineModel(cfg_).simulate(doubled);
    EXPECT_GE(r2.computeCycles, result_.computeCycles);
}

INSTANTIATE_TEST_SUITE_P(
    AllEnginesAllShapes, EngineShapeSweep,
    ::testing::Combine(
        ::testing::Values("ws", "os", "outer"),
        ::testing::Values<std::int64_t>(1, 17, 128, 1000),
        ::testing::Values<std::int64_t>(1, 32, 128, 700),
        ::testing::Values<std::int64_t>(1, 64, 128, 513)),
    [](const auto &info) {
        return std::get<0>(info.param) + "_m" +
               std::to_string(std::get<1>(info.param)) + "_k" +
               std::to_string(std::get<2>(info.param)) + "_n" +
               std::to_string(std::get<3>(info.param));
    });

/** Comparative sweep: DiVa vs WS on per-example-shaped GEMMs. */
class PerExampleShapeSweep
    : public ::testing::TestWithParam<std::tuple<std::int64_t,
                                                 std::int64_t>>
{
};

TEST_P(PerExampleShapeSweep, OuterProductBeatsWsComputeOnSmallK)
{
    const auto [mn, k] = GetParam();
    const GemmShape s(mn, k, mn);
    GemmOptions opt;
    opt.writeOutputToDram = false;
    const AcceleratorConfig ws = tpuV3Ws();
    const AcceleratorConfig dv = divaDefault(false);
    const GemmResult rw = GemmEngineModel(ws).simulateBatched(s, 32, opt);
    const GemmResult rd = GemmEngineModel(dv).simulateBatched(s, 32, opt);
    // Small-K GEMMs: the outer-product engine's compute occupancy must
    // be strictly better than WS (the paper's Section IV-B claim).
    EXPECT_LT(rd.computeCycles, rw.computeCycles)
        << "shape " << s.str();
}

INSTANTIATE_TEST_SUITE_P(
    SmallK, PerExampleShapeSweep,
    ::testing::Combine(::testing::Values<std::int64_t>(256, 576, 1024,
                                                       4096),
                       ::testing::Values<std::int64_t>(1, 4, 16, 32)));

} // namespace
} // namespace diva
