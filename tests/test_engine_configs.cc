/**
 * @file
 * Parameterized config-space sweep: the engine models' invariants must
 * hold across PE-array aspect ratios, drain rates and dataflows, not
 * just at the default 128x128 design point.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "arch/accelerator_config.h"
#include "gemm/engine.h"
#include "models/zoo.h"
#include "sim/executor.h"
#include "train/planner.h"

namespace diva
{
namespace
{

using ConfigParam = std::tuple<int /*rows*/, int /*cols*/,
                               int /*drain*/, int /*dataflow*/>;

class ConfigSweep : public ::testing::TestWithParam<ConfigParam>
{
  protected:
    void
    SetUp() override
    {
        const auto [rows, cols, drain, df] = GetParam();
        switch (df) {
          case 0: cfg_ = tpuV3Ws(); break;
          case 1: cfg_ = systolicOs(true); break;
          default: cfg_ = divaDefault(true); break;
        }
        cfg_.peRows = rows;
        cfg_.peCols = cols;
        cfg_.drainRowsPerCycle = std::min(drain, rows);
    }

    AcceleratorConfig cfg_;
};

TEST_P(ConfigSweep, ConfigValidates)
{
    EXPECT_NO_THROW(cfg_.validate());
}

TEST_P(ConfigSweep, GemmInvariantsHold)
{
    const GemmEngineModel engine(cfg_);
    const GemmShape shapes[] = {
        {1, 1, 1}, {100, 3, 700}, {4096, 1, 64}, {128, 2048, 128},
    };
    for (const auto &s : shapes) {
        const GemmResult r = engine.simulate(s);
        EXPECT_GT(r.cycles, 0u) << cfg_.name << " " << s.str();
        EXPECT_EQ(r.usefulMacs, s.macs());
        EXPECT_LE(r.utilization(cfg_), 1.0)
            << cfg_.name << " " << s.str();
        // Compute occupancy can never beat peak throughput.
        EXPECT_GE(r.computeCycles,
                  Cycles(ceilDiv(s.macs(), Macs(cfg_.macsPerCycle()))));
    }
}

TEST_P(ConfigSweep, IterationSimulatesEndToEnd)
{
    const SimResult r = Executor(cfg_).run(
        buildOpStream(mobilenet(), TrainingAlgorithm::kDpSgdR, 8));
    EXPECT_GT(r.totalCycles(), 0u);
    EXPECT_LE(r.overallUtilization(cfg_), 1.0);
    EXPECT_GT(r.totalDram().total(), 0u);
}

std::string
configSweepName(const ::testing::TestParamInfo<ConfigParam> &info)
{
    const char *names[] = {"ws", "os", "outer"};
    return std::string(names[std::get<3>(info.param)]) + "_" +
           std::to_string(std::get<0>(info.param)) + "x" +
           std::to_string(std::get<1>(info.param)) + "_r" +
           std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConfigSweep,
    ::testing::Combine(::testing::Values(32, 128, 256),
                       ::testing::Values(64, 128),
                       ::testing::Values(1, 8, 32),
                       ::testing::Values(0, 1, 2)),
    configSweepName);

} // namespace
} // namespace diva
