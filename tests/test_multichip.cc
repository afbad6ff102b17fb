/**
 * @file
 * Tests for the data-parallel multi-chip scaling model, read from pod
 * scenarios priced by runScenario() -- the path every sweep, serve and
 * fleet takes.
 */

#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "arch/accelerator_config.h"
#include "sim/multichip.h"
#include "sweep/runner.h"

namespace diva
{
namespace
{

/** DP-SGD(R) on a `chips`-chip pod of `cfg` at global batch `batch`. */
Scenario
podScenario(const AcceleratorConfig &cfg, const std::string &model,
            int batch, int chips, double ici_gbs = 70.0)
{
    Scenario s;
    s.config = cfg;
    s.model = model;
    s.batch = batch;
    s.algorithm = TrainingAlgorithm::kDpSgdR;
    s.backend = SweepBackend::kMultiChip;
    s.pod.numChips = chips;
    s.pod.interconnectGBs = ici_gbs;
    return s;
}

ScenarioResult
run(const Scenario &s)
{
    const ScenarioResult r = runScenario(s);
    EXPECT_TRUE(r.ok()) << s.label() << ": " << r.error;
    return r;
}

/**
 * Strong-scaling efficiency of pod scenario `pod`: one chip's cycles
 * at the global batch divided by (numChips x pod cycles). 1.0 =
 * perfect scaling.
 */
double
efficiency(const Scenario &pod)
{
    Scenario chip = pod;
    chip.backend = SweepBackend::kSingleChip;
    return double(run(chip).cycles) /
           (double(pod.pod.numChips) * double(run(pod).cycles));
}

TEST(MultiChip, SingleChipHasNoCommunication)
{
    const Scenario pod =
        podScenario(divaDefault(true), "ResNet-50", 64, 1);
    const ScenarioResult r = run(pod);
    EXPECT_EQ(r.allReduceCycles, 0u);
    EXPECT_EQ(r.cycles, r.computeCycles);
    EXPECT_NEAR(efficiency(pod), 1.0, 1e-9);
    EXPECT_EQ(shardBatch(64, pod.pod), 64);
}

TEST(MultiChip, ShardSizesCeil)
{
    MultiChipConfig pod;
    pod.numChips = 8;
    EXPECT_EQ(shardBatch(100, pod), 13);
}

TEST(MultiChip, MoreChipsReduceTime)
{
    Cycles prev = Cycles(-1);
    for (int n : {1, 2, 4, 8, 16}) {
        const ScenarioResult r =
            run(podScenario(divaDefault(true), "ResNet-152", 256, n));
        EXPECT_LT(r.cycles, prev) << n;
        prev = r.cycles;
    }
}

TEST(MultiChip, EfficiencyDegradesWithScale)
{
    double prev = 1.1;
    for (int n : {1, 4, 16, 64}) {
        const double e =
            efficiency(podScenario(divaDefault(true), "ResNet-50", 512, n));
        EXPECT_LE(e, prev + 1e-9) << n;
        EXPECT_GT(e, 0.0);
        prev = e;
    }
}

TEST(MultiChip, AllReduceScalesWithModelSize)
{
    const ScenarioResult small =
        run(podScenario(divaDefault(true), "SqueezeNet", 256, 8));
    const ScenarioResult large =
        run(podScenario(divaDefault(true), "BERT-large", 256, 8));
    EXPECT_GT(large.allReduceCycles, 10 * small.allReduceCycles);
}

TEST(MultiChip, FasterInterconnectHelps)
{
    const Scenario slow =
        podScenario(divaDefault(true), "BERT-base", 256, 16, 10.0);
    const Scenario fast =
        podScenario(divaDefault(true), "BERT-base", 256, 16, 200.0);
    EXPECT_GT(run(slow).allReduceCycles, run(fast).allReduceCycles);
    EXPECT_LT(efficiency(slow), efficiency(fast));
}

TEST(MultiChip, DivaKeepsItsAdvantageAtPodScale)
{
    const ScenarioResult ws =
        run(podScenario(tpuV3Ws(), "ResNet-152", 512, 8));
    const ScenarioResult dv =
        run(podScenario(divaDefault(true), "ResNet-152", 512, 8));
    EXPECT_GT(double(ws.cycles) / double(dv.cycles), 2.0);
}

TEST(MultiChip, PodEnergyTrafficAndUtilizationAreAccounted)
{
    const Scenario pod =
        podScenario(divaDefault(true), "ResNet-50", 256, 8);
    const ScenarioResult r = run(pod);
    EXPECT_GT(r.energyJ, 0.0);
    EXPECT_GT(r.dramBytes, 0u);
    EXPECT_GT(r.postProcDramBytes, 0u);
    EXPECT_GT(r.utilization, 0.0);
    EXPECT_LE(r.utilization, 1.0);

    // The pod at least sums its chips: one chip at the shard batch.
    const ScenarioResult shard =
        run(podScenario(divaDefault(true), "ResNet-50",
                        shardBatch(256, pod.pod), 1));
    EXPECT_GE(r.energyJ, 8.0 * shard.energyJ);
    EXPECT_GE(r.dramBytes, 8u * shard.dramBytes);
}

TEST(MultiChip, AllReduceStallLowersUtilization)
{
    const Scenario slow =
        podScenario(divaDefault(true), "BERT-base", 256, 16, 5.0);
    const ScenarioResult stalled = run(slow);
    const ScenarioResult local =
        run(podScenario(divaDefault(true), "BERT-base",
                        shardBatch(256, slow.pod), 1));
    EXPECT_LT(stalled.utilization, local.utilization);
}

TEST(MultiChip, RejectsUnshardableBatch)
{
    MultiChipConfig pod;
    pod.numChips = 64;
    EXPECT_THROW(shardBatch(32, pod), std::runtime_error);

    // Shardability is checked before the shard is lowered: a
    // micro-batch larger than any shard does not mask the error.
    Scenario s = podScenario(divaDefault(true), "ResNet-50", 32, 64);
    for (const int microbatch : {0, 64}) {
        s.microbatch = microbatch;
        EXPECT_EQ(runScenario(s).error,
                  "fatal: global batch 32 cannot shard over 64 chips")
            << "micro-batch " << microbatch;
    }
}

} // namespace
} // namespace diva
