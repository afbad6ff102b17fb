/**
 * @file
 * Tests for the training planner: per-algorithm op-stream structure,
 * stage assignment, and work-conservation properties.
 */

#include <gtest/gtest.h>

#include <map>

#include "models/zoo.h"
#include "train/planner.h"

namespace diva
{
namespace
{

std::map<Stage, int>
opsPerStage(const OpStream &s)
{
    std::map<Stage, int> counts;
    for (const auto &op : s.ops)
        counts[op.stage]++;
    return counts;
}

std::map<OpType, int>
opsPerType(const OpStream &s)
{
    std::map<OpType, int> counts;
    for (const auto &op : s.ops)
        counts[op.type]++;
    return counts;
}

TEST(Planner, SgdStages)
{
    const Network net = resnet50();
    const OpStream s = buildOpStream(net, TrainingAlgorithm::kSgd, 32);
    const auto stages = opsPerStage(s);
    EXPECT_GT(stages.at(Stage::kForward), 0);
    EXPECT_GT(stages.at(Stage::kActGrad1), 0);
    EXPECT_GT(stages.at(Stage::kPerBatchGrad), 0);
    EXPECT_EQ(stages.count(Stage::kPerExampleGrad), 0u);
    EXPECT_EQ(stages.count(Stage::kGradNorm), 0u);
    EXPECT_EQ(stages.count(Stage::kGradClip), 0u);
    EXPECT_EQ(stages.count(Stage::kReduceNoise), 0u);
    EXPECT_EQ(stages.count(Stage::kActGrad2), 0u);
}

TEST(Planner, DpSgdStages)
{
    const Network net = resnet50();
    const OpStream s = buildOpStream(net, TrainingAlgorithm::kDpSgd, 32);
    const auto stages = opsPerStage(s);
    EXPECT_GT(stages.at(Stage::kForward), 0);
    EXPECT_GT(stages.at(Stage::kActGrad1), 0);
    EXPECT_GT(stages.at(Stage::kPerExampleGrad), 0);
    EXPECT_GT(stages.at(Stage::kGradNorm), 0);
    EXPECT_GT(stages.at(Stage::kGradClip), 0);
    EXPECT_GT(stages.at(Stage::kReduceNoise), 0);
    // Vanilla DP-SGD has no second backprop and no per-batch wgrads.
    EXPECT_EQ(stages.count(Stage::kActGrad2), 0u);
    EXPECT_EQ(stages.count(Stage::kPerBatchGrad), 0u);
}

TEST(Planner, DpSgdRStages)
{
    const Network net = resnet50();
    const OpStream s =
        buildOpStream(net, TrainingAlgorithm::kDpSgdR, 32);
    const auto stages = opsPerStage(s);
    EXPECT_GT(stages.at(Stage::kForward), 0);
    EXPECT_GT(stages.at(Stage::kActGrad1), 0);
    EXPECT_GT(stages.at(Stage::kPerExampleGrad), 0);
    EXPECT_GT(stages.at(Stage::kGradNorm), 0);
    // The reweighted second backprop.
    EXPECT_GT(stages.at(Stage::kActGrad2), 0);
    EXPECT_GT(stages.at(Stage::kPerBatchGrad), 0);
    // Clip/reduce are fused into the 2nd pass; only noise remains.
    EXPECT_EQ(stages.count(Stage::kGradClip), 0u);
    EXPECT_EQ(stages.at(Stage::kReduceNoise), 1);
}

TEST(Planner, DpSgdPostProcOpTypes)
{
    const Network net = vgg16();
    const OpStream s = buildOpStream(net, TrainingAlgorithm::kDpSgd, 16);
    const auto types = opsPerType(s);
    EXPECT_EQ(types.at(OpType::kGradNorm), net.numWeightedLayers());
    EXPECT_EQ(types.at(OpType::kGradClip), 1);
    EXPECT_EQ(types.at(OpType::kGradReduce), 1);
    EXPECT_EQ(types.at(OpType::kNoiseAdd), 1);
}

TEST(Planner, BothBackpropPassesIdentical)
{
    // DP-SGD(R)'s two activation-gradient passes perform equal work.
    const OpStream s =
        buildOpStream(resnet50(), TrainingAlgorithm::kDpSgdR, 32);
    Macs pass1 = 0, pass2 = 0;
    for (const auto &op : s.ops) {
        if (op.stage == Stage::kActGrad1)
            pass1 += op.gemmMacs();
        if (op.stage == Stage::kActGrad2)
            pass2 += op.gemmMacs();
    }
    EXPECT_GT(pass1, 0u);
    EXPECT_EQ(pass1, pass2);
}

TEST(Planner, PerExampleAndPerBatchWGradMacsMatch)
{
    // The two weight-gradient derivations do the same useful work.
    const Network net = vgg16();
    const OpStream dp =
        buildOpStream(net, TrainingAlgorithm::kDpSgd, 64);
    const OpStream sgd =
        buildOpStream(net, TrainingAlgorithm::kSgd, 64);
    Macs per_example = 0, per_batch = 0;
    for (const auto &op : dp.ops)
        if (op.stage == Stage::kPerExampleGrad)
            per_example += op.gemmMacs();
    for (const auto &op : sgd.ops)
        if (op.stage == Stage::kPerBatchGrad)
            per_batch += op.gemmMacs();
    EXPECT_EQ(per_example, per_batch);
}

TEST(Planner, PerExampleOutputFlagOnlyOnPerExampleGemms)
{
    const OpStream s =
        buildOpStream(bertBase(), TrainingAlgorithm::kDpSgdR, 8);
    for (const auto &op : s.ops) {
        if (op.perExampleOutput) {
            EXPECT_EQ(op.type, OpType::kGemm);
            EXPECT_EQ(op.stage, Stage::kPerExampleGrad);
        } else if (op.type == OpType::kGemm) {
            EXPECT_NE(op.stage, Stage::kPerExampleGrad);
        }
    }
}

TEST(Planner, NormElemsCoverAllWeights)
{
    const Network net = bertBase();
    const int batch = 8;
    const OpStream s =
        buildOpStream(net, TrainingAlgorithm::kDpSgdR, batch);
    Elems norm_elems = 0;
    for (const auto &op : s.ops)
        if (op.type == OpType::kGradNorm)
            norm_elems += op.inElems;
    EXPECT_EQ(norm_elems, Elems(batch) * Elems(net.paramCount()));
}

TEST(Planner, FirstLayerSkipsActGrad)
{
    // Nothing upstream consumes the first layer's input gradient.
    const Network net = vgg16();
    const OpStream s = buildOpStream(net, TrainingAlgorithm::kSgd, 8);
    for (const auto &op : s.ops) {
        if (op.stage == Stage::kActGrad1) {
            EXPECT_NE(op.layer, 0u);
        }
    }
}

TEST(Planner, ForwardMacsIdenticalAcrossAlgorithms)
{
    const Network net = resnet50();
    Macs fwd[3];
    int i = 0;
    for (auto algo :
         {TrainingAlgorithm::kSgd, TrainingAlgorithm::kDpSgd,
          TrainingAlgorithm::kDpSgdR}) {
        const OpStream s = buildOpStream(net, algo, 32);
        Macs m = 0;
        for (const auto &op : s.ops)
            if (op.stage == Stage::kForward)
                m += op.gemmMacs();
        fwd[i++] = m;
    }
    EXPECT_EQ(fwd[0], fwd[1]);
    EXPECT_EQ(fwd[1], fwd[2]);
}

TEST(Planner, RejectsInvalidBatch)
{
    EXPECT_THROW(buildOpStream(vgg16(), TrainingAlgorithm::kSgd, 0),
                 std::logic_error);
}

TEST(Planner, RejectsEmptyNetwork)
{
    Network empty;
    empty.name = "empty";
    EXPECT_THROW(buildOpStream(empty, TrainingAlgorithm::kSgd, 1),
                 std::logic_error);
}

/** Sweep all nine models x three algorithms for structural sanity. */
class PlannerSweep
    : public ::testing::TestWithParam<std::tuple<int, TrainingAlgorithm>>
{
};

TEST_P(PlannerSweep, StreamWellFormed)
{
    const auto [model_idx, algo] = GetParam();
    const Network net = allModels()[std::size_t(model_idx)];
    const OpStream s = buildOpStream(net, algo, 16);
    EXPECT_EQ(s.networkName, net.name);
    EXPECT_EQ(s.batch, 16);
    EXPECT_GT(s.ops.size(), 0u);
    EXPECT_GT(s.totalGemmMacs(), 0u);
    for (const auto &op : s.ops) {
        if (op.type == OpType::kGemm) {
            EXPECT_TRUE(op.shape.valid()) << net.name;
            EXPECT_GT(op.count, 0u);
        } else {
            EXPECT_GT(op.inElems, 0u) << net.name;
        }
    }
}

TEST_P(PlannerSweep, DpCostsMoreGemmWorkThanSgdOnlyForR)
{
    const auto [model_idx, algo] = GetParam();
    if (algo == TrainingAlgorithm::kSgd)
        GTEST_SKIP();
    const Network net = allModels()[std::size_t(model_idx)];
    const Macs sgd =
        buildOpStream(net, TrainingAlgorithm::kSgd, 16).totalGemmMacs();
    const Macs dp = buildOpStream(net, algo, 16).totalGemmMacs();
    // DP-SGD does the same GEMM work as SGD (different shapes);
    // DP-SGD(R) strictly more (second backprop).
    if (algo == TrainingAlgorithm::kDpSgd)
        EXPECT_EQ(dp, sgd);
    else
        EXPECT_GT(dp, sgd);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, PlannerSweep,
    ::testing::Combine(::testing::Range(0, 9),
                       ::testing::Values(TrainingAlgorithm::kSgd,
                                         TrainingAlgorithm::kDpSgd,
                                         TrainingAlgorithm::kDpSgdR)));

} // namespace
} // namespace diva
