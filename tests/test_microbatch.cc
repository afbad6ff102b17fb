/**
 * @file
 * Tests for gradient-accumulation micro-batching: memory relief,
 * latency cost, noise-once semantics, and work conservation.
 */

#include <gtest/gtest.h>

#include "arch/accelerator_config.h"
#include "models/zoo.h"
#include "sim/executor.h"
#include "train/memory_model.h"
#include "train/planner.h"

namespace diva
{
namespace
{

int
countNoiseOps(const OpStream &s)
{
    int n = 0;
    for (const auto &op : s.ops)
        n += op.type == OpType::kNoiseAdd ? 1 : 0;
    return n;
}

TEST(Microbatch, DegenerateCaseEqualsMonolithic)
{
    const Network net = resnet50();
    const OpStream mono =
        buildOpStream(net, TrainingAlgorithm::kDpSgdR, 32);
    const OpStream micro = buildMicrobatchedOpStream(
        net, TrainingAlgorithm::kDpSgdR, 32, 32);
    ASSERT_EQ(micro.ops.size(), mono.ops.size());
    EXPECT_EQ(micro.totalGemmMacs(), mono.totalGemmMacs());
}

TEST(Microbatch, NoiseAddedExactlyOnce)
{
    const Network net = resnet50();
    for (auto algo :
         {TrainingAlgorithm::kDpSgd, TrainingAlgorithm::kDpSgdR}) {
        const OpStream s =
            buildMicrobatchedOpStream(net, algo, 64, 8);
        EXPECT_EQ(countNoiseOps(s), 1) << algorithmName(algo);
    }
}

TEST(Microbatch, GemmWorkConserved)
{
    // Splitting the mini-batch must not change the useful GEMM work.
    const Network net = vgg16();
    const Macs mono =
        buildOpStream(net, TrainingAlgorithm::kDpSgd, 64)
            .totalGemmMacs();
    for (int mb : {1, 4, 16, 64}) {
        const Macs micro = buildMicrobatchedOpStream(
                               net, TrainingAlgorithm::kDpSgd, 64, mb)
                               .totalGemmMacs();
        EXPECT_EQ(micro, mono) << "microbatch " << mb;
    }
}

TEST(Microbatch, RemainderHandled)
{
    const Network net = mobilenet();
    // 70 = 2 passes of 32 + 1 pass of 6.
    const OpStream s = buildMicrobatchedOpStream(
        net, TrainingAlgorithm::kDpSgdR, 70, 32);
    EXPECT_EQ(s.batch, 70);
    EXPECT_EQ(s.totalGemmMacs(),
              buildOpStream(net, TrainingAlgorithm::kDpSgdR, 70)
                  .totalGemmMacs());
    EXPECT_EQ(countNoiseOps(s), 1);
}

TEST(Microbatch, RejectsInvalidSplit)
{
    const Network net = resnet50();
    // A micro-batch above its batch is an input error naming both.
    EXPECT_THROW(buildMicrobatchedOpStream(
                     net, TrainingAlgorithm::kDpSgd, 8, 16),
                 std::runtime_error);
    try {
        buildMicrobatchedOpStream(net, TrainingAlgorithm::kDpSgd, 8, 16);
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(),
                     "fatal: micro-batch 16 exceeds the mini-batch 8");
    }
    EXPECT_THROW(buildMicrobatchedOpStream(
                     net, TrainingAlgorithm::kDpSgd, 8, 0),
                 std::logic_error);
    // A user error's stderr line names the inputs, not the source
    // file that rejected them.
    testing::internal::CaptureStderr();
    EXPECT_THROW(buildMicrobatchedOpStream(
                     net, TrainingAlgorithm::kDpSgd, 2, 4),
                 std::runtime_error);
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              "fatal: micro-batch 4 exceeds the mini-batch 2\n");
}

TEST(Microbatch, MemoryShrinksWithMicrobatch)
{
    const Network net = resnet152();
    const Bytes full =
        trainingMemory(net, TrainingAlgorithm::kDpSgd, 256).total();
    const Bytes micro = trainingMemoryMicrobatched(
                            net, TrainingAlgorithm::kDpSgd, 256, 8)
                            .total();
    EXPECT_LT(micro, full / 8);
}

TEST(Microbatch, EnablesSgdScaleBatches)
{
    // Section III-A's wall: DP-SGD at batch 8192 does not fit 16 GiB
    // monolithically, but fits easily with micro-batch 8.
    const Network net = resnet152();
    EXPECT_GT(trainingMemory(net, TrainingAlgorithm::kDpSgd, 8192)
                  .total(),
              16_GiB);
    EXPECT_LT(trainingMemoryMicrobatched(net, TrainingAlgorithm::kDpSgd,
                                         8192, 8)
                  .total(),
              16_GiB);
}

TEST(Microbatch, LatencyCostOnWs)
{
    // Micro-batching trades memory for time: smaller per-pass GEMMs
    // utilize the array worse, so the same logical batch runs slower.
    const Network net = resnet50();
    const Executor ws(tpuV3Ws());
    const Cycles mono =
        ws.run(buildOpStream(net, TrainingAlgorithm::kDpSgdR, 64))
            .totalCycles();
    const Cycles micro =
        ws.run(buildMicrobatchedOpStream(
                   net, TrainingAlgorithm::kDpSgdR, 64, 4))
            .totalCycles();
    EXPECT_GT(micro, mono);
}

TEST(Microbatch, DivaShrinksTheMicrobatchPenalty)
{
    // Micro-batching shrinks every per-pass GEMM; DiVa's robustness to
    // small GEMMs makes the *added* cycles strictly smaller than on
    // WS. (The relative penalty is larger on DiVa only because its
    // baseline lacks WS's giant norm/per-example stages.)
    const Network net = resnet50();
    const OpStream mono =
        buildOpStream(net, TrainingAlgorithm::kDpSgdR, 64);
    const OpStream micro = buildMicrobatchedOpStream(
        net, TrainingAlgorithm::kDpSgdR, 64, 4);
    const Cycles ws_added =
        Executor(tpuV3Ws()).run(micro).totalCycles() -
        Executor(tpuV3Ws()).run(mono).totalCycles();
    const Cycles diva_added =
        Executor(divaDefault(true)).run(micro).totalCycles() -
        Executor(divaDefault(true)).run(mono).totalCycles();
    EXPECT_LT(diva_added, ws_added);
    // And DiVa-with-microbatching still beats the WS monolith.
    EXPECT_LT(Executor(divaDefault(true)).run(micro).totalCycles(),
              Executor(tpuV3Ws()).run(mono).totalCycles());
}

} // namespace
} // namespace diva
