/**
 * @file
 * Tests for the executor: stage accounting, PPU dispatch policy,
 * spill policy per algorithm, the paper's comparative claims at the
 * whole-iteration level, and class pricing (each op class priced once)
 * against a per-op reference.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/accelerator_config.h"
#include "models/zoo.h"
#include "sim/executor.h"
#include "train/memory_model.h"
#include "train/planner.h"

namespace diva
{
namespace
{

SimResult
simulate(const AcceleratorConfig &cfg, const Network &net,
         TrainingAlgorithm algo, int batch)
{
    return Executor(cfg).run(buildOpStream(net, algo, batch));
}

TEST(Executor, StageCyclesCoverAllWork)
{
    const SimResult r =
        simulate(tpuV3Ws(), resnet50(), TrainingAlgorithm::kDpSgdR, 32);
    EXPECT_GT(r.totalCycles(), 0u);
    EXPECT_GT(r.stageCyclesFor(Stage::kForward), 0u);
    EXPECT_GT(r.stageCyclesFor(Stage::kPerExampleGrad), 0u);
    EXPECT_GT(r.stageCyclesFor(Stage::kGradNorm), 0u);
    EXPECT_GT(r.stageCyclesFor(Stage::kReduceNoise), 0u);
}

TEST(Executor, SgdHasNoDpStages)
{
    const SimResult r =
        simulate(tpuV3Ws(), resnet50(), TrainingAlgorithm::kSgd, 32);
    EXPECT_EQ(r.stageCyclesFor(Stage::kPerExampleGrad), 0u);
    EXPECT_EQ(r.stageCyclesFor(Stage::kGradNorm), 0u);
    EXPECT_EQ(r.stageCyclesFor(Stage::kGradClip), 0u);
    EXPECT_EQ(r.stageCyclesFor(Stage::kReduceNoise), 0u);
    EXPECT_EQ(r.postProcessingDram.total(), 0u);
}

TEST(Executor, PpuEliminatesNormTraffic)
{
    const Network net = resnet50();
    const SimResult no_ppu =
        simulate(divaDefault(false), net, TrainingAlgorithm::kDpSgdR,
                 32);
    const SimResult with_ppu =
        simulate(divaDefault(true), net, TrainingAlgorithm::kDpSgdR, 32);
    // Without the PPU the gradients spill and are re-read; with it the
    // norm stage produces no off-chip traffic at all.
    EXPECT_GT(no_ppu.postProcessingDram.total(), 0u);
    const double reduction =
        1.0 - double(with_ppu.postProcessingDram.total()) /
                  double(no_ppu.postProcessingDram.total());
    EXPECT_GT(reduction, 0.95); // the paper's "99%" claim
}

TEST(Executor, PpuShrinksNormStageLatency)
{
    const Network net = resnet152();
    const SimResult no_ppu =
        simulate(divaDefault(false), net, TrainingAlgorithm::kDpSgdR,
                 32);
    const SimResult with_ppu =
        simulate(divaDefault(true), net, TrainingAlgorithm::kDpSgdR, 32);
    EXPECT_LT(with_ppu.stageCyclesFor(Stage::kGradNorm) * 100,
              no_ppu.stageCyclesFor(Stage::kGradNorm));
}

TEST(Executor, VanillaDpSgdAlwaysSpills)
{
    // Even with a PPU, vanilla DP-SGD must materialize per-example
    // grads for the later clip stage.
    const SimResult r =
        simulate(divaDefault(true), resnet50(), TrainingAlgorithm::kDpSgd,
                 32);
    EXPECT_GT(r.postProcessingDram.writeBytes, 0u);
    EXPECT_GT(r.stageCyclesFor(Stage::kGradClip), 0u);
}

TEST(Executor, DpSgdRWithPpuSpillsNothing)
{
    const SimResult r = simulate(divaDefault(true), resnet50(),
                                 TrainingAlgorithm::kDpSgdR, 32);
    // Only the final noise read-modify-write of |W| remains.
    const Bytes param_bytes = Bytes(resnet50().paramCount()) * 4;
    EXPECT_LE(r.postProcessingDram.total(), 3 * param_bytes);
}

TEST(Executor, DpSlowerThanSgdOnWs)
{
    // Figure 5: DP training is many times slower than SGD on the WS
    // baseline.
    const Network net = resnet50();
    const Cycles sgd =
        simulate(tpuV3Ws(), net, TrainingAlgorithm::kSgd, 32)
            .totalCycles();
    const Cycles dp =
        simulate(tpuV3Ws(), net, TrainingAlgorithm::kDpSgd, 32)
            .totalCycles();
    const Cycles dpr =
        simulate(tpuV3Ws(), net, TrainingAlgorithm::kDpSgdR, 32)
            .totalCycles();
    EXPECT_GT(dp, 3 * sgd);
    EXPECT_GT(dpr, 2 * sgd);
}

TEST(Executor, DpSgdRFasterThanDpSgdOnWs)
{
    // Figure 5's surprising result: despite the second backprop,
    // DP-SGD(R) outperforms vanilla DP-SGD (avg 31% in the paper).
    for (const auto &net : {resnet50(), vgg16(), bertBase()}) {
        const int batch =
            maxBatchSize(net, TrainingAlgorithm::kDpSgd, 16_GiB);
        const Cycles dp =
            simulate(tpuV3Ws(), net, TrainingAlgorithm::kDpSgd, batch)
                .totalCycles();
        const Cycles dpr =
            simulate(tpuV3Ws(), net, TrainingAlgorithm::kDpSgdR, batch)
                .totalCycles();
        EXPECT_LT(dpr, dp) << net.name;
    }
}

TEST(Executor, DivaBeatsWsOnDpTraining)
{
    // Figure 13's headline: DiVa (with PPU) >> WS for DP-SGD(R).
    for (const auto &net : breakdownModels()) {
        const int batch =
            maxBatchSize(net, TrainingAlgorithm::kDpSgd, 16_GiB);
        const SimResult ws =
            simulate(tpuV3Ws(), net, TrainingAlgorithm::kDpSgdR, batch);
        const SimResult diva = simulate(divaDefault(true), net,
                                        TrainingAlgorithm::kDpSgdR,
                                        batch);
        EXPECT_GT(speedup(ws, diva), 1.5) << net.name;
    }
}

TEST(Executor, DivaPpuOutperformsNoPpu)
{
    for (const auto &net : breakdownModels()) {
        const SimResult no_ppu = simulate(
            divaDefault(false), net, TrainingAlgorithm::kDpSgdR, 32);
        const SimResult with_ppu = simulate(
            divaDefault(true), net, TrainingAlgorithm::kDpSgdR, 32);
        EXPECT_GT(speedup(no_ppu, with_ppu), 1.0) << net.name;
    }
}

TEST(Executor, UtilizationImprovesOnDiva)
{
    const Network net = resnet152();
    const SimResult ws =
        simulate(tpuV3Ws(), net, TrainingAlgorithm::kDpSgdR, 32);
    const SimResult diva =
        simulate(divaDefault(true), net, TrainingAlgorithm::kDpSgdR, 32);
    EXPECT_GT(diva.overallUtilization(divaDefault(true)),
              2.0 * ws.overallUtilization(tpuV3Ws()));
}

TEST(Executor, PerExampleStageUtilizationGap)
{
    // Figure 15: the per-example weight-gradient stage shows the
    // largest utilization improvement.
    const Network net = vgg16();
    const AcceleratorConfig ws_cfg = tpuV3Ws();
    const AcceleratorConfig dv_cfg = divaDefault(true);
    const SimResult ws =
        simulate(ws_cfg, net, TrainingAlgorithm::kDpSgdR, 32);
    const SimResult dv =
        simulate(dv_cfg, net, TrainingAlgorithm::kDpSgdR, 32);
    EXPECT_GT(dv.stageUtilization(Stage::kPerExampleGrad, dv_cfg),
              2.0 * ws.stageUtilization(Stage::kPerExampleGrad, ws_cfg));
}

TEST(Executor, ForwardStageIdenticalAcrossDpAlgorithms)
{
    const Network net = mobilenet();
    const SimResult dp =
        simulate(tpuV3Ws(), net, TrainingAlgorithm::kDpSgd, 16);
    const SimResult dpr =
        simulate(tpuV3Ws(), net, TrainingAlgorithm::kDpSgdR, 16);
    EXPECT_EQ(dp.stageCyclesFor(Stage::kForward),
              dpr.stageCyclesFor(Stage::kForward));
}

/** The five engine configurations of the perfbench design sweep. */
std::vector<AcceleratorConfig>
sweepEngines()
{
    return {tpuV3Ws(), systolicOs(false), systolicOs(true),
            divaDefault(false), divaDefault(true)};
}

/** Every field of a SimResult, or the first that differs. */
std::string
firstDifference(const SimResult &a, const SimResult &b)
{
    std::ostringstream diff;
    for (std::size_t s = 0; s < kNumStages; ++s) {
        const char *stage = stageName(Stage(s));
        if (a.stageCycles[s] != b.stageCycles[s])
            diff << stage << " cycles " << a.stageCycles[s] << " vs "
                 << b.stageCycles[s];
        else if (a.stageMacs[s] != b.stageMacs[s])
            diff << stage << " MACs " << a.stageMacs[s] << " vs "
                 << b.stageMacs[s];
        else if (a.stageDram[s].readBytes != b.stageDram[s].readBytes)
            diff << stage << " DRAM read " << a.stageDram[s].readBytes
                 << " vs " << b.stageDram[s].readBytes;
        else if (a.stageDram[s].writeBytes != b.stageDram[s].writeBytes)
            diff << stage << " DRAM write " << a.stageDram[s].writeBytes
                 << " vs " << b.stageDram[s].writeBytes;
        else
            continue;
        return diff.str();
    }
    if (a.sramReadBytes != b.sramReadBytes)
        diff << "SRAM read " << a.sramReadBytes << " vs "
             << b.sramReadBytes;
    else if (a.sramWriteBytes != b.sramWriteBytes)
        diff << "SRAM write " << a.sramWriteBytes << " vs "
             << b.sramWriteBytes;
    else if (a.postProcessingDram.readBytes !=
             b.postProcessingDram.readBytes)
        diff << "post-processing read " << a.postProcessingDram.readBytes
             << " vs " << b.postProcessingDram.readBytes;
    else if (a.postProcessingDram.writeBytes !=
             b.postProcessingDram.writeBytes)
        diff << "post-processing write "
             << a.postProcessingDram.writeBytes << " vs "
             << b.postProcessingDram.writeBytes;
    return diff.str();
}

/** Whether two ops agree on every field the executor prices. */
bool
samePricingFields(const Op &a, const Op &b)
{
    return a.type == b.type && a.stage == b.stage && a.shape == b.shape &&
           a.count == b.count && a.perExampleOutput == b.perExampleOutput &&
           a.inElems == b.inElems && a.outElems == b.outElems;
}

/**
 * The reference: every op priced alone, as a one-op stream with a
 * one-class table, and its totals added into the op's own stage.
 * `per_op` receives each op's own price.
 */
SimResult
pricePerOp(const Executor &exec, const OpStream &stream,
           std::vector<SimResult> *per_op = nullptr)
{
    SimResult sum;
    OpStream one;
    one.algorithm = stream.algorithm;
    one.classes = {{0, 1}};
    for (const Op &op : stream.ops) {
        one.ops = {op};
        one.ops[0].opClass = 0;
        const SimResult r = exec.run(one);
        const auto s = static_cast<std::size_t>(op.stage);
        sum.stageCycles[s] += r.totalCycles();
        sum.stageMacs[s] += r.totalMacs();
        sum.stageDram[s] += r.totalDram();
        sum.sramReadBytes += r.sramReadBytes;
        sum.sramWriteBytes += r.sramWriteBytes;
        sum.postProcessingDram += r.postProcessingDram;
        if (per_op)
            per_op->push_back(r);
    }
    return sum;
}

/** The class table partitions the ops into distinct pricing classes. */
void
expectClassPartition(const OpStream &stream)
{
    const std::vector<OpClass> &classes = stream.classes;
    std::vector<std::uint64_t> members(classes.size(), 0);
    std::uint64_t total = 0;
    for (std::size_t c = 0; c < classes.size(); ++c) {
        total += classes[c].count;
        ASSERT_LT(classes[c].firstOp, stream.ops.size());
        EXPECT_EQ(stream.ops[classes[c].firstOp].opClass, c);
        // First-appearance order.
        if (c > 0) {
            EXPECT_LT(classes[c - 1].firstOp, classes[c].firstOp);
        }
        // Distinct classes never price alike.
        for (std::size_t d = 0; d < c; ++d)
            EXPECT_FALSE(samePricingFields(stream.ops[classes[d].firstOp],
                                           stream.ops[classes[c].firstOp]))
                << "classes " << d << " and " << c;
    }
    EXPECT_EQ(total, stream.ops.size());
    for (std::size_t i = 0; i < stream.ops.size(); ++i) {
        const Op &op = stream.ops[i];
        ASSERT_LT(op.opClass, classes.size()) << "op " << i;
        const OpClass &c = classes[op.opClass];
        EXPECT_LE(c.firstOp, i) << "op " << i;
        EXPECT_TRUE(samePricingFields(op, stream.ops[c.firstOp]))
            << "op " << i << " vs its class's first op " << c.firstOp;
        ++members[op.opClass];
    }
    for (std::size_t c = 0; c < classes.size(); ++c)
        EXPECT_EQ(members[c], classes[c].count) << "class " << c;
}

/**
 * Class pricing against the per-op reference on one stream: the
 * untraced and traced results equal the reference field by field, and
 * the trace holds each op's own price and layer name, in op order.
 */
void
expectClassPricingExact(const Network &net, const OpStream &stream)
{
    expectClassPartition(stream);
    for (const AcceleratorConfig &cfg : sweepEngines()) {
        SCOPED_TRACE(cfg.name);
        const Executor exec(cfg);
        std::vector<SimResult> per_op;
        const SimResult ref = pricePerOp(exec, stream, &per_op);
        const SimResult got = exec.run(stream);
        EXPECT_EQ(firstDifference(got, ref), "");

        Trace trace;
        const SimResult traced = exec.run(stream, &trace);
        EXPECT_EQ(firstDifference(traced, ref), "");
        ASSERT_EQ(trace.size(), stream.ops.size());
        Cycles cycles = 0;
        for (std::size_t i = 0; i < trace.size(); ++i) {
            const OpTrace &t = trace[i];
            const Op &op = stream.ops[i];
            EXPECT_EQ(t.index, i);
            EXPECT_EQ(t.type, op.type) << "op " << i;
            EXPECT_EQ(t.stage, op.stage) << "op " << i;
            EXPECT_EQ(t.cycles, per_op[i].totalCycles()) << "op " << i;
            EXPECT_EQ(t.dramBytes, per_op[i].totalDram().total())
                << "op " << i;
            EXPECT_EQ(t.macs, per_op[i].totalMacs()) << "op " << i;
            // GEMMs and norms belong to a layer; clip, reduce and
            // noise run over the whole network.
            const bool whole_network =
                op.type == OpType::kGradClip ||
                op.type == OpType::kGradReduce ||
                op.type == OpType::kNoiseAdd;
            ASSERT_LE(op.layer, net.layers.size()) << "op " << i;
            EXPECT_EQ(op.layer == net.layers.size(), whole_network)
                << "op " << i;
            EXPECT_EQ(t.layerName, whole_network
                                       ? std::string("all_layers")
                                       : net.layers[op.layer].name)
                << "op " << i;
            cycles += t.cycles;
        }
        EXPECT_EQ(cycles, got.totalCycles());
    }
}

TEST(ClassPricing, EqualsPerOpPricingOnTheZoo)
{
    for (const Network &net : allModels()) {
        for (const auto algo :
             {TrainingAlgorithm::kSgd, TrainingAlgorithm::kDpSgd,
              TrainingAlgorithm::kDpSgdR}) {
            for (const int batch : {1, 8, 37}) {
                SCOPED_TRACE(net.name + " " + algorithmName(algo) +
                             " batch " + std::to_string(batch));
                expectClassPricingExact(net,
                                        buildOpStream(net, algo, batch));
            }
        }
        // Micro-batch passes repeat the whole iteration, so they share
        // every class but the once-per-mini-batch noise addition.
        SCOPED_TRACE(net.name + " dpsgdr batch 32 micro 8");
        const OpStream micro = buildMicrobatchedOpStream(
            net, TrainingAlgorithm::kDpSgdR, 32, 8);
        const OpStream pass =
            buildOpStream(net, TrainingAlgorithm::kDpSgdR, 8);
        EXPECT_EQ(micro.classes.size(), pass.classes.size());
        expectClassPricingExact(net, micro);
    }
}

TEST(ClassPricing, EveryPricingFieldSeparatesClasses)
{
    // Variants of two real ops that differ from them in exactly one
    // pricing field must land in classes of their own; a variant that
    // differs only in its layer shares the original's class.
    const Network net = resnet50();
    OpStream stream = buildOpStream(net, TrainingAlgorithm::kDpSgdR, 8);
    Op gemm, norm;
    for (const Op &op : stream.ops) {
        if (op.type == OpType::kGemm && op.perExampleOutput)
            gemm = op;
        if (op.type == OpType::kGradNorm)
            norm = op;
    }
    std::vector<Op> variants;
    auto vary = [&](const Op &base, auto &&edit) {
        Op v = base;
        edit(v);
        variants.push_back(v);
    };
    vary(gemm, [](Op &v) { v.stage = Stage::kPerBatchGrad; });
    vary(gemm, [](Op &v) { v.count += 1; });
    vary(gemm, [](Op &v) { v.perExampleOutput = false; });
    vary(gemm, [](Op &v) { v.shape.m += 1; });
    vary(gemm, [](Op &v) { v.shape.k += 1; });
    vary(gemm, [](Op &v) { v.shape.n += 1; });
    vary(norm, [&](Op &v) {
        v.type = OpType::kGradClip;
        v.layer = std::uint32_t(net.layers.size()); // "all_layers"
    });
    vary(norm, [](Op &v) { v.inElems += 1; });
    vary(norm, [](Op &v) { v.outElems += 1; });
    const std::size_t original = stream.ops.size();
    for (const Op &v : variants)
        stream.ops.push_back(v);
    Op relabelled = gemm;
    relabelled.layer = 0;
    stream.ops.push_back(relabelled);
    const std::size_t classes_before = stream.classes.size();
    indexOpClasses(stream);

    EXPECT_EQ(stream.classes.size(), classes_before + variants.size());
    for (std::size_t v = 0; v < variants.size(); ++v)
        EXPECT_EQ(stream.classes[stream.ops[original + v].opClass].count,
                  1u)
            << "variant " << v;
    EXPECT_GT(stream.classes[stream.ops.back().opClass].count, 1u);
    expectClassPricingExact(net, stream);
}

TEST(ClassPricing, StreamWithoutClassTableIsAnError)
{
    OpStream stream = buildOpStream(squeezenet(), TrainingAlgorithm::kSgd,
                                    4);
    stream.classes.clear();
    const Executor exec(tpuV3Ws());
    EXPECT_THROW(exec.run(stream), std::logic_error);
    Trace trace;
    EXPECT_THROW(exec.run(stream, &trace), std::logic_error);
}

TEST(SimResult, SpeedupAndAccumulation)
{
    SimResult a;
    a.stageCycles[0] = 100;
    SimResult b;
    b.stageCycles[0] = 50;
    EXPECT_DOUBLE_EQ(speedup(a, b), 2.0);
    a += b;
    EXPECT_EQ(a.totalCycles(), 150u);
}

TEST(SimResult, SecondsAtClock)
{
    SimResult r;
    r.stageCycles[0] = 940'000'000;
    EXPECT_NEAR(r.seconds(tpuV3Ws()), 1.0, 1e-9);
}

} // namespace
} // namespace diva
