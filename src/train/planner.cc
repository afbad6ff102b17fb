#include "train/planner.h"

#include <limits>

#include "common/logging.h"

namespace diva
{

namespace
{

/** Marks an empty slot of the class table's probe. */
constexpr std::uint32_t kNoClass = std::numeric_limits<std::uint32_t>::max();

/** Append a GEMM op if the layer produces one for this operation. */
void
pushGemm(OpStream &stream, std::size_t layer, const GemmInstance &gi,
         Stage stage, bool per_example_output = false)
{
    if (!gi.valid())
        return;
    Op op;
    op.type = OpType::kGemm;
    op.stage = stage;
    op.layer = std::uint32_t(layer);
    op.shape = gi.shape;
    op.count = gi.count;
    op.perExampleOutput = per_example_output;
    stream.ops.push_back(op);
}

/** Append a post-processing op over `in` input / `out` output elems. */
void
pushPostProc(OpStream &stream, OpType type, Stage stage,
             std::size_t layer, Elems in, Elems out)
{
    Op op;
    op.type = type;
    op.stage = stage;
    op.layer = std::uint32_t(layer);
    op.inElems = in;
    op.outElems = out;
    stream.ops.push_back(op);
}

void
emitForward(OpStream &stream, const Network &net, int batch)
{
    for (std::size_t i = 0; i < net.layers.size(); ++i)
        pushGemm(stream, i, net.layers[i].forwardGemm(batch),
                 Stage::kForward);
}

void
emitActGrad(OpStream &stream, const Network &net, int batch, Stage stage)
{
    // Reverse layer order; the first layer's input gradient is never
    // needed (there is no upstream layer to propagate it to).
    for (std::size_t i = net.layers.size(); i-- > 1;)
        pushGemm(stream, i, net.layers[i].actGradGemm(batch), stage);
}

void
emitPerBatchWGrad(OpStream &stream, const Network &net, int batch)
{
    for (std::size_t i = net.layers.size(); i-- > 0;)
        pushGemm(stream, i, net.layers[i].perBatchWGradGemm(batch),
                 Stage::kPerBatchGrad);
}

void
emitPerExampleWGradAndNorm(OpStream &stream, const Network &net,
                           int batch)
{
    for (std::size_t i = net.layers.size(); i-- > 0;) {
        const auto &layer = net.layers[i];
        pushGemm(stream, i, layer.perExampleWGradGemm(batch),
                 Stage::kPerExampleGrad, /*per_example_output=*/true);
        if (layer.hasWeights()) {
            const Elems grads =
                Elems(batch) * Elems(layer.paramCount());
            // One squared-norm partial per example per layer.
            pushPostProc(stream, OpType::kGradNorm, Stage::kGradNorm, i,
                         grads, Elems(batch));
        }
    }
}

/** Upper bound on the ops one iteration of `layers` layers emits. */
std::size_t
maxOpsPerPass(TrainingAlgorithm algo, std::size_t layers)
{
    switch (algo) {
      case TrainingAlgorithm::kSgd: return 3 * layers;
      case TrainingAlgorithm::kDpSgd: return 4 * layers + 3;
      case TrainingAlgorithm::kDpSgdR: return 6 * layers + 1;
    }
    return 0;
}

/**
 * An empty stream of `passes` iterations of `net`: header fields, the
 * layer-name table (layer names, then "all_layers") and reserved ops.
 */
OpStream
newStream(const Network &net, TrainingAlgorithm algo, int batch,
          std::size_t passes)
{
    DIVA_ASSERT(!net.layers.empty(), "network '", net.name,
                "' has no layers");
    OpStream stream;
    stream.networkName = net.name;
    stream.algorithm = algo;
    stream.batch = batch;
    stream.layerNames.reserve(net.layers.size() + 1);
    for (const auto &layer : net.layers)
        stream.layerNames.push_back(layer.name);
    stream.layerNames.push_back("all_layers");
    stream.ops.reserve(passes * maxOpsPerPass(algo, net.layers.size()));
    return stream;
}

/**
 * Append one iteration over `batch` examples (Algorithm 1); the noise
 * addition only when `add_noise`.
 */
void
lowerIteration(OpStream &stream, const Network &net,
               TrainingAlgorithm algo, int batch, bool add_noise)
{
    const std::size_t all_layers = net.layers.size();
    const Elems params = Elems(net.paramCount());
    const Elems per_example_grads = Elems(batch) * params;

    emitForward(stream, net, batch);

    switch (algo) {
      case TrainingAlgorithm::kSgd:
        emitActGrad(stream, net, batch, Stage::kActGrad1);
        emitPerBatchWGrad(stream, net, batch);
        break;

      case TrainingAlgorithm::kDpSgd:
        emitActGrad(stream, net, batch, Stage::kActGrad1);
        emitPerExampleWGradAndNorm(stream, net, batch);
        // Algorithm 1, lines 23-24: clip every per-example gradient,
        // reduce into one per-batch gradient, then add noise.
        pushPostProc(stream, OpType::kGradClip, Stage::kGradClip,
                     all_layers, per_example_grads, per_example_grads);
        pushPostProc(stream, OpType::kGradReduce, Stage::kReduceNoise,
                     all_layers, per_example_grads, params);
        if (add_noise)
            pushPostProc(stream, OpType::kNoiseAdd, Stage::kReduceNoise,
                         all_layers, params, params);
        break;

      case TrainingAlgorithm::kDpSgdR:
        // Algorithm 1, lines 28-42: first backprop derives only the
        // per-example norms; the reweighted second backprop fuses the
        // clip/reduce into the per-batch weight-gradient GEMMs.
        emitActGrad(stream, net, batch, Stage::kActGrad1);
        emitPerExampleWGradAndNorm(stream, net, batch);
        emitActGrad(stream, net, batch, Stage::kActGrad2);
        emitPerBatchWGrad(stream, net, batch);
        if (add_noise)
            pushPostProc(stream, OpType::kNoiseAdd, Stage::kReduceNoise,
                         all_layers, params, params);
        break;
    }
}

/**
 * Whether `a` and `b` cost the same on any executor: equal on every
 * field pricing reads. The layer is a label, not a pricing input.
 */
bool
samePricing(const Op &a, const Op &b)
{
    return a.type == b.type && a.stage == b.stage && a.shape == b.shape &&
           a.count == b.count && a.perExampleOutput == b.perExampleOutput &&
           a.inElems == b.inElems && a.outElems == b.outElems;
}

/** Hash of the fields samePricing() compares. */
std::uint64_t
pricingHash(const Op &op)
{
    std::uint64_t h = 0;
    for (const std::uint64_t v :
         {std::uint64_t(op.type), std::uint64_t(op.stage),
          std::uint64_t(op.shape.m), std::uint64_t(op.shape.k),
          std::uint64_t(op.shape.n), op.count,
          std::uint64_t(op.perExampleOutput), op.inElems, op.outElems}) {
        h = (h ^ v) * 0x9e3779b97f4a7c15ULL;
        h ^= h >> 32;
    }
    return h;
}

} // namespace

void
indexOpClasses(OpStream &stream)
{
    // A flat open-addressing table of class indices, sized from the op
    // count (load factor at most 1/2).
    std::vector<Op> &ops = stream.ops;
    DIVA_ASSERT(ops.size() < kNoClass, "op stream of ", ops.size(),
                " ops is too long to index");
    std::size_t capacity = 16;
    while (capacity < 2 * ops.size())
        capacity <<= 1;
    const std::size_t mask = capacity - 1;
    std::vector<std::uint32_t> slots(capacity, kNoClass);
    stream.classes.clear();
    for (std::uint32_t i = 0; i < ops.size(); ++i) {
        Op &op = ops[i];
        std::size_t slot = pricingHash(op) & mask;
        while (slots[slot] != kNoClass &&
               !samePricing(ops[stream.classes[slots[slot]].firstOp], op))
            slot = (slot + 1) & mask;
        if (slots[slot] == kNoClass) {
            slots[slot] = std::uint32_t(stream.classes.size());
            stream.classes.push_back({i, 0});
        }
        op.opClass = slots[slot];
        ++stream.classes[op.opClass].count;
    }
}

OpStream
buildMicrobatchedOpStream(const Network &net, TrainingAlgorithm algo,
                          int batch, int microbatch)
{
    DIVA_ASSERT(batch > 0 && microbatch > 0);
    if (microbatch > batch)
        DIVA_FATAL("micro-batch ", microbatch, " exceeds the mini-batch ",
                   batch);

    const int full_passes = batch / microbatch;
    const int remainder = batch % microbatch;

    OpStream stream = newStream(net, algo, batch,
                                std::size_t(full_passes) + (remainder > 0));
    // Noise is added once per logical mini-batch, after the last
    // micro-batch's gradients are accumulated.
    for (int p = 0; p < full_passes; ++p)
        lowerIteration(stream, net, algo, microbatch,
                       remainder == 0 && p + 1 == full_passes);
    if (remainder > 0)
        lowerIteration(stream, net, algo, remainder, true);
    // Indexed after concatenation, so identical passes share classes.
    indexOpClasses(stream);
    return stream;
}

OpStream
buildOpStream(const Network &net, TrainingAlgorithm algo, int batch)
{
    DIVA_ASSERT(batch > 0, "mini-batch must be positive");
    OpStream stream = newStream(net, algo, batch, 1);
    lowerIteration(stream, net, algo, batch, true);
    indexOpClasses(stream);
    return stream;
}

} // namespace diva
