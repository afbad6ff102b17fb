#include "sim/executor.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"

namespace diva
{

Executor::Executor(const AcceleratorConfig &cfg)
    : cfg_(cfg), engine_(cfg), dram_(cfg), vectorUnit_(cfg)
{
    if (cfg_.hasPpu)
        ppu_.emplace(cfg_);
}

bool
Executor::spillPerExampleGrads(TrainingAlgorithm algo) const
{
    if (algo == TrainingAlgorithm::kDpSgd) {
        // The clip stage consumes every per-example gradient after the
        // global per-example norm is known; they must be materialized.
        return true;
    }
    // DP-SGD(R): the gradients only feed norm derivation. With a PPU
    // they are consumed on drain and discarded; without one, they are
    // spilled so the vector unit can re-read them.
    return !cfg_.hasPpu;
}

Executor::OpCost
Executor::postProcCost(Cycles compute, Bytes read, Bytes write) const
{
    OpCost cost;
    const Cycles mem = dram_.streamingCycles(read + write);
    cost.cycles = std::max(compute, mem);
    if (read + write > 0)
        cost.cycles += cfg_.dramLatencyCycles;
    cost.dram = {read, write};
    cost.postProcessingDram = {read, write};
    // Post-processing data passes through the on-chip buffers once.
    cost.sramReadBytes = read;
    cost.sramWriteBytes = write;
    return cost;
}

Executor::OpCost
Executor::runGemm(const Op &op, TrainingAlgorithm algo) const
{
    GemmOptions opt;
    if (op.perExampleOutput)
        opt.writeOutputToDram = spillPerExampleGrads(algo);

    const GemmResult r = engine_.simulateBatched(op.shape, op.count, opt);
    OpCost cost;
    cost.cycles = r.cycles;
    cost.macs = r.usefulMacs;
    cost.dram = r.dram;
    cost.sramReadBytes = r.sramReadBytes;
    cost.sramWriteBytes = r.sramWriteBytes;

    if (op.perExampleOutput) {
        // Per-example gradient spills exist purely for gradient
        // post-processing; attribute them to that traffic bucket.
        cost.postProcessingDram.writeBytes = r.dram.writeBytes;
    }
    return cost;
}

Executor::OpCost
Executor::runGradNorm(const Op &op) const
{
    if (cfg_.hasPpu) {
        // On-the-fly: the adder trees keep pace with the GEMM engine's
        // drain; only the pipeline depth is exposed, and the gradients
        // generate no norm-related DRAM traffic.
        const PostProcResult pp = ppu_->normOnDrain(op.inElems);
        return postProcCost(pp.cycles, pp.dramReadBytes,
                            pp.dramWriteBytes);
    }
    // No PPU: the spilled per-example gradients are fetched back from
    // DRAM and reduced on the vector unit (Figure 10(a), step 2).
    const Bytes read = Bytes(op.inElems) * cfg_.accumBytes;
    const Cycles compute = vectorUnit_.reductionCycles(op.inElems);
    return postProcCost(compute, read, 0);
}

Executor::OpCost
Executor::runGradClip(const Op &op) const
{
    // Read every per-example gradient, scale by min(1, C/norm), and
    // write it back: element-wise and memory-bandwidth bound.
    const Bytes read = Bytes(op.inElems) * cfg_.accumBytes;
    const Bytes write = Bytes(op.outElems) * cfg_.accumBytes;
    const Cycles compute = vectorUnit_.elementwiseCycles(op.inElems);
    return postProcCost(compute, read, write);
}

Executor::OpCost
Executor::runGradReduce(const Op &op) const
{
    const Bytes read = Bytes(op.inElems) * cfg_.accumBytes;
    const Bytes write = Bytes(op.outElems) * cfg_.accumBytes;
    const Cycles compute =
        ppu_ ? ppu_->reduceOnChip(op.inElems).cycles
             : vectorUnit_.reductionCycles(op.inElems);
    return postProcCost(compute, read, write);
}

Executor::OpCost
Executor::runNoiseAdd(const Op &op) const
{
    const Bytes read = Bytes(op.inElems) * cfg_.accumBytes;
    const Bytes write = Bytes(op.outElems) * cfg_.accumBytes;
    const Cycles compute = vectorUnit_.noiseCycles(op.inElems);
    return postProcCost(compute, read, write);
}

Executor::OpCost
Executor::price(const Op &op, TrainingAlgorithm algo) const
{
    switch (op.type) {
      case OpType::kGemm: return runGemm(op, algo);
      case OpType::kGradNorm: return runGradNorm(op);
      case OpType::kGradClip: return runGradClip(op);
      case OpType::kGradReduce: return runGradReduce(op);
      case OpType::kNoiseAdd: return runNoiseAdd(op);
    }
    DIVA_PANIC("unknown op type ", int(op.type));
}

SimResult
Executor::run(const OpStream &stream, Trace *trace) const
{
    SimResult result;
    // Class costs are kept only to write the trace records.
    std::vector<OpCost> class_costs;
    if (trace)
        class_costs.reserve(stream.classes.size());
    std::size_t priced = 0;
    for (const OpClass &c : stream.classes) {
        const Op &op = stream.ops[c.firstOp];
        const OpCost cost = price(op, stream.algorithm);
        const std::uint64_t n = c.count;
        const auto idx = static_cast<std::size_t>(op.stage);
        result.stageCycles[idx] += n * cost.cycles;
        result.stageMacs[idx] += n * cost.macs;
        result.stageDram[idx].readBytes += n * cost.dram.readBytes;
        result.stageDram[idx].writeBytes += n * cost.dram.writeBytes;
        result.sramReadBytes += n * cost.sramReadBytes;
        result.sramWriteBytes += n * cost.sramWriteBytes;
        result.postProcessingDram.readBytes +=
            n * cost.postProcessingDram.readBytes;
        result.postProcessingDram.writeBytes +=
            n * cost.postProcessingDram.writeBytes;
        priced += c.count;
        if (trace)
            class_costs.push_back(cost);
    }
    DIVA_ASSERT(priced == stream.ops.size(), "op stream '",
                stream.networkName, "': its class table covers ", priced,
                " of ", stream.ops.size(), " ops");
    if (!trace)
        return result;

    for (std::size_t i = 0; i < stream.ops.size(); ++i) {
        const Op &op = stream.ops[i];
        DIVA_ASSERT(op.opClass < class_costs.size(), "op ", i,
                    " names class ", op.opClass, " of ",
                    class_costs.size());
        const OpCost &cost = class_costs[op.opClass];
        OpTrace t;
        t.index = i;
        t.type = op.type;
        t.stage = op.stage;
        t.layerName = stream.layerNames[op.layer];
        if (op.type == OpType::kGemm) {
            t.detail = op.shape.str() + " x" + std::to_string(op.count);
        } else {
            t.detail = std::to_string(op.inElems) + " elems";
        }
        t.cycles = cost.cycles;
        t.dramBytes = cost.dram.total();
        t.macs = cost.macs;
        trace->push_back(std::move(t));
    }
    return result;
}

} // namespace diva
