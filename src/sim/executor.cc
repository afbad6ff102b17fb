#include "sim/executor.h"

#include <algorithm>

#include "common/logging.h"

namespace diva
{

Executor::Executor(const AcceleratorConfig &cfg)
    : cfg_(cfg), engine_(GemmEngineModel::create(cfg)), dram_(cfg),
      vectorUnit_(cfg)
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

void
Executor::addPostProc(SimResult &result, Stage stage, Cycles compute,
                      Bytes read, Bytes write) const
{
    const auto idx = static_cast<std::size_t>(stage);
    const Cycles mem = dram_.streamingCycles(read + write);
    Cycles cycles = std::max(compute, mem);
    if (read + write > 0)
        cycles += cfg_.dramLatencyCycles;
    result.stageCycles[idx] += cycles;
    result.stageDram[idx].readBytes += read;
    result.stageDram[idx].writeBytes += write;
    result.postProcessingDram.readBytes += read;
    result.postProcessingDram.writeBytes += write;
    // Post-processing data passes through the on-chip buffers once.
    result.sramReadBytes += read;
    result.sramWriteBytes += write;
}

void
Executor::runGemm(SimResult &result, const Op &op,
                  TrainingAlgorithm algo) const
{
    GemmOptions opt;
    if (op.perExampleOutput)
        opt.writeOutputToDram = spillPerExampleGrads(algo);

    const GemmResult r = engine_->simulateBatched(op.shape, op.count,
                                                  opt);
    const auto idx = static_cast<std::size_t>(op.stage);
    result.stageCycles[idx] += r.cycles;
    result.stageMacs[idx] += r.usefulMacs;
    result.stageDram[idx] += r.dram;
    result.sramReadBytes += r.sramReadBytes;
    result.sramWriteBytes += r.sramWriteBytes;

    if (op.perExampleOutput) {
        // Per-example gradient spills exist purely for gradient
        // post-processing; attribute them to that traffic bucket.
        result.postProcessingDram.writeBytes += r.dram.writeBytes;
    }
}

void
Executor::runGradNorm(SimResult &result, const Op &op,
                      TrainingAlgorithm algo) const
{
    if (cfg_.hasPpu) {
        // On-the-fly: the adder trees keep pace with the GEMM engine's
        // drain; only the pipeline depth is exposed, and the gradients
        // generate no norm-related DRAM traffic.
        const PostProcResult pp = ppu_->normOnDrain(op.inElems);
        addPostProc(result, op.stage, pp.cycles, pp.dramReadBytes,
                    pp.dramWriteBytes);
        return;
    }
    (void)algo;
    // No PPU: the spilled per-example gradients are fetched back from
    // DRAM and reduced on the vector unit (Figure 10(a), step 2).
    const Bytes read = Bytes(op.inElems) * cfg_.accumBytes;
    const Cycles compute = vectorUnit_.reductionCycles(op.inElems);
    addPostProc(result, op.stage, compute, read, 0);
}

void
Executor::runGradClip(SimResult &result, const Op &op) const
{
    // Read every per-example gradient, scale by min(1, C/norm), and
    // write it back: element-wise and memory-bandwidth bound.
    const Bytes read = Bytes(op.inElems) * cfg_.accumBytes;
    const Bytes write = Bytes(op.outElems) * cfg_.accumBytes;
    const Cycles compute = vectorUnit_.elementwiseCycles(op.inElems);
    addPostProc(result, op.stage, compute, read, write);
}

void
Executor::runGradReduce(SimResult &result, const Op &op) const
{
    const Bytes read = Bytes(op.inElems) * cfg_.accumBytes;
    const Bytes write = Bytes(op.outElems) * cfg_.accumBytes;
    const Cycles compute =
        ppu_ ? ppu_->reduceOnChip(op.inElems).cycles
             : vectorUnit_.reductionCycles(op.inElems);
    addPostProc(result, op.stage, compute, read, write);
}

void
Executor::runNoiseAdd(SimResult &result, const Op &op) const
{
    const Bytes read = Bytes(op.inElems) * cfg_.accumBytes;
    const Bytes write = Bytes(op.outElems) * cfg_.accumBytes;
    const Cycles compute = vectorUnit_.noiseCycles(op.inElems);
    addPostProc(result, op.stage, compute, read, write);
}

SimResult
Executor::run(const OpStream &stream, Trace *trace) const
{
    SimResult result;
    for (std::size_t i = 0; i < stream.ops.size(); ++i) {
        const Op &op = stream.ops[i];
        // The running totals each loop over every stage and only fill
        // trace records, so untraced runs skip them.
        Cycles cycles_before = 0;
        Bytes dram_before = 0;
        Macs macs_before = 0;
        if (trace) {
            cycles_before = result.totalCycles();
            dram_before = result.totalDram().total();
            macs_before = result.totalMacs();
        }
        switch (op.type) {
          case OpType::kGemm:
            runGemm(result, op, stream.algorithm);
            break;
          case OpType::kGradNorm:
            runGradNorm(result, op, stream.algorithm);
            break;
          case OpType::kGradClip:
            runGradClip(result, op);
            break;
          case OpType::kGradReduce:
            runGradReduce(result, op);
            break;
          case OpType::kNoiseAdd:
            runNoiseAdd(result, op);
            break;
        }
        if (trace) {
            OpTrace t;
            t.index = i;
            t.type = op.type;
            t.stage = op.stage;
            t.layerName = op.layerName;
            if (op.type == OpType::kGemm) {
                t.detail = op.shape.str() + " x" +
                           std::to_string(op.count);
            } else {
                t.detail = std::to_string(op.inElems) + " elems";
            }
            t.cycles = result.totalCycles() - cycles_before;
            t.dramBytes = result.totalDram().total() - dram_before;
            t.macs = result.totalMacs() - macs_before;
            trace->push_back(std::move(t));
        }
    }
    return result;
}

} // namespace diva
