/**
 * @file
 * Typed operations emitted by the training planner and consumed by the
 * executor. A training iteration is a linear stream of GEMM ops and
 * gradient post-processing ops, each tagged with its Figure-5 stage.
 */

#ifndef DIVA_TRAIN_OP_H
#define DIVA_TRAIN_OP_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "gemm/gemm_shape.h"
#include "sim/stage.h"
#include "train/algorithm.h"

namespace diva
{

/** Operation categories. */
enum class OpType
{
    kGemm,       ///< matrix multiplication (possibly a batch of them)
    kGradNorm,   ///< per-example L2-norm derivation over weight grads
    kGradClip,   ///< per-example gradient scaling by min(1, C/norm)
    kGradReduce, ///< sum of per-example grads into one per-batch grad
    kNoiseAdd,   ///< Gaussian noise addition to the per-batch grad
};

const char *opTypeName(OpType t);

/**
 * One operation of a training iteration (72 bytes on LP64). The layer
 * is an index into its stream's `layerNames` rather than a string, so
 * lowering a stream allocates nothing per op.
 */
struct Op
{
    OpType type = OpType::kGemm;
    /** Index into OpStream::layerNames. */
    std::uint32_t layer = 0;
    Stage stage = Stage::kForward;

    /** GEMM payload: `count` independent GEMMs of shape `shape`. */
    GemmShape shape;
    std::uint64_t count = 1;

    /**
     * Marks the per-example weight-gradient GEMMs whose outputs may be
     * consumed on-the-fly by the PPU instead of being committed to DRAM.
     */
    bool perExampleOutput = false;

    /** Index into OpStream::classes (set by indexOpClasses()). */
    std::uint32_t opClass = 0;

    /** Post-processing payload: total elements read / written. */
    Elems inElems = 0;
    Elems outElems = 0;

    Macs gemmMacs() const
    {
        return type == OpType::kGemm ? shape.macs() * count : 0;
    }
};

/** A class of identically priced ops: the first of them, and how many. */
struct OpClass
{
    std::uint32_t firstOp = 0;
    std::uint32_t count = 0;
};

/**
 * A full training iteration for one network/algorithm/batch triple.
 *
 * Zoo networks repeat their layers, so most ops of a stream price
 * exactly like an earlier one. The planner groups ops that agree on
 * every field pricing reads (type, stage, GEMM shape and count,
 * per-example flag, in/out elements; not the layer) into classes, in
 * first-appearance order, and the executor prices each class once:
 * `classes` partitions `ops`, and every op's `opClass` names its
 * class. The planner's builders index every stream they produce (see
 * indexOpClasses() in train/planner.h).
 */
struct OpStream
{
    std::string networkName;
    TrainingAlgorithm algorithm = TrainingAlgorithm::kSgd;
    int batch = 0;

    /**
     * The network's layer names in layer order, then "all_layers" for
     * the whole-network post-processing ops; stored once per stream.
     */
    std::vector<std::string> layerNames;
    std::vector<Op> ops;
    std::vector<OpClass> classes;

    Macs totalGemmMacs() const;
};

} // namespace diva

#endif // DIVA_TRAIN_OP_H
