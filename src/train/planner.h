/**
 * @file
 * The training planner: lowers (network, algorithm, mini-batch) into
 * the linear op stream of one training iteration, following Algorithm 1
 * of the paper.
 *
 *   SGD:       fwd -> actgrad -> per-batch wgrad
 *   DP-SGD:    fwd -> actgrad -> per-example wgrad -> norm -> clip
 *              -> reduce -> noise
 *   DP-SGD(R): fwd -> actgrad(1st) -> per-example wgrad -> norm
 *              -> actgrad(2nd) -> per-batch wgrad (reweighted) -> noise
 */

#ifndef DIVA_TRAIN_PLANNER_H
#define DIVA_TRAIN_PLANNER_H

#include "models/network.h"
#include "train/algorithm.h"
#include "train/op.h"

namespace diva
{

/** Build the op stream of one training iteration. */
OpStream buildOpStream(const Network &net, TrainingAlgorithm algo,
                       int batch);

/**
 * Build one training iteration that processes a logical mini-batch of
 * `batch` examples as ceil(batch / microbatch) sequential micro-batch
 * passes with gradient accumulation -- the standard mitigation for
 * DP-SGD's B x sizeof(G(W)) memory wall (Section III-A): only one
 * micro-batch's per-example gradients are ever alive, at the cost of
 * re-running forward/backward per micro-batch.
 *
 * Noise is still added exactly once per logical mini-batch, so the
 * privacy guarantee is identical to the monolithic iteration.
 */
OpStream buildMicrobatchedOpStream(const Network &net,
                                   TrainingAlgorithm algo, int batch,
                                   int microbatch);

/**
 * Group `stream`'s ops into pricing classes, in first-appearance
 * order: ops that agree on every field pricing reads share a class
 * (see OpStream). Both builders call it on the finished stream; a
 * stream assembled by hand needs it before Executor::run.
 */
void indexOpClasses(OpStream &stream);

} // namespace diva

#endif // DIVA_TRAIN_PLANNER_H
