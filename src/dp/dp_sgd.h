/**
 * @file
 * Functional DP-SGD and DP-SGD(R) trainers for the Mlp (Algorithm 1 of
 * the paper), plus the non-private SGD baseline.
 *
 * DpSgdTrainer materializes every per-example gradient, clips each to
 * the max norm C, aggregates, and adds N(0, sigma^2 C^2 I) noise.
 * DpSgdRTrainer derives per-example norms *without* materializing the
 * gradients (first pass), then runs a reweighted second backward pass
 * whose per-batch gradient equals the sum of clipped per-example
 * gradients (Lee & Kifer). Given the same RNG seed, the two trainers
 * produce identical noisy updates -- a key property test. Both are the
 * model-generic trainers of dp/trainer.h instantiated on Mlp.
 */

#ifndef DIVA_DP_DP_SGD_H
#define DIVA_DP_DP_SGD_H

#include <vector>

#include "dp/mlp.h"
#include "dp/tensor.h"
#include "dp/trainer.h"

namespace diva
{

/** Vanilla DP-SGD (Algorithm 1, DERIVE_DP_GRADIENTS). */
using DpSgdTrainer = DpSgdTrainerT<Mlp>;

/** Reweighted DP-SGD (Algorithm 1, DERIVE_REWEIGHTED_DP_GRADIENTS). */
using DpSgdRTrainer = DpSgdRTrainerT<Mlp>;

/** Non-private SGD baseline with the same interfaces. */
class SgdTrainer
{
  public:
    SgdTrainer(Mlp &model, double learning_rate);

    /** One training step; returns the mean loss. */
    double step(const Tensor &x, const std::vector<int> &y);

  private:
    Mlp &model_;
    double learningRate_;
};

} // namespace diva

#endif // DIVA_DP_DP_SGD_H
