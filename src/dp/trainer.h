/**
 * @file
 * Model-generic DP-SGD trainers (Algorithm 1), templated over the
 * model type. A model must provide:
 *
 *   - nested `Cache` type and
 *     `lossAndLogitGrad(x, y, cache, dlogits)`;
 *   - `Grads zeroGrads()` where Grads supports `addScaled`, `scale`,
 *     `l2NormSq` and `forEachTensor(fn)`;
 *   - `perExampleGrad(cache, dlogits, i, grads)`;
 *   - `perExampleGradNormSq(cache, dlogits, i)`;
 *   - `backwardReweighted(cache, dlogits, weights, grads)`;
 *   - `applyUpdate(grads, lr)`.
 *
 * Both Mlp (dp/mlp.h) and ConvNet (dp/convnet.h) satisfy this concept;
 * dp/dp_sgd.h names the Mlp instantiations DpSgdTrainer and
 * DpSgdRTrainer.
 */

#ifndef DIVA_DP_TRAINER_H
#define DIVA_DP_TRAINER_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "dp/tensor.h"

namespace diva
{

/** Hyper-parameters shared by both trainers. */
struct DpSgdConfig
{
    double clipNorm = 1.0;        ///< C, max per-example gradient norm
    double noiseMultiplier = 1.0; ///< sigma
    double learningRate = 0.5;
    std::uint64_t noiseSeed = 0x90155eed;
};

/** Result of deriving one noisy mini-batch gradient. */
struct DpStepResult
{
    double meanLoss = 0.0;
    std::vector<double> perExampleNorms;
    /** Fraction of examples whose gradient hit the clip bound. */
    double clippedFraction = 0.0;
};

/** Shared mechanics of the generic trainers. */
template <typename Model>
class DpTrainerBaseT
{
  public:
    using Grads = decltype(std::declval<Model>().zeroGrads());

    DpTrainerBaseT(Model &model, const DpSgdConfig &cfg)
        : model_(model), cfg_(cfg), noiseRng_(cfg.noiseSeed)
    {
        DIVA_ASSERT(cfg.clipNorm > 0.0, "clip norm must be positive");
        DIVA_ASSERT(cfg.noiseMultiplier >= 0.0);
    }

    virtual ~DpTrainerBaseT() = default;

    /**
     * Derive the differentially private gradient for (x, y): the
     * aggregate of clipped per-example gradients, noised and averaged
     * by the mini-batch size (Algorithm 1, line 24 / 41).
     */
    virtual DpStepResult noisyGradient(const Tensor &x,
                                       const std::vector<int> &y,
                                       Grads &out) = 0;

    /** One full step: noisy gradient + SGD update. */
    DpStepResult
    step(const Tensor &x, const std::vector<int> &y)
    {
        Grads grads = model_.zeroGrads();
        DpStepResult result = noisyGradient(x, y, grads);
        model_.applyUpdate(grads, cfg_.learningRate);
        return result;
    }

    Model &model() { return model_; }
    const DpSgdConfig &config() const { return cfg_; }

  protected:
    /** Clip factor r_i = 1 / max(1, n_i / C). */
    double
    clipFactor(double norm) const
    {
        return 1.0 / std::max(1.0, norm / cfg_.clipNorm);
    }

    /** Add N(0, sigma^2 C^2 I) then scale by 1/B. */
    void
    noiseAndAverage(Grads &grads, std::int64_t batch)
    {
        const double stddev = cfg_.noiseMultiplier * cfg_.clipNorm;
        if (stddev > 0.0) {
            grads.forEachTensor([&](Tensor &t) {
                for (auto &v : t.data())
                    v = float(v + noiseRng_.gaussian(0.0, stddev));
            });
        }
        grads.scale(1.0 / double(batch));
    }

    Model &model_;
    DpSgdConfig cfg_;
    Rng noiseRng_;
};

/** Vanilla DP-SGD for any conforming model. */
template <typename Model>
class DpSgdTrainerT : public DpTrainerBaseT<Model>
{
  public:
    using Base = DpTrainerBaseT<Model>;
    using Grads = typename Base::Grads;
    using Base::Base;

    DpStepResult
    noisyGradient(const Tensor &x, const std::vector<int> &y,
                  Grads &out) override
    {
        DpStepResult result;
        typename Model::Cache cache;
        Tensor dlogits;
        result.meanLoss =
            this->model_.lossAndLogitGrad(x, y, cache, dlogits);

        const std::int64_t batch = x.rows();
        out = this->model_.zeroGrads();
        Grads example = this->model_.zeroGrads();
        std::int64_t clipped = 0;
        for (std::int64_t i = 0; i < batch; ++i) {
            // Algorithm 1, lines 19-23: materialize g_i, derive its
            // norm, scale by min(1, C/n_i), and accumulate.
            this->model_.perExampleGrad(cache, dlogits, i, example);
            const double norm = std::sqrt(example.l2NormSq());
            result.perExampleNorms.push_back(norm);
            const double factor = this->clipFactor(norm);
            if (factor < 1.0)
                ++clipped;
            out.addScaled(example, factor);
        }
        result.clippedFraction = double(clipped) / double(batch);
        this->noiseAndAverage(out, batch);
        return result;
    }
};

/** Reweighted DP-SGD(R) for any conforming model. */
template <typename Model>
class DpSgdRTrainerT : public DpTrainerBaseT<Model>
{
  public:
    using Base = DpTrainerBaseT<Model>;
    using Grads = typename Base::Grads;
    using Base::Base;

    DpStepResult
    noisyGradient(const Tensor &x, const std::vector<int> &y,
                  Grads &out) override
    {
        DpStepResult result;
        typename Model::Cache cache;
        Tensor dlogits;
        result.meanLoss =
            this->model_.lossAndLogitGrad(x, y, cache, dlogits);

        const std::int64_t batch = x.rows();

        // First pass (Algorithm 1, lines 30-33): per-example norms
        // only; no per-example gradient tensor is ever materialized.
        std::vector<double> weights(std::size_t(batch), 0.0);
        std::int64_t clipped = 0;
        for (std::int64_t i = 0; i < batch; ++i) {
            const double norm = std::sqrt(
                this->model_.perExampleGradNormSq(cache, dlogits, i));
            result.perExampleNorms.push_back(norm);
            weights[std::size_t(i)] = this->clipFactor(norm);
            if (weights[std::size_t(i)] < 1.0)
                ++clipped;
        }
        result.clippedFraction = double(clipped) / double(batch);

        // Second pass (lines 35-40): per-batch backprop of the
        // reweighted loss; clipping and reduction are fused into the
        // GEMMs.
        this->model_.backwardReweighted(cache, dlogits, weights, out);
        this->noiseAndAverage(out, batch);
        return result;
    }
};

} // namespace diva

#endif // DIVA_DP_TRAINER_H
