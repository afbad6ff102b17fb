#include "dp/dp_sgd.h"

namespace diva
{

SgdTrainer::SgdTrainer(Mlp &model, double learning_rate)
    : model_(model), learningRate_(learning_rate)
{
}

double
SgdTrainer::step(const Tensor &x, const std::vector<int> &y)
{
    Mlp::Cache cache;
    Tensor dlogits;
    const double loss = model_.lossAndLogitGrad(x, y, cache, dlogits);
    MlpGrads grads = model_.zeroGrads();
    model_.backwardPerBatch(cache, dlogits, grads);
    grads.scale(1.0 / double(x.rows()));
    model_.applyUpdate(grads, learningRate_);
    return loss;
}

} // namespace diva
