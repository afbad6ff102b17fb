/**
 * @file
 * Tests for the model-generic DP trainers on ConvNets: the templated
 * DpSgdTrainerT/DpSgdRTrainerT must train them with the same DP
 * guarantees (equivalence, clipping) as MLPs (test_dp_sgd.cc covers
 * the Mlp instantiations).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "dp/convnet.h"
#include "dp/data.h"
#include "dp/trainer.h"

namespace diva
{
namespace
{

ConvGeometry
smallGeom()
{
    ConvGeometry g;
    g.inChannels = 1;
    g.outChannels = 4;
    g.kernelH = g.kernelW = 3;
    g.stride = 1;
    g.padding = 1;
    g.inH = g.inW = 6;
    return g;
}

TEST(GenericTrainer, ConvNetEquivalenceVanillaVsReweighted)
{
    const ConvGeometry g = smallGeom();
    Rng rng_a(5), rng_b(5);
    ConvNet model_a(g, 3, rng_a);
    ConvNet model_b(g, 3, rng_b);
    DpSgdConfig cfg;
    cfg.clipNorm = 0.3;
    cfg.noiseMultiplier = 0.7;
    cfg.noiseSeed = 42;
    DpSgdTrainerT<ConvNet> vanilla(model_a, cfg);
    DpSgdRTrainerT<ConvNet> reweighted(model_b, cfg);

    Rng data(6);
    Dataset ds = makeSyntheticClassification(
        8, int(g.inChannels * g.inH * g.inW), 3, data);
    ConvNetGrads ga = model_a.zeroGrads();
    ConvNetGrads gb = model_b.zeroGrads();
    const DpStepResult ra = vanilla.noisyGradient(ds.x, ds.y, ga);
    const DpStepResult rb = reweighted.noisyGradient(ds.x, ds.y, gb);

    EXPECT_NEAR(ra.meanLoss, rb.meanLoss, 1e-9);
    EXPECT_DOUBLE_EQ(ra.clippedFraction, rb.clippedFraction);
    for (std::size_t i = 0; i < ra.perExampleNorms.size(); ++i)
        EXPECT_NEAR(ra.perExampleNorms[i], rb.perExampleNorms[i],
                    1e-4);
    EXPECT_LT(ga.maxAbsDiff(gb), 1e-4);
}

TEST(GenericTrainer, ConvNetClippedAggregateRespectsBound)
{
    const ConvGeometry g = smallGeom();
    Rng rng(7);
    ConvNet model(g, 3, rng);
    DpSgdConfig cfg;
    cfg.clipNorm = 0.05;
    cfg.noiseMultiplier = 0.0;
    DpSgdTrainerT<ConvNet> trainer(model, cfg);
    Rng data(8);
    Dataset ds = makeSyntheticClassification(
        16, int(g.inChannels * g.inH * g.inW), 3, data);
    ConvNetGrads grads = model.zeroGrads();
    const DpStepResult r = trainer.noisyGradient(ds.x, ds.y, grads);
    EXPECT_NEAR(r.clippedFraction, 1.0, 1e-9);
    EXPECT_LE(std::sqrt(grads.l2NormSq()), cfg.clipNorm + 1e-6);
}

TEST(GenericTrainer, ConvNetStepImprovesLoss)
{
    const ConvGeometry g = smallGeom();
    Rng rng(9);
    ConvNet model(g, 3, rng);
    DpSgdConfig cfg;
    cfg.clipNorm = 1.0;
    cfg.noiseMultiplier = 0.3;
    cfg.learningRate = 0.1;
    DpSgdRTrainerT<ConvNet> trainer(model, cfg);
    Rng data(10);
    Dataset ds = makeSyntheticClassification(
        256, int(g.inChannels * g.inH * g.inW), 3, data, 4.0);
    Rng batch_rng(11);
    Tensor x;
    std::vector<int> y;
    double first = 0.0, last = 0.0;
    for (int step = 0; step < 40; ++step) {
        sampleBatch(ds, 16, batch_rng, x, y);
        const DpStepResult r = trainer.step(x, y);
        if (step == 0)
            first = r.meanLoss;
        last = r.meanLoss;
    }
    EXPECT_LT(last, first);
}

} // namespace
} // namespace diva
