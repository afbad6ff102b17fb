/**
 * @file
 * Unit tests for the multi-tenant subsystem: workload validation,
 * policy parsing and the context-switch cost model.
 */

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "energy/energy_model.h"
#include "mem/dram_model.h"
#include "tenant/context_switch.h"
#include "tenant/scheduler.h"
#include "tenant/serve.h"
#include "tenant/tenant.h"

namespace diva
{
namespace
{

TEST(TenantJob, ValidationCatchesBadFields)
{
    TenantJob job;
    job.name = "t";
    job.model = "ResNet-50";
    job.steps = 10;
    EXPECT_EQ(job.validationError(false), "");

    TenantJob bad = job;
    bad.model = "NoSuchNet";
    EXPECT_NE(bad.validationError(false), "");

    bad = job;
    bad.batch = -1;
    EXPECT_NE(bad.validationError(false), "");

    bad = job;
    bad.arrivalSec = -1.0;
    EXPECT_NE(bad.validationError(false), "");

    bad = job;
    bad.qosStepsPerSec = 2.0;
    bad.qosDeadlineSec = 5.0;
    EXPECT_NE(bad.validationError(false), "") << "both QoS kinds set";

    bad = job;
    bad.qosDeadlineSec = 5.0;
    bad.steps = 0;
    EXPECT_NE(bad.validationError(true), "")
        << "deadline target needs bounded steps";

    // Unbounded steps are only valid under a wall budget.
    bad = job;
    bad.steps = 0;
    EXPECT_NE(bad.validationError(false), "");
    EXPECT_EQ(bad.validationError(true), "");
}

TEST(TenantWorkload, ValidationAndDefaultMix)
{
    TenantWorkload empty;
    EXPECT_NE(empty.validationError(false), "");

    const TenantWorkload mix = defaultWorkload(5, 16, 8, 0.5);
    EXPECT_EQ(mix.jobs.size(), 5u);
    EXPECT_EQ(mix.validationError(false), "");
    for (std::size_t i = 0; i < mix.jobs.size(); ++i) {
        EXPECT_EQ(mix.jobs[i].steps, 16u);
        EXPECT_EQ(mix.jobs[i].batch, 8);
        EXPECT_DOUBLE_EQ(mix.jobs[i].arrivalSec, 0.5 * double(i));
    }
    // Rotation must produce distinct models for small mixes.
    EXPECT_NE(mix.jobs[0].model, mix.jobs[1].model);
}

TEST(SchedPolicy, NamesRoundTrip)
{
    for (SchedPolicy p : allPolicies()) {
        const auto parsed = policyFromName(policyName(p));
        ASSERT_TRUE(parsed.has_value()) << policyName(p);
        EXPECT_EQ(*parsed, p);
    }
    EXPECT_EQ(policyFromName("round-robin"), SchedPolicy::kRoundRobin);
    EXPECT_EQ(policyFromName("priority"), SchedPolicy::kPriority);
    EXPECT_EQ(policyFromName("EDF"), SchedPolicy::kEdf);
    EXPECT_FALSE(policyFromName("bogus").has_value());
    EXPECT_FALSE(policyFromName("").has_value());
}

TEST(ContextSwitchModel, ChargesFlushAndRefillThroughDram)
{
    const AcceleratorConfig cfg = divaDefault(true);
    const ContextSwitchModel model(cfg);
    const SwitchCost cost = model.cost();

    // Two dependent streaming transfers of the whole SRAM.
    const DramModel dram(cfg);
    EXPECT_EQ(cost.cycles, 2 * dram.transferCycles(cfg.sramBytes));
    EXPECT_EQ(cost.dramBytes, 2 * cfg.sramBytes);
    EXPECT_DOUBLE_EQ(cost.seconds, cfg.cyclesToSeconds(cost.cycles));

    // Energy covers the data movement plus the engine idle power.
    const double movement =
        double(cost.dramBytes) * (EnergyModel::kSramJoulesPerByte +
                                  EnergyModel::kDramJoulesPerByte);
    EXPECT_GT(cost.energyJ, movement);
    EXPECT_DOUBLE_EQ(cost.energyJ,
                     movement +
                         EnergyModel::enginePowerW(cfg) * cost.seconds);
}

TEST(ContextSwitchModel, ScalesWithSramAndChips)
{
    AcceleratorConfig small = divaDefault(true);
    AcceleratorConfig big = small;
    big.sramBytes = 2 * small.sramBytes;
    EXPECT_GT(ContextSwitchModel(big).cost().cycles,
              ContextSwitchModel(small).cost().cycles);
    EXPECT_GT(ContextSwitchModel(big).cost().energyJ,
              ContextSwitchModel(small).cost().energyJ);

    // A pod flushes every chip's SRAM in parallel: same stall, chips
    // times the energy and traffic.
    const SwitchCost one = ContextSwitchModel(small, 1).cost();
    const SwitchCost pod = ContextSwitchModel(small, 4).cost();
    EXPECT_EQ(pod.cycles, one.cycles);
    EXPECT_EQ(pod.dramBytes, 4 * one.dramBytes);
    EXPECT_NEAR(pod.energyJ, 4.0 * one.energyJ, 1e-12);
}

TEST(SafeRatio, GuardsZeroAndNonFinite)
{
    EXPECT_DOUBLE_EQ(safeRatio(6.0, 3.0), 2.0);
    EXPECT_TRUE(std::isnan(safeRatio(1.0, 0.0)));
    EXPECT_TRUE(std::isnan(
        safeRatio(1.0, std::numeric_limits<double>::infinity())));
    EXPECT_TRUE(std::isnan(
        safeRatio(1.0, std::numeric_limits<double>::quiet_NaN())));
}

} // namespace
} // namespace diva
