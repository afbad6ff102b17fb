/**
 * @file
 * A Scenario is one point of a design-space sweep: everything needed
 * to simulate one training iteration -- the accelerator design point,
 * the workload (network-zoo model, input scale, batch/micro-batch,
 * training algorithm) and the execution backend (single chip,
 * data-parallel pod, or roofline GPU model).
 *
 * Scenarios have a canonical string key that identifies the underlying
 * simulation inputs; the sweep runner's result cache and the spec
 * expander's deduplication are both keyed on it.
 */

#ifndef DIVA_SWEEP_SCENARIO_H
#define DIVA_SWEEP_SCENARIO_H

#include <optional>
#include <string>
#include <vector>

#include "arch/accelerator_config.h"
#include "common/types.h"
#include "gpu/gpu_model.h"
#include "models/network.h"
#include "sim/multichip.h"
#include "train/algorithm.h"

namespace diva
{

/**
 * Execution backend that evaluates a scenario; runScenario() switches
 * over it. A new backend is one enum value, one entry in the name
 * table behind backendName() and one case there.
 */
enum class SweepBackend
{
    /** One accelerator chip via Executor. */
    kSingleChip,
    /**
     * Data-parallel pod: one chip's shard priced like kSingleChip,
     * composed into the pod iteration by simulateDataParallel.
     */
    kMultiChip,
    /** Roofline GPU model (Figure 17 protocol). */
    kGpu,
};

/** Short name of a backend ("chip", "pod", "gpu"). */
const char *backendName(SweepBackend b);

/** The backend named `name` by backendName(), or nullopt. */
std::optional<SweepBackend> backendFromName(const std::string &name);

/**
 * Parse a --backends value: comma-separated backend names, kept in
 * the order given with repeats dropped. Returns "" after storing them
 * in *out, or the cli::reject() text naming the known backends.
 */
std::string parseBackendList(const std::string &text,
                             std::vector<SweepBackend> *out);

/**
 * "" when `allowed` is empty (any backend) or holds `needed`, else
 * the "backend 'X' is not in the allowed --backends list" error.
 */
std::string backendAllowedError(const std::vector<SweepBackend> &allowed,
                                SweepBackend needed);

/**
 * Whether `b` models cycles, utilization, energy, off-chip traffic
 * and engine ratings. Every backend models wall-clock seconds; the
 * GPU roofline models nothing else, so its other ScenarioResult
 * fields are defaults, not measured zeros -- emitted as empty, NaN or
 * null cells and left out of summaries and Pareto frontiers.
 */
bool modelsChipMetrics(SweepBackend b);

/** Sentinel batch meaning "largest vanilla DP-SGD batch that fits". */
constexpr int kAutoBatch = 0;

/** One point of a design-space sweep. */
struct Scenario
{
    /** Accelerator design point (ignored by the GPU backend). */
    AcceleratorConfig config;

    /** Network-zoo model name, e.g. "ResNet-50" (see knownModels()). */
    std::string model;

    /**
     * Input scale: image side for CNNs, sequence length for
     * Transformers/RNNs. 0 selects the paper's baseline (32).
     */
    int modelScale = 0;

    /**
     * Mini-batch size. kAutoBatch applies the paper's Figure-5/13
     * protocol: the largest mini-batch vanilla DP-SGD fits under
     * `memoryBudget`.
     */
    int batch = kAutoBatch;

    /**
     * Micro-batch size for gradient accumulation; 0 = monolithic. A
     * pod applies it per chip, to each chip's shard of `batch`; the
     * GPU backend ignores it.
     */
    int microbatch = 0;

    TrainingAlgorithm algorithm = TrainingAlgorithm::kDpSgdR;

    SweepBackend backend = SweepBackend::kSingleChip;

    /** Pod shape; used only by the kMultiChip backend. */
    MultiChipConfig pod;

    /** GPU design point; used only by the kGpu backend. */
    GpuConfig gpu;

    /** Device-memory budget for the kAutoBatch protocol. */
    Bytes memoryBudget = 16_GiB;

    /** Human-readable one-line description. */
    std::string label() const;

    /**
     * Canonical key of the simulation inputs this scenario denotes.
     * Two scenarios with equal keys produce identical results; fields
     * irrelevant to the selected backend (e.g. the accelerator config
     * and the micro-batch under kGpu, the pod shape under kSingleChip)
     * are excluded so sweeps over unrelated axes collapse into one
     * simulation.
     */
    std::string canonicalKey() const;
};

/** Results and metadata of one simulated scenario. */
struct ScenarioResult
{
    Scenario scenario;

    /** Concrete mini-batch after kAutoBatch resolution. */
    int resolvedBatch = 0;

    Cycles cycles = 0;
    /**
     * Compute / communication split of `cycles`. Single-chip scenarios
     * are all compute; pod scenarios split into the slowest chip's
     * local iteration and the ring all-reduce. Zero for the GPU
     * backend (the roofline model has no cycle notion; see
     * modelsChipMetrics()).
     */
    Cycles computeCycles = 0;
    Cycles allReduceCycles = 0;
    double seconds = 0.0;
    /** Effective FLOPS utilization (chip and pod backends). */
    double utilization = 0.0;
    /** Iteration energy in joules; pod scenarios sum over all chips. */
    double energyJ = 0.0;
    Bytes dramBytes = 0;
    /** Gradient post-processing off-chip traffic (the PPU's target). */
    Bytes postProcDramBytes = 0;
    double enginePowerW = 0.0;
    double engineAreaMm2 = 0.0;

    /** Whether this result was served from the sweep cache. */
    bool cacheHit = false;

    /** Non-empty when the simulation failed (e.g. invalid batch). */
    std::string error;

    bool ok() const { return error.empty(); }
};

/**
 * Build a zoo model by name and input scale (0 = paper default).
 * Calls DIVA_FATAL for unknown names.
 */
Network buildModel(const std::string &name, int scale = 0);

/** Names accepted by buildModel, in the paper's figure ordering. */
std::vector<std::string> knownModels();

/**
 * Resolve a scenario's mini-batch: explicit batches pass through,
 * kAutoBatch applies the Figure-5/13 protocol against the scenario's
 * memory budget (never below 1).
 */
int resolveBatch(const Scenario &s, const Network &net);

} // namespace diva

#endif // DIVA_SWEEP_SCENARIO_H
