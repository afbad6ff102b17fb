/**
 * @file
 * Declarative description of a design-space sweep: cartesian axes over
 * accelerator design points, zoo models, input scales, batch and
 * micro-batch sizes, training algorithms and execution backends.
 * expand() takes the full cartesian product, drops invalid design
 * points (e.g. a WS array with a PPU), and deduplicates scenarios
 * whose canonical keys and micro-batches coincide.
 */

#ifndef DIVA_SWEEP_SPEC_H
#define DIVA_SWEEP_SPEC_H

#include <cstddef>
#include <vector>

#include "sweep/scenario.h"

namespace diva
{

/** Cartesian sweep axes. Empty required axes make expand() fatal. */
struct SweepSpec
{
    /** Accelerator design points (required unless only kGpu backends). */
    std::vector<AcceleratorConfig> configs;

    /** Zoo model names (required; see knownModels()). */
    std::vector<std::string> models;

    /** Input scales; 0 = paper default. */
    std::vector<int> modelScales{0};

    /** Mini-batch sizes; kAutoBatch = Figure-5/13 protocol. */
    std::vector<int> batches{kAutoBatch};

    /** Micro-batch sizes; 0 = monolithic iteration. */
    std::vector<int> microbatches{0};

    std::vector<TrainingAlgorithm> algorithms{TrainingAlgorithm::kDpSgdR};

    std::vector<SweepBackend> backends{SweepBackend::kSingleChip};

    /** Pod shapes crossed in when backends contains kMultiChip. */
    std::vector<MultiChipConfig> pods;

    /** GPU design points crossed in when backends contains kGpu. */
    std::vector<GpuConfig> gpus;

    /** Device-memory budget applied to every kAutoBatch scenario. */
    Bytes memoryBudget = 16_GiB;

    /** Expansion outcome: scenarios plus accounting of what was cut. */
    struct Expansion
    {
        /** Deduplicated scenarios in deterministic axis-major order. */
        std::vector<Scenario> scenarios;

        /** Cartesian-product size before any filtering. */
        std::size_t rawCount = 0;

        /** Combos dropped because the config failed validate(). */
        std::size_t invalidSkipped = 0;

        /** Combos dropped as duplicates: same canonical key and
         *  micro-batch (the one field a row prints that a key may
         *  leave out). */
        std::size_t duplicatesRemoved = 0;
    };

    /**
     * Expand the axes into a deduplicated scenario list. Ordering is
     * deterministic: config-major, then model, scale, algorithm,
     * batch, micro-batch, backend (pods/GPUs innermost); the first
     * occurrence of each (canonical key, micro-batch) survives.
     */
    Expansion expand() const;
};

} // namespace diva

#endif // DIVA_SWEEP_SPEC_H
