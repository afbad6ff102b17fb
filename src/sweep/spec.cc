#include "sweep/spec.h"

#include <algorithm>
#include <string>
#include <unordered_set>
#include <utility>

#include "common/logging.h"

namespace diva
{

SweepSpec::Expansion
SweepSpec::expand() const
{
    if (models.empty())
        DIVA_FATAL("sweep spec has no model axis");

    const bool needs_chip_configs =
        std::any_of(backends.begin(), backends.end(),
                    [](SweepBackend b) { return b != SweepBackend::kGpu; });
    const bool has_gpu =
        std::find(backends.begin(), backends.end(), SweepBackend::kGpu) !=
        backends.end();
    if (backends.empty())
        DIVA_FATAL("sweep spec has no backend axis");
    if (needs_chip_configs && configs.empty())
        DIVA_FATAL("sweep spec has no accelerator-config axis");
    if (has_gpu && gpus.empty())
        DIVA_FATAL("sweep spec selects the GPU backend but lists no GPUs");

    // A GPU-only spec still needs one placeholder config to iterate.
    std::vector<AcceleratorConfig> chip_configs = configs;
    if (chip_configs.empty())
        chip_configs.emplace_back();

    // Pod axis defaults to one default-shaped pod.
    std::vector<MultiChipConfig> pod_axis = pods;
    if (pod_axis.empty())
        pod_axis.emplace_back();

    Expansion out;
    std::unordered_set<std::string> seen;

    auto emit = [&](Scenario &&s) {
        ++out.rawCount;
        if (s.backend != SweepBackend::kGpu &&
            !s.config.validationError().empty()) {
            ++out.invalidSkipped;
            return;
        }
        // A row prints the micro-batch it asked for, also where the
        // key leaves it out (GPUs price the monolithic stream), so two
        // such rows stay apart here and share one result in the runner.
        if (!seen.insert(s.canonicalKey() + '|' +
                         std::to_string(s.microbatch))
                 .second) {
            ++out.duplicatesRemoved;
            return;
        }
        out.scenarios.push_back(std::move(s));
    };

    for (const AcceleratorConfig &cfg : chip_configs)
        for (const std::string &model : models)
            for (int scale : modelScales)
                for (TrainingAlgorithm algo : algorithms)
                    for (int batch : batches)
                        for (int microbatch : microbatches)
                            for (SweepBackend backend : backends) {
                                Scenario s;
                                s.config = cfg;
                                s.model = model;
                                s.modelScale = scale;
                                s.algorithm = algo;
                                s.batch = batch;
                                s.microbatch = microbatch;
                                s.backend = backend;
                                s.memoryBudget = memoryBudget;
                                switch (backend) {
                                  case SweepBackend::kSingleChip:
                                    emit(std::move(s));
                                    break;
                                  case SweepBackend::kMultiChip:
                                    for (const MultiChipConfig &pod :
                                         pod_axis) {
                                        Scenario p = s;
                                        p.pod = pod;
                                        emit(std::move(p));
                                    }
                                    break;
                                  case SweepBackend::kGpu:
                                    for (const GpuConfig &gpu : gpus) {
                                        Scenario g = s;
                                        g.gpu = gpu;
                                        emit(std::move(g));
                                    }
                                    break;
                                }
                            }
    return out;
}

} // namespace diva
