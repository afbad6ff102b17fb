/**
 * @file
 * Quickstart: simulate a handful of GEMMs on the three dataflows and
 * print cycle counts and FLOPS utilization.
 *
 * Shows the paper's core observation in miniature: a per-batch GEMM
 * (large K) runs well on every dataflow, but a per-example
 * weight-gradient GEMM (tiny K) starves systolic arrays while DiVa's
 * outer-product engine stays busy.
 */

#include <cstdio>
#include <iostream>
#include <vector>

#include "arch/accelerator_config.h"
#include "common/table.h"
#include "gemm/engine.h"
#include "gemm/gemm_shape.h"

using namespace diva;

int
main()
{
    struct Case
    {
        const char *desc;
        GemmShape shape;
        std::uint64_t count;
    };
    // An MLP layer (I=O=1024) trained at mini-batch 512 (Figure 6).
    const std::vector<Case> cases = {
        {"forward (B,I,O)", GemmShape(512, 1024, 1024), 1},
        {"per-batch wgrad (I,B,O)", GemmShape(1024, 512, 1024), 1},
        {"per-example wgrad (I,1,O) x B", GemmShape(1024, 1, 1024), 512},
        {"conv per-example (CRS,PQ,K) x B", GemmShape(576, 64, 128), 512},
    };

    const std::vector<AcceleratorConfig> configs = {
        tpuV3Ws(), systolicOs(true), divaDefault(true)};

    std::printf("DiVa quickstart: GEMM latency and utilization by "
                "dataflow\n\n");
    TextTable table({"GEMM", "engine", "cycles", "util", "eff TFLOPS"});
    for (const auto &c : cases) {
        for (const auto &cfg : configs) {
            const GemmResult r =
                GemmEngineModel(cfg).simulateBatched(c.shape, c.count);
            table.addRow({c.desc, cfg.name, std::to_string(r.cycles),
                          TextTable::fmtPct(r.utilization(cfg)),
                          TextTable::fmt(r.effectiveTflops(cfg), 2)});
        }
        table.addSeparator();
    }
    table.print(std::cout);
    return 0;
}
