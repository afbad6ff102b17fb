#include "arch/accelerator_config.h"

#include <functional>

#include "common/logging.h"

namespace diva
{

const char *
dataflowName(Dataflow df)
{
    switch (df) {
      case Dataflow::kWeightStationary: return "WS";
      case Dataflow::kOutputStationary: return "OS";
      case Dataflow::kOuterProduct: return "DiVa";
    }
    return "?";
}

std::optional<Dataflow>
dataflowFromName(const std::string &name)
{
    for (Dataflow df : {Dataflow::kWeightStationary,
                        Dataflow::kOutputStationary, Dataflow::kOuterProduct})
        if (name == dataflowName(df))
            return df;
    return std::nullopt;
}

std::string
AcceleratorConfig::validationError() const
{
    if (peRows <= 0 || peCols <= 0)
        return detail::concat("PE array dimensions must be positive: ",
                              peRows, "x", peCols);
    if (freqGhz <= 0.0)
        return detail::concat("clock frequency must be positive: ",
                              freqGhz);
    if (sramBytes == 0)
        return "on-chip SRAM capacity must be non-zero";
    if (dramBandwidthGBs <= 0.0)
        return detail::concat("DRAM bandwidth must be positive: ",
                              dramBandwidthGBs);
    if (weightFillRowsPerCycle <= 0)
        return "weight fill rate must be positive";
    if (drainRowsPerCycle <= 0 || drainRowsPerCycle > peRows)
        return detail::concat("drain rate must be in [1, peRows]: ",
                              drainRowsPerCycle);
    if (hasPpu && dataflow == Dataflow::kWeightStationary)
        return "a WS systolic array cannot host the PPU: its output "
               "granularity (tens of MBs in vector memory) defeats "
               "on-the-fly norm derivation (Section IV-C)";
    if (inputBytes <= 0 || accumBytes <= 0)
        return "element widths must be positive";
    return "";
}

void
AcceleratorConfig::validate() const
{
    const std::string error = validationError();
    if (!error.empty())
        DIVA_FATAL(error);
}

bool
operator==(const AcceleratorConfig &a, const AcceleratorConfig &b)
{
    return a.name == b.name && a.dataflow == b.dataflow &&
           a.peRows == b.peRows && a.peCols == b.peCols &&
           a.freqGhz == b.freqGhz && a.sramBytes == b.sramBytes &&
           a.dramBandwidthGBs == b.dramBandwidthGBs &&
           a.dramLatencyCycles == b.dramLatencyCycles &&
           a.weightFillRowsPerCycle == b.weightFillRowsPerCycle &&
           a.wsDoubleBufferWeights == b.wsDoubleBufferWeights &&
           a.drainRowsPerCycle == b.drainRowsPerCycle &&
           a.hasPpu == b.hasPpu && a.inputBytes == b.inputBytes &&
           a.accumBytes == b.accumBytes && a.vectorLanes == b.vectorLanes;
}

bool
operator!=(const AcceleratorConfig &a, const AcceleratorConfig &b)
{
    return !(a == b);
}

namespace
{

/** Boost-style hash combine. */
template <typename T>
void
hashCombine(std::size_t &seed, const T &value)
{
    seed ^= std::hash<T>{}(value) + 0x9e3779b97f4a7c15ull + (seed << 6) +
            (seed >> 2);
}

} // namespace

std::size_t
configHash(const AcceleratorConfig &cfg)
{
    // Fields are folded in a fixed canonical (alphabetical) sequence,
    // decoupled from the struct's declaration order.
    std::size_t seed = 0;
    hashCombine(seed, cfg.accumBytes);
    hashCombine(seed, static_cast<int>(cfg.dataflow));
    hashCombine(seed, cfg.drainRowsPerCycle);
    hashCombine(seed, cfg.dramBandwidthGBs);
    hashCombine(seed, cfg.dramLatencyCycles);
    hashCombine(seed, cfg.freqGhz);
    hashCombine(seed, cfg.hasPpu);
    hashCombine(seed, cfg.inputBytes);
    hashCombine(seed, cfg.name);
    hashCombine(seed, cfg.peCols);
    hashCombine(seed, cfg.peRows);
    hashCombine(seed, cfg.sramBytes);
    hashCombine(seed, cfg.vectorLanes);
    hashCombine(seed, cfg.weightFillRowsPerCycle);
    hashCombine(seed, cfg.wsDoubleBufferWeights);
    return seed;
}

AcceleratorConfig
tpuV3Ws()
{
    AcceleratorConfig cfg;
    cfg.name = "Systolic-WS";
    cfg.dataflow = Dataflow::kWeightStationary;
    cfg.hasPpu = false;
    return cfg;
}

AcceleratorConfig
systolicOs(bool with_ppu)
{
    AcceleratorConfig cfg;
    cfg.name = with_ppu ? "Systolic-OS+PPU" : "Systolic-OS";
    cfg.dataflow = Dataflow::kOutputStationary;
    cfg.hasPpu = with_ppu;
    return cfg;
}

AcceleratorConfig
divaDefault(bool with_ppu)
{
    AcceleratorConfig cfg;
    cfg.name = with_ppu ? "DiVa" : "DiVa-noPPU";
    cfg.dataflow = Dataflow::kOuterProduct;
    cfg.hasPpu = with_ppu;
    return cfg;
}

AcceleratorConfig
presetConfig(Dataflow df, std::optional<bool> ppu)
{
    const bool with_ppu = ppu.value_or(df != Dataflow::kWeightStationary);
    switch (df) {
      case Dataflow::kWeightStationary: {
        AcceleratorConfig cfg = tpuV3Ws();
        cfg.hasPpu = with_ppu;
        return cfg;
      }
      case Dataflow::kOutputStationary:
        return systolicOs(with_ppu);
      case Dataflow::kOuterProduct:
        return divaDefault(with_ppu);
    }
    return {};
}

} // namespace diva
