#include "sweep/scenario.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <functional>
#include <map>
#include <sstream>
#include <string_view>
#include <utility>

#include "common/cli.h"
#include "common/logging.h"
#include "models/zoo.h"
#include "train/memory_model.h"

namespace diva
{

namespace
{

/** The one backend name table, in --help and error-message order. */
constexpr std::pair<SweepBackend, const char *> kBackendNames[] = {
    {SweepBackend::kSingleChip, "chip"},
    {SweepBackend::kMultiChip, "pod"},
    {SweepBackend::kGpu, "gpu"},
};

} // namespace

const char *
backendName(SweepBackend b)
{
    for (const auto &[backend, name] : kBackendNames)
        if (backend == b)
            return name;
    return "?";
}

std::optional<SweepBackend>
backendFromName(const std::string &name)
{
    for (const auto &[backend, n] : kBackendNames)
        if (name == n)
            return backend;
    return std::nullopt;
}

std::string
parseBackendList(const std::string &text, std::vector<SweepBackend> *out)
{
    std::vector<SweepBackend> backends;
    for (const std::string &name : cli::splitList(text)) {
        const std::optional<SweepBackend> b = backendFromName(name);
        if (!b) {
            std::string known;
            for (const auto &[backend, n] : kBackendNames)
                known += (known.empty() ? "" : ", ") + std::string(n);
            return cli::reject("must name backends (" + known + ")", name);
        }
        if (std::find(backends.begin(), backends.end(), *b) ==
            backends.end())
            backends.push_back(*b);
    }
    if (backends.empty())
        return cli::reject("needs at least one item", text);
    *out = std::move(backends);
    return "";
}

std::string
backendAllowedError(const std::vector<SweepBackend> &allowed,
                    SweepBackend needed)
{
    if (allowed.empty() ||
        std::find(allowed.begin(), allowed.end(), needed) != allowed.end())
        return "";
    return "backend '" + std::string(backendName(needed)) +
           "' is not in the allowed --backends list";
}

bool
modelsChipMetrics(SweepBackend b)
{
    return b != SweepBackend::kGpu;
}

std::string
Scenario::label() const
{
    std::ostringstream oss;
    if (backend == SweepBackend::kGpu)
        oss << gpu.name;
    else
        oss << config.name;
    if (backend == SweepBackend::kMultiChip) {
        oss << " x" << pod.numChips;
        // Spell out the link design point: pods differing only in
        // interconnect must stay tellable apart in reports.
        oss << " ici=" << pod.interconnectGBs << "GB/s lat="
            << pod.linkLatencyCycles;
    }
    oss << " / " << model;
    if (modelScale != 0)
        oss << "@" << modelScale;
    oss << " / " << algorithmName(algorithm) << " / b=";
    if (batch == kAutoBatch)
        oss << "auto";
    else
        oss << batch;
    if (microbatch > 0)
        oss << " mb=" << microbatch;
    return oss.str();
}

namespace
{

/**
 * Appends key fields to one string, printing every value exactly as a
 * std::ostream with default flags would: integers in decimal, bools as
 * 0/1 and doubles as printf's %g (precision 6; shortest round-trip
 * would differ, e.g. 123456789 where %g prints 1.23457e+08). Existing
 * disk stores are indexed by these bytes, so they must not drift.
 */
class KeyWriter
{
  public:
    explicit KeyWriter(std::string &out) : out_(out) {}

    KeyWriter &operator<<(std::string_view s)
    {
        out_ += s;
        return *this;
    }
    KeyWriter &operator<<(const char *s)
    {
        out_ += s;
        return *this;
    }
    KeyWriter &operator<<(char c)
    {
        out_ += c;
        return *this;
    }
    KeyWriter &operator<<(bool b)
    {
        out_ += b ? '1' : '0';
        return *this;
    }
    KeyWriter &operator<<(int v) { return number(v); }
    KeyWriter &operator<<(std::uint64_t v) { return number(v); }
    KeyWriter &operator<<(double v)
    {
        return number(v, std::chars_format::general, 6);
    }

  private:
    template <typename T, typename... Format>
    KeyWriter &number(T v, Format... format)
    {
        char buf[32];
        const auto res = std::to_chars(buf, buf + sizeof(buf), v, format...);
        out_.append(buf, res.ptr);
        return *this;
    }

    std::string &out_;
};

/**
 * Serialize every simulated AcceleratorConfig field. The cache and
 * dedup treat equal keys as identical simulation inputs, so the key
 * spells the values out rather than trusting a 64-bit configHash
 * whose collisions would silently alias two design points.
 */
void
appendConfigKey(KeyWriter &key, const AcceleratorConfig &c)
{
    key << c.name << ';' << dataflowName(c.dataflow) << ';' << c.peRows
        << ';' << c.peCols << ';' << c.freqGhz << ';' << c.sramBytes
        << ';' << c.dramBandwidthGBs << ';' << c.dramLatencyCycles
        << ';' << c.weightFillRowsPerCycle << ';'
        << c.wsDoubleBufferWeights << ';' << c.drainRowsPerCycle << ';'
        << c.hasPpu << ';' << c.inputBytes << ';' << c.accumBytes << ';'
        << c.vectorLanes;
}

} // namespace

std::string
Scenario::canonicalKey() const
{
    std::string out;
    out.reserve(128);
    KeyWriter key(out);
    // GPUs price the monolithic stream (runScenario), so their
    // micro-batch never reaches the result and keys as 0.
    key << backendName(backend) << '|' << model << '|' << modelScale
        << '|' << algorithmName(algorithm) << '|' << batch << '|'
        << (backend == SweepBackend::kGpu ? 0 : microbatch);
    // The auto-batch protocol depends on the budget only when active.
    if (batch == kAutoBatch)
        key << "|mem=" << memoryBudget;
    switch (backend) {
      case SweepBackend::kSingleChip:
        key << "|cfg=";
        appendConfigKey(key, config);
        break;
      case SweepBackend::kMultiChip:
        key << "|cfg=";
        appendConfigKey(key, config);
        key << "|chips=" << pod.numChips << "|ici="
            << pod.interconnectGBs << "|lat=" << pod.linkLatencyCycles;
        // Pods apply the micro-batch per chip. Stores written before
        // they did hold micro-batched pod rows priced without it; the
        // marker leaves those entries unreachable.
        if (microbatch > 0)
            key << "|mb=per-chip";
        break;
      case SweepBackend::kGpu:
        // Key on every timing-relevant GpuConfig field, not just the
        // display name, so distinct GPU design points sharing a name
        // never collapse in dedup or the result cache.
        key << "|gpu=" << gpu.name << ';' << gpu.peakTflops << ';'
            << gpu.bandwidthGBs << ';' << gpu.numSms << ';' << gpu.tileM
            << ';' << gpu.tileN << ';' << gpu.kGranule << ';'
            << gpu.kernelOverheadSec << ';' << gpu.gemmEfficiency;
        break;
    }
    return out;
}

Network
buildModel(const std::string &name, int scale)
{
    using Builder = std::function<Network(int)>;
    static const std::map<std::string, std::pair<Builder, int>> builders =
        {
            {"VGG-16", {[](int s) { return vgg16(s); }, kDefaultImageSize}},
            {"ResNet-50",
             {[](int s) { return resnet50(s); }, kDefaultImageSize}},
            {"ResNet-152",
             {[](int s) { return resnet152(s); }, kDefaultImageSize}},
            {"SqueezeNet",
             {[](int s) { return squeezenet(s); }, kDefaultImageSize}},
            {"MobileNet",
             {[](int s) { return mobilenet(s); }, kDefaultImageSize}},
            {"BERT-base",
             {[](int s) { return bertBase(s); }, kDefaultSeqLen}},
            {"BERT-large",
             {[](int s) { return bertLarge(s); }, kDefaultSeqLen}},
            {"LSTM-small",
             {[](int s) { return lstmSmall(s); }, kDefaultSeqLen}},
            {"LSTM-large",
             {[](int s) { return lstmLarge(s); }, kDefaultSeqLen}},
        };
    const auto it = builders.find(name);
    if (it == builders.end())
        DIVA_FATAL("unknown sweep model '", name,
                   "'; see knownModels() for the zoo");
    const auto &[build, default_scale] = it->second;
    return build(scale != 0 ? scale : default_scale);
}

std::vector<std::string>
knownModels()
{
    return {"VGG-16",     "ResNet-50",  "ResNet-152",
            "SqueezeNet", "MobileNet",  "BERT-base",
            "BERT-large", "LSTM-small", "LSTM-large"};
}

int
resolveBatch(const Scenario &s, const Network &net)
{
    if (s.batch != kAutoBatch)
        return s.batch;
    return std::max(
        1, maxBatchSize(net, TrainingAlgorithm::kDpSgd, s.memoryBudget));
}

} // namespace diva
