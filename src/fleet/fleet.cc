#include "fleet/fleet.h"

#include <cmath>
#include <sstream>

#include "common/parse.h"

namespace diva
{

std::string
PodSpec::validationError() const
{
    if (chips < 1)
        return "pod '" + name + "': chip count must be >= 1";
    const std::string cfg_err = config.validationError();
    if (!cfg_err.empty())
        return "pod '" + name + "': " + cfg_err;
    if (chips > 1) {
        if (!(pod.interconnectGBs > 0.0) ||
            !std::isfinite(pod.interconnectGBs))
            return "pod '" + name +
                   "': interconnect bandwidth must be finite and > 0";
    }
    return "";
}

std::string
FleetSpec::validationError() const
{
    if (pods.empty())
        return "fleet has no pods";
    for (const PodSpec &p : pods) {
        const std::string err = p.validationError();
        if (!err.empty())
            return err;
    }
    if (!(podDemandCap > 0.0) || !std::isfinite(podDemandCap))
        return "pod demand cap must be finite and > 0";
    if (rebalance.enabled) {
        if (!(rebalance.skewThreshold > 0.0) ||
            !std::isfinite(rebalance.skewThreshold))
            return "rebalance skew threshold must be finite and > 0";
        if (rebalance.maxPerRound < 1)
            return "rebalance migration cap must be >= 1";
    }
    if (!(budget.powerCapW >= 0.0) || !std::isfinite(budget.powerCapW))
        return "power cap must be finite and >= 0";
    if (!(budget.totalJ >= 0.0) || !std::isfinite(budget.totalJ))
        return "energy budget must be finite and >= 0";
    if (!(controlIntervalSec >= 0.0) ||
        !std::isfinite(controlIntervalSec))
        return "control interval must be finite and >= 0";
    if (!std::isfinite(workingSetFraction) ||
        workingSetFraction <= 0.0 || workingSetFraction > 1.0)
        return "working-set fraction must be in (0, 1]";
    if (quantumIters < 1)
        return "quantum must be >= 1 iteration";
    if (!(wallLimitSec >= 0.0) || !std::isfinite(wallLimitSec))
        return "wall budget must be finite and >= 0";
    return "";
}

std::optional<std::vector<PodSpec>>
parsePodTemplate(const std::string &text, std::string *error)
{
    error->clear();
    Dataflow dataflow = Dataflow::kOuterProduct;
    std::optional<bool> ppu;
    int chips = 1;
    int count = 1;
    double ici_gbs = 0.0;
    long long link_lat = -1;

    std::stringstream ss(text);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (item.empty())
            continue;
        const std::size_t eq = item.find('=');
        if (eq == std::string::npos) {
            *error = "expected key=value, got '" + item + "'";
            return std::nullopt;
        }
        const std::string key = item.substr(0, eq);
        const std::string value = item.substr(eq + 1);
        if (key == "df" || key == "dataflow") {
            const auto df = dataflowFromName(value);
            if (!df) {
                *error = "df takes WS, OS, or DiVa; got '" + value + "'";
                return std::nullopt;
            }
            dataflow = *df;
        } else if (key == "ppu") {
            if (value != "on" && value != "off") {
                *error = "ppu takes on/off, got '" + value + "'";
                return std::nullopt;
            }
            ppu = value == "on";
        } else if (key == "chips") {
            const auto n =
                parseBoundedIntText(value, 1, MultiChipConfig::kMaxChips);
            if (!n) {
                *error = "chips must be in [1, 65536], got '" + value +
                         "'";
                return std::nullopt;
            }
            chips = int(*n);
        } else if (key == "count") {
            const auto n = parseBoundedIntText(value, 1, 65536);
            if (!n) {
                *error = "count must be in [1, 65536], got '" + value +
                         "'";
                return std::nullopt;
            }
            count = int(*n);
        } else if (key == "ici-gbs") {
            const auto d = parseDoubleText(value);
            if (!d || !(*d > 0.0)) {
                *error = "ici-gbs must be > 0, got '" + value + "'";
                return std::nullopt;
            }
            ici_gbs = *d;
        } else if (key == "link-lat") {
            const auto n = parseBoundedIntText(
                value, 0, MultiChipConfig::kMaxLinkLatencyCycles);
            if (!n) {
                *error = "link-lat must be in [0, 1e6] cycles, got '" +
                         value + "'";
                return std::nullopt;
            }
            link_lat = *n;
        } else {
            *error = "unknown key '" + key +
                     "' (want df, ppu, chips, count, ici-gbs, or "
                     "link-lat)";
            return std::nullopt;
        }
    }

    PodSpec proto;
    proto.config = presetConfig(dataflow, ppu);
    // WS has no PPU datapath; an explicit ppu=on is a spec error
    // rather than a silent downgrade.
    if (!proto.config.validationError().empty()) {
        *error = "df=WS has no PPU datapath (use ppu=off)";
        return std::nullopt;
    }
    proto.chips = chips;
    proto.pod.numChips = chips;
    if (ici_gbs > 0.0)
        proto.pod.interconnectGBs = ici_gbs;
    if (link_lat >= 0)
        proto.pod.linkLatencyCycles = Cycles(link_lat);
    return std::vector<PodSpec>(std::size_t(count), proto);
}

FleetSpec
buildFleet(const std::vector<std::vector<PodSpec>> &groups)
{
    FleetSpec fleet;
    for (const std::vector<PodSpec> &group : groups)
        fleet.pods.insert(fleet.pods.end(), group.begin(), group.end());
    for (std::size_t i = 0; i < fleet.pods.size(); ++i) {
        std::ostringstream oss;
        oss << "p" << i;
        fleet.pods[i].name = oss.str();
    }
    {
        std::ostringstream oss;
        oss << "fleet-" << fleet.pods.size();
        fleet.name = oss.str();
    }
    return fleet;
}

std::vector<PodSpec>
defaultPodGroup(int n)
{
    if (n < 0)
        n = 0;
    PodSpec proto;
    proto.config = divaDefault(true);
    proto.chips = 1;
    proto.pod.numChips = 1;
    return std::vector<PodSpec>(std::size_t(n), proto);
}

} // namespace diva
