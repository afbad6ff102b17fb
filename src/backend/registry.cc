#include "backend/registry.h"

#include <algorithm>

#include "backend/chip_backend.h"
#include "backend/gpu_backend.h"
#include "backend/pod_backend.h"
#include "common/cli.h"
#include "common/logging.h"

namespace diva
{

BackendRegistry::BackendRegistry()
{
    backends_.push_back(std::make_unique<ChipBackend>());
    backends_.push_back(std::make_unique<PodBackend>());
    backends_.push_back(std::make_unique<GpuBackend>());
}

BackendRegistry &
BackendRegistry::instance()
{
    static BackendRegistry registry;
    return registry;
}

void
BackendRegistry::add(std::unique_ptr<SimBackend> backend)
{
    DIVA_ASSERT(backend != nullptr);
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &b : backends_)
        if (std::string(b->name()) == backend->name())
            DIVA_FATAL("backend '", backend->name(),
                       "' is already registered");
    backends_.push_back(std::move(backend));
}

const SimBackend *
BackendRegistry::find(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &b : backends_)
        if (name == b->name())
            return b.get();
    return nullptr;
}

const SimBackend &
BackendRegistry::at(SweepBackend kind) const
{
    const SimBackend *backend = find(backendName(kind));
    if (!backend)
        DIVA_FATAL("no backend registered under '", backendName(kind),
                   "'");
    return *backend;
}

std::vector<std::string>
BackendRegistry::names() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out;
    out.reserve(backends_.size());
    for (const auto &b : backends_)
        out.push_back(b->name());
    return out;
}

std::string
parseBackendNames(const std::string &text, std::vector<std::string> *out)
{
    const BackendRegistry &registry = BackendRegistry::instance();
    std::vector<std::string> names;
    for (const std::string &name : cli::splitList(text)) {
        if (!registry.find(name)) {
            std::string known;
            for (const std::string &n : registry.names())
                known += (known.empty() ? "" : ", ") + n;
            return cli::reject("must name registered backends (" + known +
                                   ")",
                               name);
        }
        if (std::find(names.begin(), names.end(), name) == names.end())
            names.push_back(name);
    }
    if (names.empty())
        return cli::reject("needs at least one item", text);
    *out = std::move(names);
    return "";
}

} // namespace diva
