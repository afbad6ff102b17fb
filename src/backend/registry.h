/**
 * @file
 * Name-keyed registry of simulation backends. The built-in substrates
 * (chip, pod, gpu) register themselves on first use; additional
 * backends become reachable everywhere -- the sweep runner, the tenant
 * serve loop, and the CLIs' --backends flag -- by a single add() call,
 * with no switch statement to extend.
 */

#ifndef DIVA_BACKEND_REGISTRY_H
#define DIVA_BACKEND_REGISTRY_H

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "backend/backend.h"

namespace diva
{

/** Process-wide name -> SimBackend registry. */
class BackendRegistry
{
  public:
    /** The singleton, with the built-in backends registered. */
    static BackendRegistry &instance();

    /**
     * Register a backend under backend->name(). Calls DIVA_FATAL on a
     * duplicate name: silently shadowing a substrate would change what
     * every cached canonical key means.
     */
    void add(std::unique_ptr<SimBackend> backend);

    /** The backend registered under `name`, or nullptr if unknown. */
    const SimBackend *find(const std::string &name) const;

    /**
     * The backend evaluating `kind` (resolved through the same
     * name-keyed map via backendName()). DIVA_FATAL if the built-in
     * for that tag was removed -- an internal error.
     */
    const SimBackend &at(SweepBackend kind) const;

    /** Registered names, in registration order (built-ins first). */
    std::vector<std::string> names() const;

  private:
    BackendRegistry();

    mutable std::mutex mutex_;
    /** Registration-ordered; lookups scan (the set is tiny). */
    std::vector<std::unique_ptr<SimBackend>> backends_;
};

/**
 * Parse a --backends value: comma-separated registered names, kept in
 * the order given with repeats dropped. Returns "" after storing them
 * in *out, or the cli::reject() text naming the registered backends.
 */
std::string parseBackendNames(const std::string &text,
                              std::vector<std::string> *out);

} // namespace diva

#endif // DIVA_BACKEND_REGISTRY_H
