/**
 * @file
 * Wall-clock phase profiler: RAII timers around the coarse phases of
 * a run (plan build, scenario eval, disk preload, emit, epoch
 * barriers). Unlike metrics and traces, phase timings are *meant* to
 * vary run to run -- they measure the machine -- so they are never
 * mixed into deterministic outputs; they go to a stderr table
 * (--profile) and into perfbench's per-layer metrics (--trace 1).
 *
 * Disabled (the default), a ScopedPhase is one relaxed atomic load
 * and no clock reads.
 */

#ifndef DIVA_OBS_PROFILE_H
#define DIVA_OBS_PROFILE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>

namespace diva
{
namespace obs
{

class Profiler
{
  public:
    struct Phase
    {
        double seconds = 0.0;
        std::uint64_t calls = 0;
    };

    static Profiler &instance();

    void enable(bool on);

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Fold one timed interval into the named phase (thread-safe). */
    void add(const char *phase, double seconds);

    /** Name-sorted copy of the accumulated phases. */
    std::map<std::string, Phase> phases() const;

    void reset();

    /** Human-readable table, name-sorted ("--profile" stderr view). */
    void writeTable(std::ostream &os) const;

  private:
    Profiler() = default;

    std::atomic<bool> enabled_{false};
    mutable std::mutex mutex_;
    std::map<std::string, Phase> phases_;
};

/**
 * Times its scope into Profiler phase `name` when profiling is
 * enabled; a no-op otherwise. `name` must be a string literal (it is
 * kept as a pointer until destruction).
 */
class ScopedPhase
{
  public:
    explicit ScopedPhase(const char *name)
        : name_(Profiler::instance().enabled() ? name : nullptr)
    {
        if (name_)
            start_ = std::chrono::steady_clock::now();
    }

    ~ScopedPhase()
    {
        if (name_)
            Profiler::instance().add(
                name_, std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start_)
                           .count());
    }

    ScopedPhase(const ScopedPhase &) = delete;
    ScopedPhase &operator=(const ScopedPhase &) = delete;

  private:
    const char *name_;
    std::chrono::steady_clock::time_point start_;
};

} // namespace obs
} // namespace diva

#endif // DIVA_OBS_PROFILE_H
