/**
 * @file
 * Minimal logging and assertion facilities, in the spirit of gem5's
 * panic()/fatal()/warn() trio.
 *
 * panic() is reserved for internal invariant violations (simulator bugs);
 * fatal() is for user errors (bad configurations, impossible requests);
 * warn()/inform() report conditions that do not stop the simulation.
 */

#ifndef DIVA_COMMON_LOGGING_H
#define DIVA_COMMON_LOGGING_H

#include <sstream>
#include <string>

namespace diva
{

/** Terminate with an internal-error message (simulator bug). */
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);

/**
 * Terminate with a user-error message (bad configuration). The line
 * ends at the message: a user error is not a place in the source.
 */
[[noreturn]] void fatalImpl(const std::string &msg);

/** Print a warning to stderr without stopping. */
void warnImpl(const std::string &msg);

/** Print an informational message to stderr. */
void informImpl(const std::string &msg);

/** Print a message only at verbose level (see setLogVerbosity). */
void verboseImpl(const std::string &msg);

/**
 * Stderr chattiness. Levels are cumulative: kQuiet drops warn and
 * inform too (panic/fatal always print), kNormal (the default) prints
 * warn/inform, kVerbose additionally prints DIVA_VERBOSE progress
 * notes such as the disk-cache preload summary.
 */
enum class LogVerbosity
{
    kQuiet = 0,
    kNormal = 1,
    kVerbose = 2,
};

/** Set the process-wide stderr verbosity (default kNormal). */
void setLogVerbosity(LogVerbosity level);

LogVerbosity logVerbosity();

namespace detail
{

/** Fold a parameter pack into a single string via ostringstream. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << args);
    return oss.str();
}

} // namespace detail

} // namespace diva

#define DIVA_PANIC(...) \
    ::diva::panicImpl(__FILE__, __LINE__, ::diva::detail::concat(__VA_ARGS__))

#define DIVA_FATAL(...) \
    ::diva::fatalImpl(::diva::detail::concat(__VA_ARGS__))

#define DIVA_WARN(...) \
    ::diva::warnImpl(::diva::detail::concat(__VA_ARGS__))

#define DIVA_INFORM(...) \
    ::diva::informImpl(::diva::detail::concat(__VA_ARGS__))

/** Progress notes printed only under LogVerbosity::kVerbose. */
#define DIVA_VERBOSE(...) \
    ::diva::verboseImpl(::diva::detail::concat(__VA_ARGS__))

/** Internal invariant check; failure indicates a simulator bug. */
#define DIVA_ASSERT(cond, ...)                                        \
    do {                                                              \
        if (!(cond)) {                                                \
            ::diva::panicImpl(__FILE__, __LINE__,                     \
                ::diva::detail::concat("assertion failed: " #cond " ", \
                                       ##__VA_ARGS__));               \
        }                                                             \
    } while (0)

#endif // DIVA_COMMON_LOGGING_H
