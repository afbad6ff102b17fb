#include "common/logging.h"

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <stdexcept>

namespace diva
{

namespace
{

/**
 * Serializes all sink writes so concurrent sweep workers never
 * interleave partial lines. The lock is released before any throw so
 * exception propagation cannot deadlock a logging call on another
 * thread.
 */
std::mutex &
sinkMutex()
{
    static std::mutex m;
    return m;
}

std::atomic<LogVerbosity> &
verbosityFlag()
{
    static std::atomic<LogVerbosity> level{LogVerbosity::kNormal};
    return level;
}

/**
 * The single guarded sink every severity but panic funnels through:
 * one lock, one prefixed line, one flush, and nothing below
 * `minLevel` (kQuiet always prints). Building the full line before
 * streaming keeps a message atomic even if a future sink writes in
 * chunks.
 */
void
sinkWrite(const char *prefix, const std::string &msg,
          LogVerbosity minLevel)
{
    if (logVerbosity() < minLevel)
        return;
    std::lock_guard<std::mutex> lock(sinkMutex());
    std::cerr << prefix << msg << std::endl;
}

} // namespace

void
setLogVerbosity(LogVerbosity level)
{
    verbosityFlag().store(level, std::memory_order_relaxed);
}

LogVerbosity
logVerbosity()
{
    return verbosityFlag().load(std::memory_order_relaxed);
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    {
        std::lock_guard<std::mutex> lock(sinkMutex());
        std::cerr << "panic: " << msg << " @ " << file << ":" << line
                  << std::endl;
    }
    throw std::logic_error("panic: " + msg);
}

void
fatalImpl(const std::string &msg)
{
    sinkWrite("fatal: ", msg, LogVerbosity::kQuiet);
    throw std::runtime_error("fatal: " + msg);
}

void
warnImpl(const std::string &msg)
{
    sinkWrite("warn: ", msg, LogVerbosity::kNormal);
}

void
informImpl(const std::string &msg)
{
    sinkWrite("info: ", msg, LogVerbosity::kNormal);
}

void
verboseImpl(const std::string &msg)
{
    sinkWrite("info: ", msg, LogVerbosity::kVerbose);
}

} // namespace diva
