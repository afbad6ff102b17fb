#include "calib.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "report.h"

namespace perfbench
{

namespace
{

std::atomic<std::uint64_t> sink{0};

/**
 * Sort 200k seeded integers (1.6 MB), insert 50k of them into a hash
 * map and look all of them up, then build 20k short strings and index
 * them in a string-keyed map: branches, allocation, string handling and
 * cache misses in roughly the mix the simulator's own loops have.
 */
void
kernel(std::uint64_t seed)
{
    std::uint64_t x = seed | 1;
    std::vector<std::uint64_t> v(200000);
    for (std::uint64_t &e : v) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        e = x;
    }
    std::sort(v.begin(), v.end());
    std::unordered_map<std::uint64_t, std::uint64_t> m;
    for (std::size_t i = 0; i < 50000; ++i)
        m[v[i * 3] >> 20] += i;
    std::uint64_t acc = 0;
    for (std::uint64_t e : v) {
        const auto it = m.find(e >> 20);
        if (it != m.end())
            acc += it->second;
    }
    std::unordered_map<std::string, std::size_t> byName;
    for (std::size_t i = 0; i < 20000; ++i) {
        std::string key = "cfg=" + std::to_string(v[i] % 977) +
                          ";model=" + std::to_string(v[i * 7] % 131) +
                          ";batch=" + std::to_string(i);
        byName.emplace(std::move(key), i);
    }
    for (std::size_t i = 0; i < 20000; i += 2)
        acc += byName.count("cfg=" + std::to_string(v[i] % 977) +
                            ";model=" + std::to_string(v[i * 7] % 131) +
                            ";batch=" + std::to_string(i));
    sink.fetch_add(acc, std::memory_order_relaxed);
}

double
timeParallel(int threads)
{
    const Clock::time_point t0 = Clock::now();
    std::vector<std::thread> pool;
    pool.reserve(std::size_t(threads));
    for (int t = 0; t < threads; ++t)
        pool.emplace_back([t] { kernel(std::uint64_t(t) + 7); });
    for (std::thread &th : pool)
        th.join();
    return since(t0);
}

/** Seconds of one single-thread kernel call. */
double
kernelSec()
{
    const Clock::time_point t0 = Clock::now();
    kernel(3);
    return since(t0);
}

} // namespace

double
hostScale()
{
    return kernelSec() / kRefKernelSec;
}

HostCalib
calibrateHost(int threads, int reps)
{
    std::vector<double> single;
    std::vector<double> parallel;
    for (int r = 0; r < reps; ++r) {
        single.push_back(kernelSec());
        parallel.push_back(timeParallel(threads));
    }
    HostCalib c;
    c.singleSec = median(single);
    c.effectiveCores = double(threads) * c.singleSec / median(parallel);
    return c;
}

} // namespace perfbench
