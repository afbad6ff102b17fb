/**
 * @file
 * Edge-case tests of the exact-sort percentile helpers backing the
 * tail-latency reports: empty and single-sample sets, all-identical
 * samples, NaN exclusion, and the nearest-rank definition on sets
 * where interpolation would invent values that never occurred; and
 * the sorted-runs helpers behind the fleet's per-pod and fleet-wide
 * stats, checked bit for bit against a sort reference.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/percentile.h"

namespace diva
{
namespace
{

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/** Raw bits of `v`, so a NaN statistic matches a NaN reference. */
std::uint64_t
bitsOf(double v)
{
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

/** Every LatencyStats field must match bit for bit. */
void
expectSameStats(const LatencyStats &got, const LatencyStats &want,
                const std::string &what)
{
    EXPECT_EQ(got.count, want.count) << what;
    EXPECT_EQ(bitsOf(got.meanSec), bitsOf(want.meanSec)) << what << ": mean";
    EXPECT_EQ(bitsOf(got.p50Sec), bitsOf(want.p50Sec)) << what << ": p50";
    EXPECT_EQ(bitsOf(got.p95Sec), bitsOf(want.p95Sec)) << what << ": p95";
    EXPECT_EQ(bitsOf(got.p99Sec), bitsOf(want.p99Sec)) << what << ": p99";
    EXPECT_EQ(bitsOf(got.maxSec), bitsOf(want.maxSec)) << what << ": max";
}

/**
 * Sort reference for a NaN-free sample set: count, nearest-rank
 * percentiles and max off a full std::sort, with the mean summed in
 * ascending order.
 */
LatencyStats
sortReference(const std::vector<double> &samples)
{
    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    LatencyStats s;
    if (sorted.empty()) {
        s.meanSec = s.p50Sec = s.p95Sec = s.p99Sec = s.maxSec = kNaN;
        return s;
    }
    double sum = 0.0;
    for (double v : sorted)
        sum += v;
    s.count = sorted.size();
    s.meanSec = sum / double(sorted.size());
    s.p50Sec = percentileSorted(sorted, 50.0);
    s.p95Sec = percentileSorted(sorted, 95.0);
    s.p99Sec = percentileSorted(sorted, 99.0);
    s.maxSec = sorted.back();
    return s;
}

TEST(Percentile, EmptySetYieldsNaNStatsAndZeroCount)
{
    const LatencyStats s = computeLatencyStats({});
    EXPECT_EQ(s.count, 0u);
    EXPECT_TRUE(std::isnan(s.meanSec));
    EXPECT_TRUE(std::isnan(s.p50Sec));
    EXPECT_TRUE(std::isnan(s.p95Sec));
    EXPECT_TRUE(std::isnan(s.p99Sec));
    EXPECT_TRUE(std::isnan(s.maxSec));
    EXPECT_TRUE(std::isnan(percentileSorted({}, 50.0)));
}

TEST(Percentile, SingleSampleIsEveryPercentile)
{
    const LatencyStats s = computeLatencyStats({0.25});
    EXPECT_EQ(s.count, 1u);
    EXPECT_DOUBLE_EQ(s.meanSec, 0.25);
    EXPECT_DOUBLE_EQ(s.p50Sec, 0.25);
    EXPECT_DOUBLE_EQ(s.p95Sec, 0.25);
    EXPECT_DOUBLE_EQ(s.p99Sec, 0.25);
    EXPECT_DOUBLE_EQ(s.maxSec, 0.25);
}

TEST(Percentile, AllIdenticalSamplesCollapse)
{
    const LatencyStats s =
        computeLatencyStats(std::vector<double>(1000, 3.5));
    EXPECT_EQ(s.count, 1000u);
    EXPECT_DOUBLE_EQ(s.meanSec, 3.5);
    EXPECT_DOUBLE_EQ(s.p50Sec, 3.5);
    EXPECT_DOUBLE_EQ(s.p99Sec, 3.5);
    EXPECT_DOUBLE_EQ(s.maxSec, 3.5);
}

TEST(Percentile, NaNSamplesAreExcludedNotPropagated)
{
    const LatencyStats s =
        computeLatencyStats({kNaN, 1.0, kNaN, 3.0, kNaN});
    EXPECT_EQ(s.count, 2u) << "only the finite samples count";
    EXPECT_DOUBLE_EQ(s.meanSec, 2.0);
    EXPECT_DOUBLE_EQ(s.p50Sec, 1.0);
    EXPECT_DOUBLE_EQ(s.maxSec, 3.0);

    // An all-NaN set behaves like an empty one.
    const LatencyStats none = computeLatencyStats({kNaN, kNaN});
    EXPECT_EQ(none.count, 0u);
    EXPECT_TRUE(std::isnan(none.p99Sec));
}

TEST(Percentile, NearestRankNeverInterpolates)
{
    // 1..100: pK is exactly the Kth value, and every percentile is a
    // sample that actually occurred.
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(double(i));
    EXPECT_DOUBLE_EQ(percentileSorted(v, 50.0), 50.0);
    EXPECT_DOUBLE_EQ(percentileSorted(v, 95.0), 95.0);
    EXPECT_DOUBLE_EQ(percentileSorted(v, 99.0), 99.0);
    EXPECT_DOUBLE_EQ(percentileSorted(v, 100.0), 100.0);
    EXPECT_DOUBLE_EQ(percentileSorted(v, 0.0), 1.0);

    // Two samples: the median is the lower one (rank ceil(1) = 1),
    // not the midpoint.
    EXPECT_DOUBLE_EQ(percentileSorted({1.0, 9.0}, 50.0), 1.0);
    EXPECT_DOUBLE_EQ(percentileSorted({1.0, 9.0}, 51.0), 9.0);

    // Out-of-range p clamps instead of indexing out of bounds.
    EXPECT_DOUBLE_EQ(percentileSorted({1.0, 9.0}, -5.0), 1.0);
    EXPECT_DOUBLE_EQ(percentileSorted({1.0, 9.0}, 250.0), 9.0);
}

TEST(Percentile, SelectionMatchesSortReferenceBitIdentically)
{
    // computeLatencyStats must rank exactly the elements a full sort
    // would index: cross-check count, every percentile and the max
    // against a sort-based reference over deterministic pseudo-random
    // sample sets of awkward sizes (including rank collisions at
    // n < 20 and duplicate-heavy sets).
    std::uint64_t lcg = 0x2545f4914f6cdd1dULL;
    auto next = [&lcg]() {
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        return double(lcg >> 16) / double(1ULL << 48);
    };
    for (std::size_t n :
         {1u, 2u, 3u, 7u, 19u, 20u, 21u, 99u, 100u, 101u, 1000u}) {
        std::vector<double> samples;
        samples.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            const double v = next();
            // Quantize every third sample to force duplicates.
            samples.push_back(i % 3 == 0 ? std::floor(v * 8.0) / 8.0
                                         : v);
        }

        std::vector<double> sorted = samples;
        std::sort(sorted.begin(), sorted.end());
        const LatencyStats s = computeLatencyStats(samples);
        EXPECT_EQ(s.count, n);
        EXPECT_EQ(s.p50Sec, percentileSorted(sorted, 50.0)) << "n=" << n;
        EXPECT_EQ(s.p95Sec, percentileSorted(sorted, 95.0)) << "n=" << n;
        EXPECT_EQ(s.p99Sec, percentileSorted(sorted, 99.0)) << "n=" << n;
        EXPECT_EQ(s.maxSec, sorted.back()) << "n=" << n;

        // The mean must equal an ascending-order accumulation exactly.
        double sum = 0.0;
        for (double v : sorted)
            sum += v;
        EXPECT_EQ(s.meanSec, sum / double(n)) << "n=" << n;
    }
}

TEST(Percentile, CensusPathMatchesSortReferenceBitIdentically)
{
    // Large strictly-positive duplicate-heavy sets take the
    // distinct-value census path (rank lookups over per-value counts
    // instead of a sort).  Its stats must match the sort reference
    // bit-for-bit, and its mean must equal an ascending-order
    // accumulation exactly -- the census replays that exact addition
    // sequence per distinct value.
    std::uint64_t lcg = 0x9e3779b97f4a7c15ULL;
    auto next = [&lcg]() {
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        return lcg >> 33;
    };
    for (std::size_t n : {4096u, 5000u, 20000u}) {
        // A pool of ~64 distinct positive values, wildly duplicated:
        // the census's home ground (a steady tenant's few distinct
        // step latencies). Fleet-wide sets are far wider -- the
        // perfbench fleets hold 370k-526k distinct values -- and take
        // the sorted-runs merge tested below.
        std::vector<double> pool;
        for (int i = 0; i < 64; ++i)
            pool.push_back(0.001 + double(next() % 10000) / 1000.0);
        std::vector<double> samples;
        samples.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            samples.push_back(pool[next() % pool.size()]);

        std::vector<double> sorted = samples;
        std::sort(sorted.begin(), sorted.end());
        const LatencyStats s = computeLatencyStats(samples);
        EXPECT_EQ(s.count, n);
        EXPECT_EQ(s.p50Sec, percentileSorted(sorted, 50.0)) << "n=" << n;
        EXPECT_EQ(s.p95Sec, percentileSorted(sorted, 95.0)) << "n=" << n;
        EXPECT_EQ(s.p99Sec, percentileSorted(sorted, 99.0)) << "n=" << n;
        EXPECT_EQ(s.maxSec, sorted.back()) << "n=" << n;

        double sum = 0.0;
        for (double v : sorted)
            sum += v;
        EXPECT_EQ(s.meanSec, sum / double(n)) << "n=" << n;
    }

    // A single non-positive sample disqualifies the census (positive
    // doubles order by raw bits; zero and negatives do not), so the
    // fallback must kick in and still match the sort reference.
    std::vector<double> mixed(4096, 2.5);
    for (std::size_t i = 0; i < mixed.size(); ++i)
        mixed[i] = 0.5 + double(i % 97) / 97.0;
    mixed[1234] = 0.0;
    std::vector<double> sortedMixed = mixed;
    std::sort(sortedMixed.begin(), sortedMixed.end());
    const LatencyStats m = computeLatencyStats(mixed);
    EXPECT_EQ(m.p50Sec, percentileSorted(sortedMixed, 50.0));
    EXPECT_EQ(m.p99Sec, percentileSorted(sortedMixed, 99.0));
    EXPECT_EQ(m.maxSec, sortedMixed.back());
    double msum = 0.0;
    for (double v : sortedMixed)
        msum += v;
    EXPECT_EQ(m.meanSec, msum / double(mixed.size()));
}

TEST(Percentile, StatsAreOrderedAndSorted)
{
    // Unsorted input with a heavy tail: p50 <= p95 <= p99 <= max.
    const LatencyStats s = computeLatencyStats(
        {0.9, 0.1, 5.0, 0.2, 0.3, 0.15, 0.25, 0.35, 0.12, 0.18});
    EXPECT_EQ(s.count, 10u);
    EXPECT_LE(s.p50Sec, s.p95Sec);
    EXPECT_LE(s.p95Sec, s.p99Sec);
    EXPECT_LE(s.p99Sec, s.maxSec);
    EXPECT_DOUBLE_EQ(s.maxSec, 5.0);
    EXPECT_DOUBLE_EQ(s.p99Sec, 5.0) << "nearest rank on 10 samples";
}

TEST(PercentileRuns, SortedRunsAndTheirMergeMatchSortReference)
{
    // The fleet's latency stats: every pod run sorts in place and is
    // ranked by index, and the sorted runs merge into one array on 1-8
    // pool lanes. Both must match the sort reference (mean in
    // ascending order) bit for bit.
    std::uint64_t lcg = 0xda3e39cb94b95bdbULL;
    auto next = [&lcg]() {
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        return lcg >> 33;
    };
    // `count` positive latency-like samples drawn from `distinct`
    // values.
    auto draw = [&](std::size_t count, std::uint64_t distinct) {
        std::vector<double> run(count);
        for (double &v : run)
            v = 0.001 + double(next() % distinct) * 1e-5;
        return run;
    };

    struct Case
    {
        std::string name;
        std::vector<std::vector<double>> runs;
    };
    std::vector<Case> cases = {
        {"no runs", {}},
        {"empty runs", {{}, {}, {}}},
        {"one run", {draw(20000, 1u << 20)}},
    };
    // The fleet shape: 64 runs with far more distinct values than the
    // census's 8,192, one of them empty (an idle pod).
    Case pods{"64 runs", {}};
    for (int r = 0; r < 64; ++r)
        pods.runs.push_back(
            draw(r == 17 ? 0 : 500 + next() % 1500, 1u << 20));
    cases.push_back(pods);
    // First-fit placement: one pod runs 99% of the steps.
    Case skewed{"one run holds 99%", {draw(99000, 1u << 20)}};
    for (int r = 0; r < 7; ++r)
        skewed.runs.push_back(draw(140, 1u << 20));
    cases.push_back(skewed);
    // Five values shared by every run, each thousands of times: every
    // slice edge falls inside a block of ties.
    Case ties{"ties across runs and slice edges", {}};
    for (int r = 0; r < 16; ++r)
        ties.runs.push_back(draw(4000, 5));
    cases.push_back(ties);

    for (const Case &c : cases) {
        std::vector<double> all;
        for (const std::vector<double> &run : c.runs)
            all.insert(all.end(), run.begin(), run.end());
        std::vector<double> sortedAll = all;
        std::sort(sortedAll.begin(), sortedAll.end());
        const LatencyStats want = sortReference(all);
        expectSameStats(computeLatencyStats(all), want, c.name);

        for (int lanes : {1, 2, 4, 8}) {
            const std::string what =
                c.name + ", " + std::to_string(lanes) + " lanes";
            std::vector<std::vector<double>> runs = c.runs;
            std::vector<double> arena(all.size());
            std::vector<std::span<const double>> spans;
            std::size_t off = 0;
            for (std::size_t r = 0; r < runs.size(); ++r) {
                std::vector<double> &run = runs[r];
                ASSERT_TRUE(sortPositiveRun(run.data(), run.size(),
                                            arena.data() + off))
                    << what;
                off += run.size();
                EXPECT_TRUE(std::is_sorted(run.begin(), run.end())) << what;
                expectSameStats(sortedRunStats(run.data(), run.size()),
                                sortReference(c.runs[r]),
                                what + ", run " + std::to_string(r));
                spans.emplace_back(run);
            }
            expectSameStats(mergeSortedRuns(spans, arena.data(), lanes),
                            want, what);
            EXPECT_TRUE(arena == sortedAll) << what;
        }
    }
}

TEST(PercentileRuns, NonPositiveRunIsLeftInInputOrder)
{
    // A zero, negative or NaN sample fails the positivity test on both
    // the comparison-sort (short run) and radix (long run) paths, and
    // the run keeps its input order for the caller's exact fallback.
    for (std::size_t n : {100u, 5000u}) {
        for (double bad : {0.0, -1.0, kNaN}) {
            std::vector<double> run(n);
            for (std::size_t i = 0; i < n; ++i)
                run[i] = 1.0 + double((i * 7919) % n);
            run[n / 2] = bad;
            const std::vector<double> before = run;
            std::vector<double> scratch(n);
            EXPECT_FALSE(sortPositiveRun(run.data(), n, scratch.data()))
                << "n=" << n << " bad=" << bad;
            EXPECT_EQ(std::memcmp(run.data(), before.data(),
                                  n * sizeof(double)),
                      0)
                << "n=" << n << " bad=" << bad;
        }
    }
}

} // namespace
} // namespace diva
