/**
 * @file
 * Edge-case tests of the exact-sort percentile helpers backing the
 * tail-latency reports: empty and single-sample sets, all-identical
 * samples, NaN exclusion, and the nearest-rank definition on sets
 * where interpolation would invent values that never occurred; the
 * distinct-value census on both sides of each edge of its rule; and
 * the sorted-runs helpers behind the fleet's per-pod and fleet-wide
 * stats, whole runs and runs cut into pieces, checked bit for bit
 * against a sort reference.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
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
    // A strictly positive set of 256 samples or more holding at most
    // min(8,192, n/8) distinct values is ranked from its distinct-value
    // census (rank lookups over per-value counts instead of a sort);
    // any other set is sorted. Either way the stats must match the sort
    // reference bit for bit, the mean included: the census replays the
    // ascending-order addition sequence per distinct value. The cases
    // sit on both sides of each edge of that rule, cross several
    // doublings of the census table, and hold runs of equal samples,
    // which the census counts at once.
    std::uint64_t lcg = 0x9e3779b97f4a7c15ULL;
    auto next = [&lcg]() {
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        return lcg >> 33;
    };
    // `count` distinct positive latency-like values.
    auto pool = [](std::size_t count) {
        std::vector<double> values(count);
        for (std::size_t i = 0; i < count; ++i)
            values[i] = 1e-3 * (1.0 + double(i) / 64.0);
        return values;
    };
    // n samples holding every value of `values`, in random order.
    auto shuffled = [&](const std::vector<double> &values, std::size_t n) {
        std::vector<double> samples(n);
        for (std::size_t i = 0; i < n; ++i)
            samples[i] = values[i % values.size()];
        for (std::size_t i = n - 1; i > 0; --i)
            std::swap(samples[i], samples[next() % (i + 1)]);
        return samples;
    };
    // n samples in runs of `run` equal ones (the last run may be
    // shorter), each run's value drawn from `values`.
    auto runs = [&](const std::vector<double> &values, std::size_t n,
                    std::size_t run) {
        std::vector<double> samples;
        while (samples.size() < n) {
            const double v = values[next() % values.size()];
            for (std::size_t k = 0; k < run && samples.size() < n; ++k)
                samples.push_back(v);
        }
        return samples;
    };

    struct Case
    {
        std::string name;
        std::vector<double> samples;
    };
    std::vector<Case> cases;
    // ~64 distinct positive values, wildly duplicated in random order:
    // a steady tenant's few distinct step latencies. Fleet-wide sets
    // are far wider -- the perfbench fleets hold 370k-526k distinct
    // values -- and take the sorted-runs merge tested below.
    for (std::size_t n : {4096u, 5000u, 20000u}) {
        std::vector<double> values;
        for (int i = 0; i < 64; ++i)
            values.push_back(0.001 + double(next() % 10000) / 1000.0);
        std::vector<double> samples(n);
        for (double &v : samples)
            v = values[next() % values.size()];
        cases.push_back({"64 values, n=" + std::to_string(n), samples});
    }
    // The census minimum, from one sample below.
    cases.push_back({"255 samples in runs", runs(pool(4), 255, 37)});
    cases.push_back({"256 samples in runs", runs(pool(4), 256, 37)});
    // An open-loop EDF tenant: four step latencies in five long runs.
    {
        const std::vector<double> v = pool(4);
        std::vector<double> samples;
        const std::size_t lengths[5] = {600, 400, 500, 300, 200};
        for (std::size_t r = 0; r < 5; ++r)
            samples.insert(samples.end(), lengths[r], v[r % 4]);
        cases.push_back({"open-EDF shape", samples});
    }
    // A closed round-robin tenant: ~41 step latencies in runs of 7.
    cases.push_back({"closed-RR shape", runs(pool(41), 12000, 7)});
    // The give-up bound at n/8 and at 8,192, and one value past each.
    cases.push_back({"512 distinct in 4,096", shuffled(pool(512), 4096)});
    cases.push_back({"513 distinct in 4,096", shuffled(pool(513), 4096)});
    cases.push_back(
        {"8,192 distinct in 100,000", shuffled(pool(8192), 100000)});
    cases.push_back(
        {"8,193 distinct in 100,000", shuffled(pool(8193), 100000)});
    // Random order, growing the table from 64 slots well past 5,000
    // distinct values.
    cases.push_back(
        {"5,000 distinct in 60,000", shuffled(pool(5000), 60000)});
    // A single non-positive sample disqualifies the census (positive
    // doubles order by raw bits; zero and negatives do not), so the
    // fallback must kick in: inside a run, first in a small set, and
    // in a wider set.
    {
        std::vector<double> samples = runs(pool(8), 4096, 16);
        samples[16 * 10 + 5] = 0.0;
        cases.push_back({"zero inside a run", samples});
        samples = runs(pool(8), 4096, 16);
        samples[16 * 100 + 9] = -2.5;
        cases.push_back({"negative inside a run", samples});
        samples = runs(pool(4), 256, 8);
        samples[0] = -1.0;
        cases.push_back({"negative first sample", samples});
        samples.assign(4096, 0.0);
        for (std::size_t i = 0; i < samples.size(); ++i)
            samples[i] = 0.5 + double(i % 97) / 97.0;
        samples[1234] = 0.0;
        cases.push_back({"zero among 97 values", samples});
    }

    for (const Case &c : cases)
        expectSameStats(computeLatencyStats(c.samples),
                        sortReference(c.samples), c.name);
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

TEST(PercentileRuns, PiecesOfOneRunMergeToTheWholeRunsStats)
{
    // The fleet sorts a long pod run in pieces, one per lane, and reads
    // the pod's stats off the merge of its sorted pieces. Wherever the
    // cuts fall, that must match the sort reference of the whole run
    // bit for bit, and the merged array must be the sorted run.
    std::uint64_t lcg = 0x2545f4914f6cdd1dULL;
    auto next = [&lcg]() {
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        return lcg >> 33;
    };
    std::vector<double> run(30000);
    for (double &v : run)
        v = 0.001 + double(next() % (1u << 20)) * 1e-6;
    // A block of 3,000 ties in the middle of the run.
    std::fill(run.begin() + 12000, run.begin() + 15000, 0.0042);
    const LatencyStats want = sortReference(run);
    std::vector<double> sortedRun = run;
    std::sort(sortedRun.begin(), sortedRun.end());

    // Interior cut points, ascending; a repeated point cuts an empty
    // piece.
    struct Cuts
    {
        std::string name;
        std::vector<std::size_t> at;
    };
    std::vector<Cuts> cases = {
        {"one piece", {}},
        {"cuts inside the ties", {12500, 13000, 14999}},
        {"a 1-sample and an empty piece", {7000, 7001, 7001}},
        {"4,095 and 4,096 samples across the radix edge",
         {kRadixSortMin - 1, 2 * kRadixSortMin - 1}},
    };
    for (int seed = 0; seed < 4; ++seed) {
        Cuts c{"seeded cuts " + std::to_string(seed), {}};
        for (std::uint64_t k = 2 + next() % 7; k > 0; --k)
            c.at.push_back(next() % (run.size() + 1));
        std::sort(c.at.begin(), c.at.end());
        cases.push_back(c);
    }

    for (const Cuts &c : cases) {
        std::vector<std::size_t> edges = {0};
        edges.insert(edges.end(), c.at.begin(), c.at.end());
        edges.push_back(run.size());
        for (int lanes : {1, 2, 4, 8}) {
            const std::string what =
                c.name + ", " + std::to_string(lanes) + " lanes";
            std::vector<double> pieces = run;
            std::vector<double> scratch(run.size());
            std::vector<std::span<const double>> spans;
            for (std::size_t k = 0; k + 1 < edges.size(); ++k) {
                double *piece = pieces.data() + edges[k];
                const std::size_t len = edges[k + 1] - edges[k];
                ASSERT_TRUE(sortPositiveRun(piece, len,
                                            scratch.data() + edges[k]))
                    << what;
                EXPECT_TRUE(std::is_sorted(piece, piece + len)) << what;
                spans.emplace_back(piece, len);
            }
            std::vector<double> merged(run.size());
            expectSameStats(mergeSortedRuns(spans, merged.data(), lanes),
                            want, what);
            EXPECT_TRUE(merged == sortedRun) << what;
        }
    }

    // One refused piece (it holds a zero) among sorted ones: the run is
    // left partly sorted, and the exact fallback over it must still
    // give the whole run's stats.
    std::vector<double> refused = run;
    refused[20000] = 0.0;
    std::vector<double> pieces = refused;
    std::vector<double> scratch(run.size());
    const std::size_t edges[] = {0, 10000, 18000, 26000, run.size()};
    for (std::size_t k = 0; k + 1 < std::size(edges); ++k)
        EXPECT_EQ(sortPositiveRun(pieces.data() + edges[k],
                                  edges[k + 1] - edges[k],
                                  scratch.data() + edges[k]),
                  k != 2)
            << "piece " << k;
    EXPECT_TRUE(std::equal(pieces.begin() + 18000, pieces.begin() + 26000,
                           refused.begin() + 18000));
    expectSameStats(computeLatencyStats(pieces), sortReference(refused),
                    "one refused piece");
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
