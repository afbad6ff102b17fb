#include "common/percentile.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>

#include "common/task_pool.h"

namespace diva
{

namespace
{

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/** The raw bits of `v`. */
std::uint64_t
doubleBits(double v)
{
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

/** The double whose raw bits are `b`. */
double
bitsToDouble(std::uint64_t b)
{
    double v;
    std::memcpy(&v, &b, sizeof v);
    return v;
}

/**
 * LSD radix sort, ascending, for n > 0 strictly positive NaN-free
 * doubles.  Positive IEEE-754 doubles order the same as their raw bit
 * patterns, so eight byte-wide counting passes reproduce std::sort's
 * order exactly (equal doubles are bit-identical, so stability
 * questions cannot surface in the output).  All eight histograms come
 * out of one fused read-only pass (16 KB of counters, L1-resident),
 * which also verifies the positivity precondition: on the first sample
 * that is not > 0 (NaN compares false) the function bails out with `v`
 * untouched and returns false so the caller can comparison-sort.
 * Scatter passes whose byte is constant across the whole array are
 * skipped; the rest ping-pong between `v` and `scratch` (room for n
 * doubles), with one copy back when the sorted order ends up in
 * `scratch`.
 */
bool
radixSortPositive(double *v, std::size_t n, double *scratch)
{
    std::size_t count[8][256] = {};
    for (std::size_t i = 0; i < n; ++i) {
        if (!(v[i] > 0.0))
            return false;
        const std::uint64_t bits = doubleBits(v[i]);
        for (int pass = 0; pass < 8; ++pass)
            ++count[pass][(bits >> (pass * 8)) & 255];
    }
    double *a = v;
    double *b = scratch;
    for (int pass = 0; pass < 8; ++pass) {
        const int shift = pass * 8;
        std::size_t *c = count[pass];
        if (c[(doubleBits(a[0]) >> shift) & 255] == n)
            continue; // constant byte: the pass is a no-op
        std::size_t offset = 0;
        for (std::size_t slot = 0; slot < 256; ++slot) {
            const std::size_t here = c[slot];
            c[slot] = offset;
            offset += here;
        }
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t bits = doubleBits(a[i]);
            std::memcpy(&b[c[(bits >> shift) & 255]++], &bits,
                        sizeof bits);
        }
        std::swap(a, b);
    }
    if (a != v)
        std::memcpy(v, a, n * sizeof(double));
    return true;
}

/** Sets below this many samples are sorted: on so few samples the
 *  census saves under a microsecond over the sort, and a set it
 *  refuses pays for both. */
constexpr std::size_t kCensusMin = 256;

/** The census gives up past this many distinct values, or past one per
 *  eight samples of a smaller set, where the sort path is the better
 *  tool. */
constexpr std::size_t kMaxDistinct = std::size_t(1) << 13;

/** One distinct value of a census: its raw bits and its sample count. */
struct ValueCount
{
    std::uint64_t bits;
    std::size_t count; // 0 marks an empty table slot
};

/**
 * The slot of `b` in an open-addressing table of 2^(64 - shift) slots:
 * the one holding `b`, or else the empty slot where it belongs.  Evenly
 * spaced latencies have nearly evenly spaced bit patterns, whose
 * products with the multiplier alone fall in clusters of neighbouring
 * slots; folding the high bits in first breaks them up (on 4,096
 * evenly spaced values at the census's load of 1/8, 1.07 probes per
 * lookup instead of 1.16).
 */
ValueCount &
slotOf(std::vector<ValueCount> &table, int shift, std::uint64_t b)
{
    constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ull;
    const std::size_t mask = table.size() - 1;
    std::size_t at = std::size_t(((b ^ (b >> 29)) * kMul) >> shift);
    while (table[at].count != 0 && table[at].bits != b)
        at = (at + 1) & mask;
    return table[at];
}

/**
 * Distinct-value census of a strictly positive, NaN-free sample set:
 * `values` receives each distinct value once, with its sample count,
 * in ascending order.  Order statistics over (value, count) pairs beat
 * a full sort when a set repeats heavily (a steady tenant's few
 * distinct step latencies).  The census keeps the same precondition as
 * radixSortPositive (every sample > 0.0): positive doubles order by
 * their raw bits and carry one bit pattern per value, so "distinct
 * bits" and "distinct value" coincide and the derived statistics are
 * bit-identical to sorting the raw array.
 *
 * Its cost follows what the set holds.  Each run of bit-identical
 * consecutive samples is counted in a register and added with one
 * probe, and the open-addressing table starts at 64 slots and doubles,
 * rehashing its distinct values, whenever they pass 1/8 of its slots.
 * Gives up (returning false, with `values` unspecified) on the first
 * non-positive sample or once the distinct count passes
 * min(kMaxDistinct, n / 8).
 */
bool
censusPositive(const double *s, std::size_t n,
               std::vector<ValueCount> &values)
{
    const std::size_t maxDistinct = std::min(kMaxDistinct, n / 8);
    std::vector<ValueCount> table(64);
    int shift = 64 - 6; // the hash keeps the top log2(slots) bits
    std::size_t distinct = 0;
    for (std::size_t i = 0; i < n;) {
        if (!(s[i] > 0.0))
            return false;
        const std::uint64_t b = doubleBits(s[i]);
        const std::size_t runStart = i;
        while (++i < n && doubleBits(s[i]) == b) {
        }
        ValueCount &slot = slotOf(table, shift, b);
        if (slot.count != 0) {
            slot.count += i - runStart;
            continue;
        }
        if (distinct == maxDistinct)
            return false;
        slot = {b, i - runStart};
        if (++distinct * 8 > table.size()) {
            std::vector<ValueCount> old(2 * table.size());
            old.swap(table);
            --shift;
            for (const ValueCount &v : old)
                if (v.count != 0)
                    slotOf(table, shift, v.bits) = v;
        }
    }
    // Ascending bit order is ascending value order for positives.
    std::erase_if(table, [](const ValueCount &v) { return v.count == 0; });
    std::sort(table.begin(), table.end(),
              [](const ValueCount &a, const ValueCount &b) {
                  return a.bits < b.bits;
              });
    values.swap(table);
    return true;
}

/**
 * Statistics over a NaN-free buffer of n samples, reordering the
 * buffer as a side effect: the one rule behind every LatencyStats.  A
 * set of kCensusMin samples or more is ranked from its distinct-value
 * census unless the census refuses it; any other set is sorted
 * (sortPositiveRun, or std::sort on a run it refuses) and ranked by
 * index.  Either way the mean sums the samples in ascending order, so
 * it depends on the multiset alone.
 */
LatencyStats
statsOverBuffer(double *s, std::size_t n)
{
    std::vector<ValueCount> values;
    if (n >= kCensusMin && censusPositive(s, n, values)) {
        // Summing each value `count` times in ascending value order
        // replays the addition sequence of summing the sorted array,
        // and cumulative counts index the same elements a sort would.
        LatencyStats out;
        out.count = n;
        double sum = 0.0;
        for (const ValueCount &vc : values) {
            const double v = bitsToDouble(vc.bits);
            for (std::size_t k = 0; k < vc.count; ++k)
                sum += v;
        }
        out.meanSec = sum / double(n);
        const std::size_t ranks[3] = {nearestRank(50.0, n),
                                      nearestRank(95.0, n),
                                      nearestRank(99.0, n)};
        double vals[3] = {0.0, 0.0, 0.0};
        std::size_t cum = 0, r = 0;
        for (std::size_t i = 0; i < values.size() && r < 3; ++i) {
            cum += values[i].count;
            while (r < 3 && ranks[r] <= cum)
                vals[r++] = bitsToDouble(values[i].bits);
        }
        out.p50Sec = vals[0];
        out.p95Sec = vals[1];
        out.p99Sec = vals[2];
        out.maxSec = bitsToDouble(values.back().bits);
        return out;
    }
    // sortPositiveRun refuses a set holding a zero or a negative
    // sample, whose raw bits do not order like its value; std::sort
    // takes that set.  new[] (not vector) keeps the scratch
    // uninitialized: the radix passes write every slot they read.
    std::unique_ptr<double[]> scratch(
        n >= kRadixSortMin ? new double[n] : nullptr);
    if (!sortPositiveRun(s, n, scratch.get()))
        std::sort(s, s + n);
    return sortedRunStats(s, n);
}

/** Samples at or below `v` across every run. */
std::size_t
countAtMost(const std::vector<std::span<const double>> &runs, double v)
{
    std::size_t c = 0;
    for (const std::span<const double> &r : runs)
        c += std::size_t(std::upper_bound(r.begin(), r.end(), v) -
                         r.begin());
    return c;
}

/**
 * The `rank`-th smallest sample (0-based, below the sample count) of
 * ascending positive runs: a binary search over the raw bits of
 * non-negative doubles, which order like their values, for the
 * smallest pattern with more than `rank` samples at or below it.
 */
double
rankValue(const std::vector<std::span<const double>> &runs,
          std::size_t rank)
{
    std::uint64_t lo = 0;
    std::uint64_t hi = doubleBits(kInf);
    while (lo < hi) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        if (countAtMost(runs, bitsToDouble(mid)) > rank)
            hi = mid;
        else
            lo = mid + 1;
    }
    return bitsToDouble(lo);
}

/**
 * K-way merge of the ascending ranges [from[r], to[r]) of `runs` into
 * `out` through a tournament tree of losers over the samples' raw
 * bits: log2(K) branch-free matches per sample.  A finished run plays
 * on with all-ones bits, above every positive double (+inf included),
 * and the merge ends when such a run wins.
 */
void
mergeSlice(const std::vector<std::span<const double>> &runs,
           const std::size_t *from, const std::size_t *to, double *out)
{
    constexpr std::uint64_t kDone = ~std::uint64_t(0);
    std::size_t leaves = 1;
    while (leaves < runs.size())
        leaves *= 2;
    std::vector<const double *> at(leaves, nullptr);
    std::vector<const double *> end(leaves, nullptr);
    // First-round winners, with the leaves at [leaves, 2 * leaves).
    std::vector<std::uint64_t> winKey(2 * leaves, kDone);
    std::vector<std::uint32_t> winRun(2 * leaves, 0);
    for (std::size_t r = 0; r < leaves; ++r) {
        winRun[leaves + r] = std::uint32_t(r);
        if (r < runs.size() && from[r] < to[r]) {
            at[r] = runs[r].data() + from[r];
            end[r] = runs[r].data() + to[r];
            winKey[leaves + r] = doubleBits(*at[r]);
        }
    }
    // Node i in [1, leaves) keeps the loser of its match.
    std::vector<std::uint64_t> loseKey(leaves, kDone);
    std::vector<std::uint32_t> loseRun(leaves, 0);
    for (std::size_t i = leaves - 1; i > 0; --i) {
        const std::size_t w =
            winKey[2 * i + 1] < winKey[2 * i] ? 2 * i + 1 : 2 * i;
        winKey[i] = winKey[w];
        winRun[i] = winRun[w];
        loseKey[i] = winKey[w ^ 1];
        loseRun[i] = winRun[w ^ 1];
    }
    std::uint64_t key = winKey[1];
    std::uint32_t run = winRun[1];
    while (key != kDone) {
        std::memcpy(out++, &key, sizeof key);
        const std::size_t leaf = leaves + run;
        const double *next = ++at[run];
        key = next != end[run] ? doubleBits(*next) : kDone;
        // Replay the advanced run's matches on the way to the root.
        for (std::size_t i = leaf / 2; i > 0; i /= 2) {
            const std::uint64_t k = loseKey[i];
            const std::uint32_t r = loseRun[i];
            const bool up = k < key;
            loseKey[i] = up ? key : k;
            loseRun[i] = up ? run : r;
            key = up ? k : key;
            run = up ? r : run;
        }
    }
}

} // namespace

std::size_t
nearestRank(double p, std::size_t n)
{
    p = std::min(100.0, std::max(0.0, p));
    std::size_t rank = std::size_t(std::ceil(p / 100.0 * double(n)));
    if (rank < 1)
        rank = 1;
    if (rank > n)
        rank = n;
    return rank;
}

double
percentileSorted(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return kNaN;
    return sorted[nearestRank(p, sorted.size()) - 1];
}

LatencyStats
computeLatencyStats(std::vector<double> samples)
{
    return computeLatencyStatsScratch(samples.data(), samples.size());
}

LatencyStats
computeLatencyStatsScratch(double *samples, std::size_t count)
{
    double *last = std::remove_if(
        samples, samples + count,
        [](double v) { return std::isnan(v); });
    return statsOverBuffer(samples, std::size_t(last - samples));
}

bool
sortPositiveRun(double *run, std::size_t n, double *scratch)
{
    if (n >= kRadixSortMin)
        return radixSortPositive(run, n, scratch);
    if (!std::all_of(run, run + n, [](double v) { return v > 0.0; }))
        return false;
    std::sort(run, run + n);
    return true;
}

LatencyStats
sortedRunStats(const double *sorted, std::size_t n)
{
    LatencyStats out;
    if (n == 0) {
        out.meanSec = out.p50Sec = out.p95Sec = out.p99Sec = out.maxSec =
            kNaN;
        return out;
    }
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        sum += sorted[i];
    out.count = n;
    out.meanSec = sum / double(n);
    out.p50Sec = sorted[nearestRank(50.0, n) - 1];
    out.p95Sec = sorted[nearestRank(95.0, n) - 1];
    out.p99Sec = sorted[nearestRank(99.0, n) - 1];
    out.maxSec = sorted[n - 1];
    return out;
}

LatencyStats
mergeSortedRuns(const std::vector<std::span<const double>> &runs,
                double *out, int threads)
{
    const std::size_t R = runs.size();
    std::size_t n = 0;
    for (const std::span<const double> &r : runs)
        n += r.size();
    if (n == 0)
        return sortedRunStats(out, 0);

    // One value-range slice per lane, kRadixSortMin samples or more
    // each: a smaller slice is not worth a pool lane. Slice k opens,
    // in every run, at the first occurrence of the union's
    // (k*n/slices)-th smallest sample, so it holds exactly the values
    // in [edge k, edge k+1): a tie never straddles two slices, and the
    // merged array does not depend on the slice count.
    const std::size_t slices = std::clamp<std::size_t>(
        n / kRadixSortMin, 1, std::size_t(std::max(threads, 1)));
    std::vector<std::size_t> cut((slices + 1) * R, 0); // [k * R + r]
    for (std::size_t r = 0; r < R; ++r)
        cut[slices * R + r] = runs[r].size();
    TaskPool &pool = TaskPool::shared();
    pool.parallelFor(slices - 1, threads, [&](std::size_t j) {
        const std::size_t k = j + 1;
        const double edge = rankValue(runs, n * k / slices);
        for (std::size_t r = 0; r < R; ++r)
            cut[k * R + r] = std::size_t(
                std::lower_bound(runs[r].begin(), runs[r].end(), edge) -
                runs[r].begin());
    });
    pool.parallelFor(slices, threads, [&](std::size_t k) {
        std::size_t at = 0;
        for (std::size_t r = 0; r < R; ++r)
            at += cut[k * R + r];
        mergeSlice(runs, &cut[k * R], &cut[(k + 1) * R], out + at);
    });
    return sortedRunStats(out, n);
}

} // namespace diva
