#include "obs/sketch.h"

#include <algorithm>
#include <ostream>

#include "common/format.h"
#include "common/percentile.h"

namespace diva
{
namespace obs
{

std::uint64_t &
QuantileSketch::slotFor(int idx)
{
    if (counts_.empty()) {
        base_ = idx;
        counts_.assign(1, 0);
    } else if (idx < base_) {
        counts_.insert(counts_.begin(), std::size_t(base_ - idx), 0);
        base_ = idx;
    } else if (idx >= base_ + int(counts_.size())) {
        counts_.resize(std::size_t(idx - base_) + 1, 0);
    }
    return counts_[std::size_t(idx - base_)];
}

void
QuantileSketch::merge(const QuantileSketch &other)
{
    count_ += other.count_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    if (other.counts_.empty())
        return;
    // Cover the union span once, then add slot-wise: pure integer
    // adds over a layout that is a function of the values alone, so
    // any merge order yields identical state.
    slotFor(other.base_);
    slotFor(other.base_ + int(other.counts_.size()) - 1);
    for (std::size_t i = 0; i < other.counts_.size(); ++i)
        counts_[std::size_t(other.base_ + int(i) - base_)] +=
            other.counts_[i];
}

std::map<int, std::uint64_t>
QuantileSketch::buckets() const
{
    std::map<int, std::uint64_t> out;
    for (std::size_t i = 0; i < counts_.size(); ++i)
        if (counts_[i] != 0)
            out[base_ + int(i)] = counts_[i];
    return out;
}

double
QuantileSketch::percentile(double p) const
{
    if (count_ == 0)
        return std::numeric_limits<double>::quiet_NaN();
    const std::uint64_t rank = nearestRank(p, count_);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        seen += counts_[i];
        if (seen >= rank)
            return std::clamp(bucketUpperBound(base_ + int(i)), min_,
                              max_);
    }
    return max_; // unreachable when bucket counts sum to count_
}

void
QuantileSketch::writeSummaryJson(std::ostream &os) const
{
    os << "\"count\": " << count_ << ", \"min\": " << jsonNumber(min_)
       << ", \"max\": " << jsonNumber(max_)
       << ", \"p50\": " << jsonNumber(percentile(50.0))
       << ", \"p95\": " << jsonNumber(percentile(95.0))
       << ", \"p99\": " << jsonNumber(percentile(99.0));
}

void
QuantileSketch::writeBucketsJson(std::ostream &os) const
{
    const char *sep = "";
    os << "[";
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        if (counts_[i] == 0)
            continue;
        os << sep << "{\"le\": "
           << jsonNumber(bucketUpperBound(base_ + int(i)))
           << ", \"count\": " << counts_[i] << "}";
        sep = ", ";
    }
    os << "]";
}

} // namespace obs
} // namespace diva
