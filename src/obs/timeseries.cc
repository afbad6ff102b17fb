#include "obs/timeseries.h"

#include <cmath>
#include <limits>

namespace diva
{
namespace obs
{

namespace
{

constexpr double kInf = std::numeric_limits<double>::infinity();

} // namespace

double
windowUpperEdge(std::int64_t w, double windowSec, double invWindowSec)
{
    if (w == std::numeric_limits<std::int64_t>::max())
        return kInf;
    // (w+1)*W is within an ulp or two of the true threshold;
    // windowIndexOf is monotone nondecreasing in t, so nudging until
    // the predicate flips lands on the exact smallest such double.
    double e = double(w + 1) * windowSec;
    while (windowIndexOf(e, invWindowSec) <= w)
        e = std::nextafter(e, kInf);
    for (;;) {
        const double d = std::nextafter(e, -kInf);
        if (windowIndexOf(d, invWindowSec) > w)
            e = d;
        else
            break;
    }
    return e;
}

namespace
{

/** ((q + sw) + m) + s == T, the invariant's fixed order. */
bool
exactSum(double q, double sw, double m, double s, double T)
{
    return ((q + sw) + m) + s == T;
}

/**
 * Search for a queue-wait value whose fixed-order reconstruction hits
 * T exactly, scanning outward by ulps from the residual. The
 * reconstruction is monotone nondecreasing in q, so the first hit in
 * either direction is the nearest exact decomposition.
 */
bool
solveQueue(double T, double s, double sw, double m, double *q)
{
    double q0 = ((T - s) - m) - sw;
    if (exactSum(q0, sw, m, s, T)) {
        *q = q0;
        return true;
    }
    double lo = q0, hi = q0;
    for (int i = 0; i < 64; ++i) {
        hi = std::nextafter(hi, kInf);
        if (exactSum(hi, sw, m, s, T)) {
            *q = hi;
            return true;
        }
        lo = std::nextafter(lo, -kInf);
        if (exactSum(lo, sw, m, s, T)) {
            *q = lo;
            return true;
        }
    }
    return false;
}

} // namespace

LatencyComponents
decomposeLatencySlow(double totalSec, double serviceSec,
                     double switchOverlapSec, double migOverlapSec)
{
    double q = 0.0;
    if (solveQueue(totalSec, serviceSec, switchOverlapSec,
                   migOverlapSec, &q))
        return {q, switchOverlapSec, migOverlapSec, serviceSec};
    // No exact split at this attribution: fold the (sub-ulp) stall
    // overlaps into the queue-wait residual and retry.
    if (solveQueue(totalSec, serviceSec, 0.0, 0.0, &q))
        return {q, 0.0, 0.0, serviceSec};
    // Degenerate magnitudes (inf/NaN service, catastrophic spread):
    // bill everything as queue wait, which is trivially exact.
    return {totalSec, 0.0, 0.0, 0.0};
}

const char *
timeSeriesKindName(TimeSeries::Kind kind)
{
    switch (kind) {
      case TimeSeries::Kind::kCounter: return "counter";
      case TimeSeries::Kind::kSum: return "sum";
      case TimeSeries::Kind::kGauge: return "gauge";
    }
    return "counter";
}

} // namespace obs
} // namespace diva
