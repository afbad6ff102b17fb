#include "arrivals/generate.h"

#include <cmath>
#include <fstream>
#include <sstream>
#include <vector>

#include <climits>

#include "common/format.h"
#include "common/parse.h"
#include "common/rng.h"

namespace diva
{

namespace
{

constexpr double kPi = 3.14159265358979323846;

/** Exponential inter-arrival sample at `rate` (rate > 0). */
double
expGap(Rng &rng, double rate)
{
    // uniform() is in [0, 1); 1-u is in (0, 1], so the log is finite.
    return -std::log(1.0 - rng.uniform()) / rate;
}

/** Arrival times of a Poisson process on [0, horizon). */
std::vector<double>
poissonArrivals(Rng &rng, double rate, double horizon, int cap)
{
    std::vector<double> times;
    double t = expGap(rng, rate);
    while (t < horizon && int(times.size()) < cap) {
        times.push_back(t);
        t += expGap(rng, rate);
    }
    return times;
}

/** On-off arrivals: Poisson "on" windows separated by silent "off"
 *  windows. Generated in on-process time, then mapped to wall time. */
std::vector<double>
onOffArrivals(Rng &rng, const TraceGenSpec &s)
{
    // Total on-time available inside the horizon.
    const double cycle = s.onSec + s.offSec;
    std::vector<double> times;
    double on_t = expGap(rng, s.ratePerSec);
    for (;;) {
        // Map on-time to wall time: full cycles plus the offset into
        // the current on window.
        const double wall = std::floor(on_t / s.onSec) * cycle +
                            std::fmod(on_t, s.onSec);
        if (wall >= s.horizonSec || int(times.size()) >= s.maxTenants)
            break;
        times.push_back(wall);
        on_t += expGap(rng, s.ratePerSec);
    }
    return times;
}

/** Diurnal arrivals by thinning: candidates at the peak rate, each
 *  kept with probability rate(t)/peak. */
std::vector<double>
diurnalArrivals(Rng &rng, const TraceGenSpec &s)
{
    const double peak_rate = s.ratePerSec * s.peakX;
    std::vector<double> times;
    double t = expGap(rng, peak_rate);
    while (t < s.horizonSec && int(times.size()) < s.maxTenants) {
        // rate(t) ramps 1x .. peakX and back over the horizon.
        const double phase = std::sin(kPi * t / s.horizonSec);
        const double rate =
            s.ratePerSec * (1.0 + (s.peakX - 1.0) * phase * phase);
        if (rng.uniform() < rate / peak_rate)
            times.push_back(t);
        t += expGap(rng, peak_rate);
    }
    return times;
}

} // namespace

const char *
arrivalKindName(ArrivalKind k)
{
    switch (k) {
      case ArrivalKind::kPoisson: return "poisson";
      case ArrivalKind::kOnOff: return "onoff";
      case ArrivalKind::kDiurnal: return "diurnal";
    }
    return "?";
}

std::string
TraceGenSpec::validationError() const
{
    if (!(ratePerSec > 0.0) || !std::isfinite(ratePerSec))
        return "rate must be finite and > 0";
    if (!(horizonSec > 0.0) || !std::isfinite(horizonSec))
        return "horizon must be finite and > 0";
    if (maxTenants < 1)
        return "cap must be >= 1";
    if (kind == ArrivalKind::kOnOff &&
        (!(onSec > 0.0) || !std::isfinite(onSec) || !(offSec >= 0.0) ||
         !std::isfinite(offSec)))
        return "on must be > 0 and off >= 0";
    if (kind == ArrivalKind::kDiurnal &&
        (!(peakX >= 1.0) || !std::isfinite(peakX)))
        return "peak must be >= 1";
    if (batch < 1)
        return "batch must be >= 1";
    if (!(qosStepsPerSec >= 0.0) || !std::isfinite(qosStepsPerSec))
        return "qos must be finite and >= 0";
    if (!(holdSec >= 0.0) || !std::isfinite(holdSec))
        return "hold must be finite and >= 0";
    if (priorityLevels < 1)
        return "prios must be >= 1";
    if (steps == 0 && holdSec <= 0.0)
        return "steps 0 (train until departure) needs hold > 0";
    return "";
}

ArrivalTrace
generateTrace(const TraceGenSpec &spec)
{
    Rng rng(spec.seed);
    std::vector<double> times;
    switch (spec.kind) {
      case ArrivalKind::kPoisson:
        times = poissonArrivals(rng, spec.ratePerSec, spec.horizonSec,
                                spec.maxTenants);
        break;
      case ArrivalKind::kOnOff:
        times = onOffArrivals(rng, spec);
        break;
      case ArrivalKind::kDiurnal:
        times = diurnalArrivals(rng, spec);
        break;
    }

    ArrivalTrace trace;
    {
        std::ostringstream oss;
        oss << arrivalKindName(spec.kind) << "-r"
            << formatDouble(spec.ratePerSec) << "-s" << spec.seed;
        trace.name = oss.str();
    }
    const std::vector<std::string> &rotation = defaultModelRotation();
    trace.jobs.reserve(times.size());
    for (std::size_t i = 0; i < times.size(); ++i) {
        TenantJob job;
        job.model = rotation[i % rotation.size()];
        job.name = defaultSessionName(i, job.model);
        job.batch = spec.batch;
        job.steps = spec.steps;
        job.arrivalSec = times[i];
        if (spec.holdSec > 0.0)
            job.departSec = times[i] + spec.holdSec;
        job.qosStepsPerSec = spec.qosStepsPerSec;
        job.priority = int(i % std::size_t(spec.priorityLevels));
        trace.jobs.push_back(std::move(job));
    }
    return trace;
}

std::optional<TraceGenSpec>
parseTraceGenSpec(const std::string &text, std::string *error)
{
    error->clear();
    TraceGenSpec spec;
    const std::size_t colon = text.find(':');
    const std::string kind = text.substr(0, colon);
    if (kind == "poisson") {
        spec.kind = ArrivalKind::kPoisson;
    } else if (kind == "onoff" || kind == "on-off" || kind == "mmpp") {
        spec.kind = ArrivalKind::kOnOff;
    } else if (kind == "diurnal") {
        spec.kind = ArrivalKind::kDiurnal;
    } else {
        *error = "unknown arrival kind '" + kind +
                 "' (want poisson, onoff, or diurnal)";
        return std::nullopt;
    }
    if (colon == std::string::npos)
        return spec;

    std::stringstream ss(text.substr(colon + 1));
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (item.empty())
            continue;
        const std::size_t eq = item.find('=');
        if (eq == std::string::npos) {
            *error = "expected key=value, got '" + item + "'";
            return std::nullopt;
        }
        const std::string key = item.substr(0, eq);
        const std::string value = item.substr(eq + 1);
        // Integer keys parse as integers (bounded, so the int-typed
        // fields never see a wrapped value and "2.7" rejects instead
        // of silently truncating); the rest parse as finite doubles.
        const bool integer_key = key == "seed" || key == "cap" ||
                                 key == "steps" || key == "batch" ||
                                 key == "prios";
        std::optional<long long> whole;
        double num = 0.0;
        if (integer_key) {
            whole = parseBoundedIntText(value, 0, LLONG_MAX);
            if (!whole) {
                *error = "key '" + key +
                         "' needs a non-negative integer, got '" +
                         value + "'";
                return std::nullopt;
            }
        } else {
            const std::optional<double> parsed =
                parseDoubleText(value);
            if (!parsed) {
                *error = "key '" + key +
                         "' needs a finite number, got '" + value +
                         "'";
                return std::nullopt;
            }
            num = *parsed;
        }
        if (key == "rate") {
            spec.ratePerSec = num;
        } else if (key == "horizon" || key == "dur") {
            spec.horizonSec = num;
        } else if (key == "seed") {
            spec.seed = std::uint64_t(*whole);
        } else if (key == "cap") {
            if (*whole > INT_MAX) {
                *error = "cap is out of range";
                return std::nullopt;
            }
            spec.maxTenants = int(*whole);
        } else if (key == "on") {
            spec.onSec = num;
        } else if (key == "off") {
            spec.offSec = num;
        } else if (key == "peak") {
            spec.peakX = num;
        } else if (key == "steps") {
            spec.steps = std::uint64_t(*whole);
            spec.stepsSet = true;
        } else if (key == "batch") {
            if (*whole > INT_MAX) {
                *error = "batch is out of range";
                return std::nullopt;
            }
            spec.batch = int(*whole);
            spec.batchSet = true;
        } else if (key == "qos") {
            spec.qosStepsPerSec = num;
            spec.qosSet = true;
        } else if (key == "hold") {
            spec.holdSec = num;
        } else if (key == "prios") {
            if (*whole > INT_MAX) {
                *error = "prios is out of range";
                return std::nullopt;
            }
            spec.priorityLevels = int(*whole);
        } else {
            *error = "unknown key '" + key +
                     "' (want rate, horizon, seed, cap, on, off, "
                     "peak, steps, batch, qos, hold, or prios)";
            return std::nullopt;
        }
    }
    const std::string err = spec.validationError();
    if (!err.empty()) {
        *error = err;
        return std::nullopt;
    }
    return spec;
}

std::optional<ArrivalTrace>
traceFromFlags(const std::string &tracePath, const std::string &arrivalsSpec,
               const std::function<void(TraceGenSpec &)> &adjust,
               const std::string &savePath, std::string *error)
{
    ArrivalTrace trace;
    if (!tracePath.empty()) {
        trace = loadTraceFile(tracePath, error);
        if (!error->empty()) {
            *error = "--trace: " + *error;
            return std::nullopt;
        }
    } else {
        std::optional<TraceGenSpec> gen =
            parseTraceGenSpec(arrivalsSpec, error);
        if (!gen) {
            *error = "--arrivals: " + *error;
            return std::nullopt;
        }
        adjust(*gen);
        trace = generateTrace(*gen);
        if (trace.jobs.empty()) {
            *error = "--arrivals produced no arrivals inside the horizon; "
                     "raise rate or horizon";
            return std::nullopt;
        }
    }
    if (!savePath.empty()) {
        std::ofstream file(savePath);
        if (!file) {
            *error = "cannot write " + savePath;
            return std::nullopt;
        }
        writeTraceCsv(file, trace);
    }
    return trace;
}

} // namespace diva
