#include "arrivals/trace.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <ostream>
#include <sstream>

#include <climits>

#include "common/format.h"
#include "common/parse.h"

namespace diva
{

namespace
{

/** Column order of the canonical CSV form. */
const char *const kColumns[] = {
    "name",     "model",    "scale", "batch",     "microbatch",
    "algorithm", "arrival_s", "depart_s", "priority", "steps",
    "qos_sps",  "qos_deadline_s",
};
constexpr std::size_t kNumColumns =
    sizeof(kColumns) / sizeof(*kColumns);

std::string
lower(std::string s)
{
    for (char &c : s)
        c = char(std::tolower(static_cast<unsigned char>(c)));
    return s;
}

/** Split one CSV line; quoted cells are not supported in traces (no
 *  comma-bearing values exist in the schema). */
std::vector<std::string>
splitCsvLine(const std::string &line)
{
    std::vector<std::string> cells;
    std::stringstream ss(line);
    std::string cell;
    while (std::getline(ss, cell, ','))
        cells.push_back(cell);
    if (!line.empty() && line.back() == ',')
        cells.push_back("");
    return cells;
}

/** Apply one (column, text) pair to `job`; "" on success. */
std::string
applyField(TenantJob &job, const std::string &column,
           const std::string &text)
{
    if (column == "name") {
        job.name = text;
        return "";
    }
    if (column == "model") {
        if (text.empty())
            return "model must not be empty";
        job.model = text;
        return "";
    }
    if (column == "algorithm") {
        if (!algorithmFromName(text, &job.algorithm))
            return "unknown algorithm '" + text + "'";
        return "";
    }
    if (column == "scale" || column == "batch" ||
        column == "microbatch" || column == "priority" ||
        column == "steps") {
        // Bounded parses: an out-of-range cell rejects the trace
        // instead of silently wrapping into the int-typed fields.
        const long long lo = column == "priority" ? INT_MIN : 0;
        const long long hi =
            column == "steps" ? LLONG_MAX : INT_MAX;
        const std::optional<long long> v =
            parseBoundedIntText(text, lo, hi);
        if (!v)
            return column + " must be an integer in [" +
                   std::to_string(lo) + ", " + std::to_string(hi) +
                   "], got '" + text + "'";
        if (column == "scale")
            job.modelScale = int(*v);
        else if (column == "batch")
            job.batch = int(*v);
        else if (column == "microbatch")
            job.microbatch = int(*v);
        else if (column == "priority")
            job.priority = int(*v);
        else
            job.steps = std::uint64_t(*v);
        return "";
    }
    if (column == "arrival_s" || column == "depart_s" ||
        column == "qos_sps" || column == "qos_deadline_s") {
        const std::optional<double> parsed = parseDoubleText(text);
        if (!parsed || *parsed < 0.0)
            return column + " must be a finite number >= 0, got '" +
                   text + "'";
        const double v = *parsed;
        if (column == "arrival_s")
            job.arrivalSec = v;
        else if (column == "depart_s")
            job.departSec = v;
        else if (column == "qos_sps")
            job.qosStepsPerSec = v;
        else
            job.qosDeadlineSec = v;
        return "";
    }
    return "unknown column '" + column + "'";
}

ArrivalTrace
failTrace(std::string *error, std::size_t line, const std::string &msg)
{
    std::ostringstream oss;
    oss << "line " << line << ": " << msg;
    *error = oss.str();
    return {};
}

/**
 * Minimal flat-object JSON scanner for one JSONL line: returns the
 * (key, raw value text) pairs of a single-level object. Strings lose
 * their quotes (escapes \" \\ only); nested containers reject.
 */
bool
scanFlatJson(const std::string &line,
             std::vector<std::pair<std::string, std::string>> *fields,
             std::string *msg)
{
    std::size_t i = 0;
    auto skipWs = [&] {
        while (i < line.size() &&
               std::isspace(static_cast<unsigned char>(line[i])))
            ++i;
    };
    auto parseString = [&](std::string *out) {
        if (line[i] != '"')
            return false;
        ++i;
        out->clear();
        while (i < line.size() && line[i] != '"') {
            if (line[i] == '\\' && i + 1 < line.size()) {
                ++i;
                if (line[i] == '"')
                    *out += '"';
                else if (line[i] == '\\')
                    *out += '\\';
                else {
                    *out += '\\';
                    *out += line[i];
                }
            } else {
                *out += line[i];
            }
            ++i;
        }
        if (i >= line.size())
            return false;
        ++i; // closing quote
        return true;
    };
    skipWs();
    if (i >= line.size() || line[i] != '{') {
        *msg = "expected a JSON object";
        return false;
    }
    ++i;
    skipWs();
    if (i < line.size() && line[i] == '}')
        return true; // empty object
    for (;;) {
        skipWs();
        std::string key;
        if (i >= line.size() || !parseString(&key)) {
            *msg = "expected a quoted key";
            return false;
        }
        skipWs();
        if (i >= line.size() || line[i] != ':') {
            *msg = "expected ':' after key '" + key + "'";
            return false;
        }
        ++i;
        skipWs();
        std::string value;
        if (i < line.size() && line[i] == '"') {
            if (!parseString(&value)) {
                *msg = "unterminated string for key '" + key + "'";
                return false;
            }
        } else if (i < line.size() &&
                   (line[i] == '{' || line[i] == '[')) {
            *msg = "nested values are not supported (key '" + key +
                   "')";
            return false;
        } else {
            while (i < line.size() && line[i] != ',' && line[i] != '}')
                value += line[i++];
            while (!value.empty() &&
                   std::isspace(static_cast<unsigned char>(
                       value.back())))
                value.pop_back();
            if (value.empty()) {
                *msg = "missing value for key '" + key + "'";
                return false;
            }
        }
        fields->emplace_back(key, value);
        skipWs();
        if (i < line.size() && line[i] == ',') {
            ++i;
            continue;
        }
        if (i < line.size() && line[i] == '}')
            return true;
        *msg = "expected ',' or '}'";
        return false;
    }
}

} // namespace

bool
algorithmFromName(const std::string &text, TrainingAlgorithm *out)
{
    if (text.empty()) {
        *out = TrainingAlgorithm::kDpSgdR;
        return true;
    }
    const std::string t = lower(text);
    if (t == "sgd") {
        *out = TrainingAlgorithm::kSgd;
        return true;
    }
    if (t == "dpsgd" || t == "dp-sgd") {
        *out = TrainingAlgorithm::kDpSgd;
        return true;
    }
    if (t == "dpsgdr" || t == "dp-sgd-r" || t == "dp-sgd(r)") {
        *out = TrainingAlgorithm::kDpSgdR;
        return true;
    }
    return false;
}

std::string
ArrivalTrace::validationError(bool wallLimited) const
{
    if (jobs.empty())
        return "trace has no tenant sessions";
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        // TenantJob::validationError already accepts unbounded steps
        // when the session has a departure time.
        const std::string err = jobs[i].validationError(wallLimited);
        if (!err.empty())
            return "session '" + jobs[i].name + "': " + err;
        if (i > 0 && jobs[i].arrivalSec < jobs[i - 1].arrivalSec)
            return "session '" + jobs[i].name +
                   "': arrivals must be non-decreasing";
    }
    return "";
}

TenantWorkload
ArrivalTrace::workload() const
{
    TenantWorkload mix;
    mix.name = name;
    mix.jobs = jobs;
    return mix;
}

std::string
traceCsvHeader()
{
    std::string header;
    for (std::size_t c = 0; c < kNumColumns; ++c) {
        if (c)
            header += ',';
        header += kColumns[c];
    }
    return header;
}

std::string
defaultSessionName(std::size_t index, const std::string &model)
{
    // Appends only: GCC 12 flags the inlined _M_replace behind both
    // `"a" + std::string` and `name = "a"` with a false -Wrestrict.
    std::string name(1, 'a');
    name += std::to_string(index);
    name += ':';
    name += model;
    return name;
}

void
writeTraceCsv(std::ostream &os, const ArrivalTrace &trace)
{
    os << "# trace: " << trace.name << '\n' << traceCsvHeader() << '\n';
    for (const TenantJob &j : trace.jobs)
        os << csvCell(j.name) << ',' << csvCell(j.model) << ','
           << j.modelScale << ',' << j.batch << ',' << j.microbatch
           << ',' << algorithmName(j.algorithm) << ','
           << formatDouble(j.arrivalSec) << ','
           << formatDouble(j.departSec) << ',' << j.priority << ','
           << j.steps << ',' << formatDouble(j.qosStepsPerSec) << ','
           << formatDouble(j.qosDeadlineSec) << '\n';
}

ArrivalTrace
loadTraceCsv(std::istream &is, std::string *error)
{
    error->clear();
    ArrivalTrace trace;
    std::string line;
    std::size_t lineno = 0;
    std::vector<std::string> columns;
    while (std::getline(is, line)) {
        ++lineno;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty())
            continue;
        if (line[0] == '#') {
            // "# trace: NAME" names the trace; other comments skip.
            const std::string tag = "# trace: ";
            if (line.rfind(tag, 0) == 0)
                trace.name = line.substr(tag.size());
            continue;
        }
        const std::vector<std::string> cells = splitCsvLine(line);
        if (columns.empty()) {
            // Header row: every column must be known.
            for (const std::string &c : cells) {
                const std::string col = lower(c);
                if (std::find_if(std::begin(kColumns),
                                 std::end(kColumns),
                                 [&](const char *k) {
                                     return col == k;
                                 }) == std::end(kColumns))
                    return failTrace(error, lineno,
                                     "unknown column '" + c + "'");
                columns.push_back(col);
            }
            if (std::find(columns.begin(), columns.end(), "model") ==
                columns.end())
                return failTrace(error, lineno,
                                 "header needs a 'model' column");
            continue;
        }
        if (cells.size() != columns.size())
            return failTrace(error, lineno,
                             "expected " +
                                 std::to_string(columns.size()) +
                                 " cells, got " +
                                 std::to_string(cells.size()));
        TenantJob job;
        for (std::size_t c = 0; c < columns.size(); ++c) {
            const std::string err =
                applyField(job, columns[c], cells[c]);
            if (!err.empty())
                return failTrace(error, lineno, err);
        }
        if (job.name.empty())
            job.name = defaultSessionName(trace.jobs.size(), job.model);
        trace.jobs.push_back(std::move(job));
    }
    if (columns.empty())
        return failTrace(error, lineno, "missing header row");
    if (trace.jobs.empty())
        return failTrace(error, lineno, "trace has no tenant sessions");
    return trace;
}

ArrivalTrace
loadTraceJsonl(std::istream &is, std::string *error)
{
    error->clear();
    ArrivalTrace trace;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        // Skip blank lines and #-comments between records.
        std::size_t first = line.find_first_not_of(" \t");
        if (first == std::string::npos || line[first] == '#')
            continue;
        std::vector<std::pair<std::string, std::string>> fields;
        std::string msg;
        if (!scanFlatJson(line, &fields, &msg))
            return failTrace(error, lineno, msg);
        TenantJob job;
        bool any_known = false;
        for (const auto &[key, value] : fields) {
            const std::string col = lower(key);
            if (col == "trace") {
                // {"trace": "NAME"} records name the trace.
                trace.name = value;
                continue;
            }
            const bool known =
                std::find_if(std::begin(kColumns), std::end(kColumns),
                             [&](const char *k) { return col == k; }) !=
                std::end(kColumns);
            if (!known)
                continue; // tolerate recorded extra metadata
            const std::string err = applyField(job, col, value);
            if (!err.empty())
                return failTrace(error, lineno, err);
            any_known = true;
        }
        if (!any_known)
            continue; // metadata-only record
        if (job.model.empty())
            return failTrace(error, lineno, "record needs a 'model'");
        if (job.name.empty())
            job.name = defaultSessionName(trace.jobs.size(), job.model);
        trace.jobs.push_back(std::move(job));
    }
    if (trace.jobs.empty())
        return failTrace(error, lineno, "trace has no tenant sessions");
    return trace;
}

ArrivalTrace
loadTraceFile(const std::string &path, std::string *error)
{
    error->clear();
    std::ifstream in(path);
    if (!in) {
        *error = "cannot open '" + path + "'";
        return {};
    }
    const std::size_t slash = path.find_last_of("/\\");
    const std::string base =
        slash == std::string::npos ? path : path.substr(slash + 1);
    const std::size_t dot = base.find_last_of('.');
    const std::string ext =
        dot == std::string::npos ? "" : lower(base.substr(dot));
    ArrivalTrace trace = ext == ".jsonl" || ext == ".json"
                             ? loadTraceJsonl(in, error)
                             : loadTraceCsv(in, error);
    if (!error->empty())
        return {};
    if (trace.name.empty())
        trace.name = dot == std::string::npos ? base
                                              : base.substr(0, dot);
    return trace;
}

} // namespace diva
