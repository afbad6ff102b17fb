/**
 * @file
 * Shared helpers of the BENCH_*.json emitters (bench_serve,
 * bench_sweep, bench_fleet).
 */

#ifndef DIVA_BENCH_BENCH_UTIL_H
#define DIVA_BENCH_BENCH_UTIL_H

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "arch/accelerator_config.h"
#include "common/cli.h"
#include "common/format.h"
#include "obs/profile.h"

namespace diva
{
namespace benchutil
{

/** The four design points of Figures 13/14/16. */
inline std::vector<AcceleratorConfig>
designPoints()
{
    return {tpuV3Ws(), systolicOs(true), divaDefault(false),
            divaDefault(true)};
}

/**
 * `git describe --always --dirty` of the checkout the bench runs in,
 * or "unknown" outside a git work tree. Stamped into every
 * BENCH_*.json so a tracked perf number is attributable to a commit.
 */
inline std::string
gitDescribe()
{
    std::string out = "unknown";
#ifndef _WIN32
    if (std::FILE *pipe =
            ::popen("git describe --always --dirty 2>/dev/null", "r")) {
        char buf[256];
        std::string raw;
        while (std::fgets(buf, sizeof(buf), pipe))
            raw += buf;
        const int rc = ::pclose(pipe);
        while (!raw.empty() &&
               (raw.back() == '\n' || raw.back() == '\r'))
            raw.pop_back();
        if (rc == 0 && !raw.empty() &&
            raw.find('"') == std::string::npos &&
            raw.find('\\') == std::string::npos)
            out = raw;
    }
#endif
    return out;
}

/** The `--out PATH` flag of every bench main; `path` holds the default. */
inline cli::Flag
outFlag(std::string &path)
{
    return {"--out", "PATH", "write the report to PATH (default " + path + ")",
            cli::text(path)};
}

/** One BENCH_*.json metric: field name plus the unit it is read in. */
struct BenchField
{
    std::string name;
    std::string unit;
};

/**
 * Write one BENCH_*.json: a metadata prologue (bench name, git
 * describe, a units map covering every metric field) followed by one
 * array of pre-rendered row objects. All three bench emitters
 * (bench_serve, bench_sweep, bench_fleet) share this shape so
 * ci/check_bench.py can diff any of them against its baseline.
 *
 * When the wall-clock Profiler has accumulated phases (the bench
 * mains enable it around their artifact runs), a top-level "profile"
 * object is appended -- phase name to {seconds, calls} -- so
 * check_bench.py can report phase-level timing drift alongside the
 * row metrics. Top-level on purpose: the rows (what the row-matching
 * in check_bench.py keys on) are unchanged whether profiling ran.
 */
inline bool
writeBenchJson(const std::string &path, const std::string &bench,
               const std::vector<BenchField> &units,
               const std::string &arrayName,
               const std::vector<std::string> &rows)
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\n  \"bench\": \"" << bench << "\",\n  \"git\": \""
       << gitDescribe() << "\",\n  \"units\": {\n";
    for (std::size_t i = 0; i < units.size(); ++i)
        os << "    \"" << units[i].name << "\": \"" << units[i].unit
           << "\"" << (i + 1 < units.size() ? "," : "") << "\n";
    os << "  },\n  \"" << arrayName << "\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i)
        os << "    " << rows[i] << (i + 1 < rows.size() ? "," : "")
           << "\n";
    os << "  ]";
    const auto phases = obs::Profiler::instance().phases();
    if (!phases.empty()) {
        os << ",\n  \"profile\": {\n";
        std::size_t i = 0;
        for (const auto &[name, phase] : phases)
            os << "    \"" << jsonEscape(name) << "\": {\"seconds\": "
               << jsonNumber(phase.seconds) << ", \"calls\": "
               << phase.calls << "}"
               << (++i < phases.size() ? "," : "") << "\n";
        os << "  }";
    }
    os << "\n}\n";
    os.flush();
    return bool(os);
}

} // namespace benchutil
} // namespace diva

#endif // DIVA_BENCH_BENCH_UTIL_H
