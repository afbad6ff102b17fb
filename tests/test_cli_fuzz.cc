/**
 * @file
 * Deterministic fuzzing of every parser that reads user text: the argv
 * driver (common/cli.h) on a table using every setter kind, the
 * --arrivals, --pod, --slo-p99-s and --tenant grammars, the CSV /
 * JSONL trace loaders and the disk-cache store reader. A seeded
 * mutator derives each input from a valid seed by byte flips,
 * grammar-token inserts, deletions, duplicated spans and truncation,
 * for a fixed iteration count: no fuzzing engine, and the same inputs
 * on every run. Checked: no crash (CI runs this under ASan+UBSan),
 * every rejection carries an error, and every accepted input stores
 * only in-range values. An input that ever crashes belongs in this
 * file as a named regression test.
 */

#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "arrivals/generate.h"
#include "arrivals/trace.h"
#include "common/cli.h"
#include "common/rng.h"
#include "fleet/fleet.h"
#include "obs/slo.h"
#include "sweep/disk_cache.h"
#include "sweep/runner.h"
#include "sweep/scenario.h"
#include "tenant/tenant.h"

using namespace diva;

namespace
{

constexpr int kIterations = 10000;

/** Each disk-cache input is written to and mapped from a file. */
constexpr int kStoreIterations = 500;

/** Grammar fragments the mutator splices in. */
const std::vector<std::string> kTokens = {
    ",", ":", "=", "-", ".", "e", "E", "+", " ", "\t", "\n", "\"", "{",
    "}", "[", "]", "0", "1", "-1", "0.5", "1e308", "-1e308", "1e-320",
    "nan", "inf", "-inf", "9223372036854775807", "9223372036854775808",
    "-9223372036854775809", "2147483648", "65536", "65537", "auto",
    "all", "on", "off", "WS", "OS", "DiVa", "poisson", "onoff",
    "diurnal", "rate=", "horizon=", "cap=", "steps=", "hold=", "df=",
    "ppu=", "chips=", "count=", "ici-gbs=", "link-lat=", "0x10", "08",
    std::string(1, '\0'), "\xff", "\xc3\xa9"};

/** Seeded mutator: 1-4 random edits of a random seed input. */
class Mutator
{
  public:
    explicit Mutator(std::uint64_t seed) : rng_(seed) {}

    std::string
    mutate(const std::vector<std::string> &seeds)
    {
        std::string s = seeds[pick(seeds.size())];
        const std::size_t edits = 1 + pick(4);
        for (std::size_t e = 0; e < edits; ++e) {
            const std::size_t at = pick(s.size() + 1);
            switch (pick(5)) {
              case 0: // flip one byte
                if (!s.empty())
                    s[pick(s.size())] = char(rng_.next() & 0xff);
                break;
              case 1: // insert a grammar token
                s.insert(at, kTokens[pick(kTokens.size())]);
                break;
              case 2: // delete a span
                s.erase(at, pick(8));
                break;
              case 3: // duplicate a span
                s.insert(at, s.substr(pick(s.size() + 1), pick(12)));
                break;
              default: // truncate
                s.resize(at);
                break;
            }
        }
        return s;
    }

    std::size_t pick(std::size_t n) { return std::size_t(rng_.uniformInt(n)); }

  private:
    Rng rng_;
};

bool
finiteAtLeast(double v, double lo)
{
    return std::isfinite(v) && v >= lo;
}

TEST(CliFuzz, TraceGenSpecAcceptsOnlyValidSpecs)
{
    const std::vector<std::string> seeds = {
        "poisson:rate=4,seed=7,hold=2,qos=2",
        "onoff:rate=12,on=0.25,off=0.75,seed=3,hold=1,qos=2",
        "diurnal:rate=4,peak=6,horizon=8,seed=3,hold=1,qos=2,prios=3",
        "poisson:rate=6,horizon=4,cap=24,steps=0,batch=8"};
    Mutator m(1);
    for (int i = 0; i < kIterations; ++i) {
        const std::string text = m.mutate(seeds);
        std::string err;
        const std::optional<TraceGenSpec> spec =
            parseTraceGenSpec(text, &err);
        if (!spec)
            EXPECT_FALSE(err.empty()) << "'" << text << "'";
        else
            EXPECT_EQ(spec->validationError(), "") << "'" << text << "'";
    }
}

TEST(CliFuzz, PodTemplateAcceptsOnlyValidPods)
{
    const std::vector<std::string> seeds = {
        "df=DiVa,count=2", "df=OS,chips=4,count=16,ici-gbs=35",
        "df=WS,ppu=off,link-lat=250", "dataflow=OS,ppu=on,chips=2"};
    Mutator m(2);
    for (int i = 0; i < kIterations; ++i) {
        const std::string text = m.mutate(seeds);
        std::string err;
        const auto group = parsePodTemplate(text, &err);
        if (!group) {
            EXPECT_FALSE(err.empty()) << "'" << text << "'";
            continue;
        }
        ASSERT_FALSE(group->empty()) << "'" << text << "'";
        EXPECT_LE(group->size(), 65536u);
        const PodSpec &pod = group->front();
        EXPECT_EQ(pod.validationError(), "") << "'" << text << "'";
        EXPECT_LE(pod.chips, MultiChipConfig::kMaxChips);
        EXPECT_LE(pod.pod.linkLatencyCycles,
                  Cycles(MultiChipConfig::kMaxLinkLatencyCycles));
    }
}

TEST(CliFuzz, SloSpecAcceptsOnlyPositiveTargets)
{
    const std::vector<std::string> seeds = {"0.5", "0.5,1:0.2",
                                            "1:0.2,2:0.1", "3:1e-3"};
    Mutator m(3);
    for (int i = 0; i < kIterations; ++i) {
        const std::string text = m.mutate(seeds);
        obs::SloSpec slo;
        std::string err;
        if (!obs::parseSloSpec(text, &slo, &err)) {
            EXPECT_FALSE(err.empty()) << "'" << text << "'";
            continue;
        }
        EXPECT_TRUE(slo.globalTargetSec == 0.0 ||
                    finiteAtLeast(slo.globalTargetSec, 0.0))
            << "'" << text << "'";
        for (std::size_t k = 0; k < slo.perPriority.size(); ++k) {
            EXPECT_TRUE(std::isfinite(slo.perPriority[k].second) &&
                        slo.perPriority[k].second > 0.0)
                << "'" << text << "'";
            if (k > 0)
                EXPECT_LT(slo.perPriority[k - 1].first,
                          slo.perPriority[k].first)
                    << "'" << text << "'";
        }
    }
}

TEST(CliFuzz, TenantSpecStoresOnlyInRangeFields)
{
    const std::vector<std::string> seeds = {
        "ResNet-50:32:2.5:0:1:64", "SqueezeNet:8:4:0.001:1:0:0.02",
        "MobileNet:auto", "BERT-base:8:0:0.002:3:40:9"};
    Mutator m(4);
    for (int i = 0; i < kIterations; ++i) {
        const std::string text = m.mutate(seeds);
        TenantJob job;
        job.steps = 7;
        const TenantJob before = job;
        const std::string rule = parseTenantSpec(text, &job);
        if (!rule.empty()) {
            // A rejected spec leaves the job as it was.
            EXPECT_EQ(job.model, before.model) << "'" << text << "'";
            EXPECT_EQ(job.batch, before.batch) << "'" << text << "'";
            continue;
        }
        EXPECT_FALSE(job.model.empty()) << "'" << text << "'";
        EXPECT_TRUE(job.batch >= 1 || job.batch == kAutoBatch);
        EXPECT_TRUE(finiteAtLeast(job.qosStepsPerSec, 0.0));
        EXPECT_TRUE(finiteAtLeast(job.arrivalSec, 0.0));
        EXPECT_TRUE(finiteAtLeast(job.departSec, 0.0));
        EXPECT_LE(job.steps, std::uint64_t(LLONG_MAX));
    }
}

TEST(CliFuzz, TraceLoadersRejectWithAnError)
{
    const std::vector<std::string> csv_seeds = {
        "# trace: t\nname,model,scale,batch,microbatch,algorithm,"
        "arrival_s,depart_s,priority,steps,qos_sps,qos_deadline_s\n"
        "a0:SqueezeNet,SqueezeNet,0,8,0,DP-SGD(R),0,1,0,4,2,0\n"
        "a1:MobileNet,MobileNet,0,8,0,DP-SGD,0.5,0,1,4,0,0\n",
        "model,arrival_s,depart_s,steps\nSqueezeNet,5,2,4\n"
        "LSTM-small,6,0,3\n"};
    const std::vector<std::string> jsonl_seeds = {
        "{\"model\": \"SqueezeNet\", \"arrival_s\": 0, \"steps\": 4}\n"
        "{\"name\": \"x\", \"model\": \"MobileNet\", \"arrival_s\": 1.5, "
        "\"depart_s\": 3, \"priority\": 2, \"qos_sps\": 2}\n",
        "{\"trace\": \"t\"}\n{\"model\": \"LSTM-small\", \"batch\": 8, "
        "\"algorithm\": \"sgd\"}\n"};
    Mutator m(5);
    for (int i = 0; i < kIterations; ++i) {
        for (const bool jsonl : {false, true}) {
            const std::string text = m.mutate(jsonl ? jsonl_seeds : csv_seeds);
            std::istringstream in(text);
            std::string err = "stale";
            const ArrivalTrace trace = jsonl ? loadTraceJsonl(in, &err)
                                             : loadTraceCsv(in, &err);
            if (!err.empty())
                continue; // rejected, with its reason
            for (const TenantJob &job : trace.jobs) {
                EXPECT_TRUE(std::isfinite(job.arrivalSec) &&
                            std::isfinite(job.departSec))
                    << "'" << text << "'";
                EXPECT_GE(job.batch, 0) << "'" << text << "'";
            }
        }
    }
}

/** `payload` under its FNV-1a 64-bit checksum, as a store line. */
std::string
storeLine(const std::string &payload)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : payload) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    char hex[24];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(h));
    return std::string(hex) + '\t' + payload;
}

std::vector<std::string>
splitOn(const std::string &text, char sep)
{
    std::vector<std::string> out(1);
    for (char c : text) {
        if (c == sep)
            out.emplace_back();
        else
            out.back() += c;
    }
    return out;
}

std::string
joinWith(const std::vector<std::string> &items, char sep)
{
    std::string out;
    for (std::size_t i = 0; i < items.size(); ++i)
        out += (i ? std::string(1, sep) : "") + items[i];
    return out;
}

/** The lines of a store a sweep wrote: its header, then a chip, a pod
 *  and a GPU record. */
std::vector<std::string>
sweptStore(const std::filesystem::path &dir)
{
    SweepSpec spec;
    spec.configs = {divaDefault(true)};
    spec.models = {"SqueezeNet"};
    spec.batches = {8};
    spec.backends = {SweepBackend::kSingleChip, SweepBackend::kMultiChip,
                     SweepBackend::kGpu};
    spec.pods = {MultiChipConfig{}};
    spec.gpus = {GpuConfig::v100Fp16()};
    SweepOptions opts;
    opts.cacheDir = dir.string();
    SweepRunner(opts).run(spec);
    std::ifstream in(dir / "sweep-results.cache");
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    return lines;
}

TEST(CliFuzz, DiskCacheLoadsOnlyInRangeRecords)
{
    namespace fs = std::filesystem;
    const fs::path root =
        fs::path(::testing::TempDir()) / "diva-cli-fuzz-cache";
    fs::remove_all(root);
    const std::vector<std::string> seed = sweptStore(root / "seed");
    ASSERT_EQ(seed.size(), 4u);
    const std::string header = seed[0];
    const fs::path dir = root / "fuzz";
    fs::create_directories(dir);
    const fs::path file = dir / "sweep-results.cache";
    Mutator m(7);
    for (int i = 0; i < kStoreIterations; ++i) {
        std::vector<std::string> lines = seed;
        const std::size_t record = 1 + m.pick(3);
        switch (m.pick(5)) {
          case 0:   // a field per record edited, checksums recomputed
          case 1: { // the same, appended as duplicate keys
            const bool duplicate = m.pick(2);
            for (std::size_t r = 1; r < seed.size(); ++r) {
                // Past the 16-digit checksum and its tab.
                std::vector<std::string> f = splitOn(seed[r].substr(17), '\t');
                std::string &field = f[m.pick(f.size())];
                field = m.pick(2) ? kTokens[m.pick(kTokens.size())]
                                  : m.mutate({field});
                if (duplicate)
                    lines.push_back(storeLine(joinWith(f, '\t')));
                else
                    lines[r] = storeLine(joinWith(f, '\t'));
            }
            break;
          }
          case 2: // a foreign or missing header
            if (m.pick(2))
                lines[0] = m.mutate({header});
            else
                lines.erase(lines.begin());
            break;
          case 3: // a torn append: the file ends inside a record
            lines.push_back(seed[record]);
            lines.back().resize(m.pick(lines.back().size()));
            break;
          default: // flipped bytes, bad checksums, truncation
            lines = splitOn(m.mutate({joinWith(lines, '\n')}), '\n');
            break;
        }
        const std::string text = joinWith(lines, '\n') + '\n';
        std::ofstream(file, std::ios::binary | std::ios::trunc) << text;
        const DiskCache cache(dir.string());
        if (text.substr(0, text.find('\n')) != header) {
            EXPECT_EQ(cache.size(), 0u) << "'" << text << "'";
        }
        for (const auto &[key, r] : cache.entries()) {
            EXPECT_GE(r.resolvedBatch, 1) << "'" << text << "'";
            EXPECT_TRUE(std::isfinite(r.seconds) && r.seconds > 0.0)
                << "'" << text << "'";
            EXPECT_TRUE(finiteAtLeast(r.utilization, 0.0) &&
                        finiteAtLeast(r.energyJ, 0.0) &&
                        finiteAtLeast(r.enginePowerW, 0.0) &&
                        finiteAtLeast(r.engineAreaMm2, 0.0))
                << "'" << text << "'";
        }
    }
}

/** Destinations of the driver fuzz table, one per setter kind. */
struct Dst
{
    int count = 5;
    std::uint64_t steps = 1;
    double rate = 1.0;
    double frac = 1.0;
    double gap = 0.0;
    std::string path;
    bool on = false;
    bool off = true;
    int mode = 0;
    int batch = 8;
    std::vector<int> sizes = {1};
    std::vector<bool> ppus = {false};
    std::vector<std::string> seen;
};

cli::FlagTable
fuzzTable(Dst &d)
{
    return {{"Every setter kind",
             {{"--count", "N", "integer in [1, 64]",
               cli::set(d.count, cli::integer(1, 64))},
              {"--steps", "N", "unsigned integer >= 0",
               cli::set(d.steps, cli::integer<std::uint64_t>(0))},
              {"--rate", "R", "real > 0", cli::set(d.rate, cli::real(0.0))},
              {"--frac", "F", "real in (0, 1]",
               cli::set(d.frac, cli::real(0.0, false, 1.0))},
              {"--gap", "S", "real >= 0",
               cli::set(d.gap, cli::real(0.0, true))},
              {"--path", "PATH", "text", cli::text(d.path)},
              {"--on", "", "switch", cli::toggle(d.on)},
              {"--no-off", "", "switch off", cli::toggle(d.off, false)},
              {"--mode", "NAME", "one name of a fixed list",
               cli::set(d.mode, cli::oneOf<int>({{"a", 1}, {"b", 2}}))},
              {"--batch", "N|auto", "integer or a word",
               cli::set(d.batch, cli::orWord(cli::integer(1, 4096),
                                             "auto", 0))},
              {"--sizes", "LIST", "comma list of integers",
               cli::list(d.sizes, cli::integer(0, 100))},
              {"--ppus", "LIST", "comma list of names",
               cli::list(d.ppus,
                         cli::oneOf<bool>({{"off", false}, {"on", true}}))},
              {"--seen", "SPEC", "repeatable custom setter",
               [&d](const std::string &v) {
                   d.seen.push_back(v);
                   return std::string();
               }}}}};
}

TEST(CliFuzz, ArgvDriverStoresOnlyInRangeValues)
{
    const std::vector<std::string> words = {
        "--count", "--steps", "--rate", "--frac", "--gap", "--path",
        "--on", "--no-off", "--mode", "--batch", "--sizes", "--ppus",
        "--seen", "--bogus", "-h", "--help", "-", "--", "3", "0.5", "a",
        "b", "auto", "on,off", "1,2,3", ""};
    const std::vector<std::string> value_seeds = {
        "1", "64", "0.25", "1e3", "a", "auto", "0,100", "on,off,on",
        "x.csv"};
    Mutator m(6);
    for (int i = 0; i < kIterations; ++i) {
        std::vector<std::string> args = {"fuzz"};
        const std::size_t n = m.pick(7);
        for (std::size_t k = 0; k < n; ++k)
            args.push_back(m.pick(2) ? words[m.pick(words.size())]
                                     : m.mutate(value_seeds));
        std::vector<const char *> argv;
        for (const std::string &a : args)
            argv.push_back(a.c_str());
        Dst d;
        std::ostringstream out, err;
        const std::optional<int> rc =
            cli::parseArgs("fuzz", int(argv.size()), argv.data(),
                           fuzzTable(d), out, err);
        std::string joined;
        for (const std::string &a : args)
            joined += "[" + a + "]";
        if (rc == 1) {
            // One line, in one of the driver's three forms.
            const std::string e = err.str();
            EXPECT_EQ(e.rfind("fuzz: ", 0), 0u) << joined;
            EXPECT_TRUE(e.find(", got '") != std::string::npos ||
                        e.find(" needs a value\n") != std::string::npos ||
                        e.find("(see --help)\n") != std::string::npos)
                << joined << " -> " << e;
            continue;
        }
        if (rc == 0) {
            EXPECT_NE(out.str().find("usage: fuzz"), std::string::npos);
            continue;
        }
        ASSERT_FALSE(rc.has_value()) << joined;
        EXPECT_TRUE(err.str().empty()) << joined;
        EXPECT_TRUE(d.count >= 1 && d.count <= 64) << joined;
        EXPECT_TRUE(d.rate > 0.0 && std::isfinite(d.rate)) << joined;
        EXPECT_TRUE(d.frac > 0.0 && d.frac <= 1.0) << joined;
        EXPECT_TRUE(finiteAtLeast(d.gap, 0.0)) << joined;
        EXPECT_TRUE(d.mode == 0 || d.mode == 1 || d.mode == 2) << joined;
        EXPECT_TRUE(d.batch == 0 || (d.batch >= 1 && d.batch <= 4096))
            << joined;
        EXPECT_FALSE(d.sizes.empty()) << joined;
        for (int s : d.sizes)
            EXPECT_TRUE(s >= 0 && s <= 100) << joined;
        EXPECT_FALSE(d.ppus.empty()) << joined;
    }
}

TEST(CliFuzz, UsageListsEveryRow)
{
    Dst d;
    std::ostringstream usage;
    const cli::FlagTable table = fuzzTable(d);
    cli::printUsage("fuzz", table, usage);
    for (const cli::Flag &f : table.front().flags)
        EXPECT_NE(usage.str().find("  " + f.name + " "), std::string::npos)
            << f.name;
}

} // namespace
