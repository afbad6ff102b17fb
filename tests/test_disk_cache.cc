/**
 * @file
 * Tests for the persistent on-disk sweep result cache: round-trip
 * fidelity, corruption tolerance, version handling, the
 * never-persist-failures rule, and SweepRunner integration (fresh run
 * = misses, rerun = 100% hits, byte-identical CSV, a failed append
 * retried by the next run, stale micro-batched pod rows re-simulated).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sweep/disk_cache.h"
#include "sweep/emit.h"
#include "sweep/runner.h"
#include "sweep/spec.h"

namespace diva
{
namespace
{

/** Unique empty cache directory under the test temp dir. */
std::string
freshCacheDir(const std::string &name)
{
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / "diva-cache" / name;
    std::filesystem::remove_all(dir);
    return dir.string();
}

ScenarioResult
sampleResult(int salt)
{
    ScenarioResult r;
    r.resolvedBatch = 8 + salt;
    r.cycles = 1000 + Cycles(salt);
    r.computeCycles = 900 + Cycles(salt);
    r.allReduceCycles = 100;
    r.seconds = 0.125 + double(salt) * 1e-3;
    r.utilization = 0.5;
    r.energyJ = 2.5 + double(salt);
    r.dramBytes = 1 << 20;
    r.postProcDramBytes = 1 << 10;
    r.enginePowerW = 23.8;
    r.engineAreaMm2 = 85.0;
    return r;
}

TEST(DiskCache, RoundTripsEveryStoredField)
{
    const std::string dir = freshCacheDir("roundtrip");
    {
        DiskCache cache(dir);
        EXPECT_EQ(cache.size(), 0u);
        EXPECT_EQ(cache.append({{"key-a", sampleResult(1)},
                                {"key-b", sampleResult(2)}}),
                  2u);
    }
    DiskCache reloaded(dir);
    EXPECT_EQ(reloaded.size(), 2u);
    EXPECT_EQ(reloaded.corruptLinesSkipped(), 0u);
    ASSERT_TRUE(reloaded.contains("key-a"));
    const ScenarioResult &got = reloaded.entries().at("key-a");
    const ScenarioResult want = sampleResult(1);
    EXPECT_EQ(got.resolvedBatch, want.resolvedBatch);
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.computeCycles, want.computeCycles);
    EXPECT_EQ(got.allReduceCycles, want.allReduceCycles);
    EXPECT_EQ(got.seconds, want.seconds);
    EXPECT_EQ(got.utilization, want.utilization);
    EXPECT_EQ(got.energyJ, want.energyJ);
    EXPECT_EQ(got.dramBytes, want.dramBytes);
    EXPECT_EQ(got.postProcDramBytes, want.postProcDramBytes);
    EXPECT_EQ(got.enginePowerW, want.enginePowerW);
    EXPECT_EQ(got.engineAreaMm2, want.engineAreaMm2);
    EXPECT_TRUE(got.ok());
}

TEST(DiskCache, AppendSkipsDuplicatesAndUnstorableKeys)
{
    const std::string dir = freshCacheDir("dupes");
    DiskCache cache(dir);
    EXPECT_EQ(cache.append({{"key", sampleResult(0)}}), 1u);
    EXPECT_EQ(cache.append({{"key", sampleResult(1)}}), 0u);
    EXPECT_EQ(cache.append({{"bad\tkey", sampleResult(0)}}), 0u);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(DiskCache, NeverPersistsFailedResults)
{
    const std::string dir = freshCacheDir("failures");
    {
        DiskCache cache(dir);
        ScenarioResult failed = sampleResult(0);
        failed.error = "transient boom";
        EXPECT_EQ(cache.append({{"failed-key", failed}}), 0u);
        EXPECT_FALSE(cache.contains("failed-key"));
    }
    DiskCache reloaded(dir);
    EXPECT_EQ(reloaded.size(), 0u);
}

/** A store line for `payload` under its FNV-1a 64-bit checksum. */
std::string
checksummedLine(const std::string &payload)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : payload) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    char hex[24];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(h));
    return std::string(hex) + '\t' + payload + '\n';
}

/** Record fields by position (0 is the key). */
enum Field : std::size_t
{
    kBatch = 1,
    kSeconds = 5,
    kUtilization = 6,
    kEnergy = 7,
    kPower = 10,
    kArea = 11,
};

/** A well-formed record payload with each `edits` field replaced. */
std::string
payloadWith(const std::string &key,
            const std::vector<std::pair<Field, std::string>> &edits)
{
    std::vector<std::string> f = {key,       "8",     "1000", "900",
                                  "100",     "0.125", "0.5",  "2.5",
                                  "1048576", "1024",  "23.8", "85"};
    for (const auto &[field, value] : edits)
        f[field] = value;
    std::string payload = f[0];
    for (std::size_t i = 1; i < f.size(); ++i)
        payload += '\t' + f[i];
    return payload;
}

TEST(DiskCache, SkipsCorruptLinesButKeepsValidOnes)
{
    const std::string dir = freshCacheDir("corrupt");
    std::string path;
    {
        DiskCache cache(dir);
        cache.append({{"good-1", sampleResult(1)}});
        path = cache.filePath();
    }
    // Simulate a torn append and an edited record.
    {
        std::ofstream out(path, std::ios::app);
        out << "deadbeefdeadbeef\tgarbage payload\n";
        out << "not even a record\n";
        out << "0123456789abcdef\ttruncated\t1\t2\n";
        // Valid checksums, but values no successful result has: each
        // must be rejected, not wrapped into some int or served as a
        // cache hit.
        const std::vector<std::pair<Field, std::string>> bad = {
            {kBatch, "4294967297"}, {kBatch, "2147483648"},
            {kBatch, "0"},          {kSeconds, "0"},
            {kSeconds, "-0.125"},   {kSeconds, "nan"},
            {kSeconds, "inf"},      {kUtilization, "-0.5"},
            {kUtilization, "inf"},  {kEnergy, "-1e300"},
            {kEnergy, "nan"},       {kPower, "-23.8"},
            {kPower, "-inf"},       {kArea, "-85"},
            {kArea, "nan"}};
        for (std::size_t i = 0; i < bad.size(); ++i)
            out << checksummedLine(
                payloadWith("bad-" + std::to_string(i), {bad[i]}));
        // The largest batch an int holds still loads, and so does a GPU
        // record, which carries 0 utilization, energy, power and area.
        out << checksummedLine(
            payloadWith("good-max", {{kBatch, "2147483647"}}));
        out << checksummedLine(payloadWith("good-gpu", {{kUtilization, "0"},
                                                        {kEnergy, "0"},
                                                        {kPower, "0"},
                                                        {kArea, "0"}}));
    }
    DiskCache cache(dir);
    EXPECT_EQ(cache.size(), 3u);
    EXPECT_TRUE(cache.contains("good-1"));
    EXPECT_TRUE(cache.contains("good-gpu"));
    ASSERT_TRUE(cache.contains("good-max"));
    EXPECT_EQ(cache.entries().at("good-max").resolvedBatch,
              std::numeric_limits<int>::max());
    EXPECT_EQ(cache.corruptLinesSkipped(), 18u);
    // The store stays writable after corruption.
    EXPECT_EQ(cache.append({{"good-2", sampleResult(2)}}), 1u);
    DiskCache reloaded(dir);
    EXPECT_EQ(reloaded.size(), 4u);
}

/** Replace the first line of the store at `path` with `header`. */
void
replaceHeader(const std::string &path, const std::string &header)
{
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    std::ostringstream rest;
    rest << in.rdbuf();
    in.close();
    std::ofstream out(path, std::ios::trunc);
    out << header << '\n' << rest.str();
}

// A store of a future record format, and a valid store written before
// the header named a model revision (whose records a superseded model
// priced), are both ignored wholesale and rewritten.
TEST(DiskCache, ForeignVersionIsIgnoredThenRewritten)
{
    for (const std::string header :
         {"diva-sweep-cache v999", "diva-sweep-cache v1"}) {
        SCOPED_TRACE(header);
        const std::string dir = freshCacheDir("version");
        std::string path;
        {
            DiskCache cache(dir);
            cache.append({{"old-key", sampleResult(0)}});
            path = cache.filePath();
        }
        replaceHeader(path, header);
        DiskCache cache(dir);
        EXPECT_EQ(cache.size(), 0u); // nothing half-parsed or served
        EXPECT_EQ(cache.append({{"new-key", sampleResult(1)}}), 1u);
        DiskCache reloaded(dir);
        EXPECT_EQ(reloaded.size(), 1u);
        EXPECT_TRUE(reloaded.contains("new-key"));
        EXPECT_EQ(reloaded.corruptLinesSkipped(), 0u);
    }
}

/** 2 configs x 1 model x 2 algos, cheap to simulate. */
SweepSpec
tinySpec()
{
    SweepSpec spec;
    spec.configs = {tpuV3Ws(), divaDefault(true)};
    spec.models = {"SqueezeNet"};
    spec.algorithms = {TrainingAlgorithm::kDpSgd,
                       TrainingAlgorithm::kDpSgdR};
    spec.batches = {4};
    return spec;
}

TEST(DiskCache, RunnerFreshRunMissesRerunAllHits)
{
    const std::string dir = freshCacheDir("runner");
    const std::vector<Scenario> scenarios = tinySpec().expand().scenarios;

    SweepOptions opts;
    opts.cacheDir = dir;
    std::string first_csv;
    {
        SweepRunner runner(opts);
        const SweepReport report = runner.run(scenarios);
        EXPECT_EQ(report.cacheMisses, scenarios.size());
        EXPECT_EQ(report.cacheHits, 0u);
        std::ostringstream oss;
        writeCsv(oss, report);
        first_csv = oss.str();
    }
    {
        // A brand-new runner (= a new process) sees only the disk.
        SweepRunner runner(opts);
        const SweepReport report = runner.run(scenarios);
        EXPECT_EQ(report.cacheMisses, 0u);
        EXPECT_EQ(report.cacheHits, scenarios.size());
        for (const ScenarioResult &r : report.results)
            EXPECT_TRUE(r.cacheHit);
        std::ostringstream oss;
        writeCsv(oss, report);
        EXPECT_EQ(oss.str(), first_csv); // byte-identical CSV
    }
}

TEST(DiskCache, RunnerWithoutCacheDirDoesNotTouchDisk)
{
    SweepRunner runner;
    EXPECT_EQ(runner.diskCache(), nullptr);
}

TEST(DiskCache, RunnerPersistsAcrossClearCacheViaDisk)
{
    const std::string dir = freshCacheDir("clear");
    const std::vector<Scenario> scenarios = tinySpec().expand().scenarios;
    SweepOptions opts;
    opts.cacheDir = dir;
    SweepRunner runner(opts);
    const SweepReport first = runner.run(scenarios);
    EXPECT_EQ(first.cacheMisses, scenarios.size());
    // Fresh results go to the disk store, which clearCache() keeps.
    runner.clearCache();
    const SweepReport second = runner.run(scenarios);
    EXPECT_EQ(second.cacheMisses, 0u);
    EXPECT_EQ(second.cacheHits, scenarios.size());
}

TEST(DiskCache, FailedAppendIsRetriedByTheNextRun)
{
    // The runner serves only what the store holds: a result whose
    // append failed is simulated and appended again by the next run()
    // instead of being served from memory and never written.
    const std::string dir = freshCacheDir("retry");
    const std::vector<Scenario> scenarios = tinySpec().expand().scenarios;
    SweepOptions opts;
    opts.cacheDir = dir;
    SweepRunner runner(opts);
    const std::filesystem::path store = runner.diskCache()->filePath();
    // A directory where the store file belongs makes the append fail.
    std::filesystem::create_directories(store);
    const SweepReport first = runner.run(scenarios);
    EXPECT_EQ(first.cacheMisses, scenarios.size());
    EXPECT_EQ(runner.cacheSize(), 0u);

    std::filesystem::remove(store);
    const SweepReport second = runner.run(scenarios);
    EXPECT_EQ(second.cacheMisses, scenarios.size());
    EXPECT_EQ(runner.diskCache()->size(), scenarios.size());
    EXPECT_EQ(SweepRunner(opts).cacheSize(), scenarios.size())
        << "a fresh runner must find the retried results on disk";
}

TEST(DiskCache, StaleMicrobatchedPodRowIsResimulated)
{
    // Pods once ignored the micro-batch, and a store written then keys
    // such a row exactly as below. The row must never be served: the
    // pod is simulated afresh and stored under its current key.
    const std::string stale_key =
        "pod|ResNet-50|0|DP-SGD|64|4|cfg=DiVa;DiVa;128;128;0.94;16777216;"
        "450;100;8;0;8;1;2;4;1024|chips=2|ici=70|lat=500";
    Scenario pod;
    pod.config = divaDefault(true);
    pod.model = "ResNet-50";
    pod.algorithm = TrainingAlgorithm::kDpSgd;
    pod.batch = 64;
    pod.microbatch = 4;
    pod.backend = SweepBackend::kMultiChip;
    pod.pod.numChips = 2;
    ASSERT_EQ(pod.canonicalKey(), stale_key + "|mb=per-chip");

    const std::string dir = freshCacheDir("stale-pod");
    ASSERT_EQ(DiskCache(dir).append({{stale_key, sampleResult(0)}}), 1u);

    SweepOptions opts;
    opts.cacheDir = dir;
    SweepRunner runner(opts);
    ASSERT_TRUE(runner.diskCache()->contains(stale_key));
    const SweepReport report = runner.run(std::vector<Scenario>{pod});
    EXPECT_EQ(report.cacheHits, 0u);
    EXPECT_EQ(report.cacheMisses, 1u);
    const ScenarioResult &r = report.results[0];
    ASSERT_TRUE(r.ok()) << r.error;
    Scenario shard = pod;
    shard.backend = SweepBackend::kSingleChip;
    shard.batch = 32;
    EXPECT_EQ(r.computeCycles, runScenario(shard).cycles);
    EXPECT_TRUE(SweepRunner(opts).diskCache()->contains(pod.canonicalKey()));
}

} // namespace
} // namespace diva
