/**
 * @file
 * Golden byte-identity of the paper model's outputs. The built
 * diva_sweep prices every zoo model under every algorithm, dataflow
 * and PPU choice at auto batch, monolithic and micro-batched (270
 * scenarios), and must reproduce the checked-in CSV and disk store
 * bit for bit at 1 and 4 threads. A second sweep crosses the chip,
 * pod and GPU backends (232 scenarios) and pins their CSV, JSON and
 * store bytes, including the empty/nan/null cells of the metrics the
 * GPU roofline does not model. A warm rerun on a copy of either
 * checked-in store must serve every scenario from it: the store is
 * indexed by canonical keys, so a drift in the key format shows up as
 * misses. The built diva_paper must print the checked-in figures,
 * tables and fidelity ledger byte for byte, so any change to a paper
 * number fails here until the fixture is regenerated on purpose.
 *
 * The tests run the tool binaries out of the build directory (ctest's
 * working directory) against fixtures under tests/golden/, and skip
 * when a tool or the DIVA_SOURCE_DIR compile definition is
 * unavailable.
 */

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace diva
{
namespace
{

namespace fs = std::filesystem;

/** The zoo sweep the fixtures were written with (270 scenarios). */
const char *const kZooSweep =
    "./diva_sweep --models VGG-16,ResNet-50,ResNet-152,SqueezeNet,"
    "MobileNet,BERT-base,BERT-large,LSTM-small,LSTM-large "
    "--algos sgd,dpsgd,dpsgdr --batches auto --microbatches 0,8 --quiet";

/**
 * Two models on all three backends: 40 chip, 160 pod (chips x ici)
 * and 32 GPU scenarios. The fixtures were written by the tool before
 * the backends became one switch, and must not move.
 */
const char *const kBackendSweep =
    "./diva_sweep --models SqueezeNet,BERT-base --algos dpsgd,dpsgdr "
    "--batches 8,auto --backends chip,pod,gpu --chips 2,4 --ici-gbs 35,70 "
    "--no-speedup --quiet";

std::string
slurp(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream whole;
    whole << in.rdbuf();
    return whole.str();
}

/** Run a command with stdout to `out` and stderr dropped. */
int
runTo(const std::string &cmd, const fs::path &out)
{
    const int status = std::system(
        (cmd + " >" + out.string() + " 2>/dev/null").c_str());
    if (status == -1)
        return -1;
#ifdef WEXITSTATUS
    return WEXITSTATUS(status);
#else
    return status;
#endif
}

fs::path
goldenDir()
{
#ifdef DIVA_SOURCE_DIR
    return fs::path(DIVA_SOURCE_DIR) / "tests" / "golden";
#else
    return {};
#endif
}

/** An empty scratch directory for one run. */
fs::path
freshDir(const std::string &name)
{
    const fs::path dir =
        fs::path(::testing::TempDir()) / "diva-sweep-golden" / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/** Byte-compare a fresh output against a checked-in fixture. */
void
expectFixture(const fs::path &fresh, const std::string &fixture)
{
    const std::string got = slurp(fresh);
    const std::string want = slurp(goldenDir() / fixture);
    ASSERT_FALSE(want.empty()) << fixture << " fixture unreadable";
    EXPECT_TRUE(got == want)
        << fresh << ": output diverged from the golden fixture " << fixture
        << " (" << got.size() << " vs " << want.size() << " bytes)";
}

class SweepGolden : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        if (goldenDir().empty() ||
            !fs::exists(goldenDir() / "sweep" / "zoo.csv"))
            GTEST_SKIP() << "golden fixtures not found";
        if (!fs::exists("./diva_sweep"))
            GTEST_SKIP() << "tool binaries not built";
    }
};

TEST_F(SweepGolden, ColdZooSweepMatchesFixtureAtOneAndFourThreads)
{
    for (const char *threads : {"1", "4"}) {
        SCOPED_TRACE(std::string("--threads ") + threads);
        const fs::path dir = freshDir(std::string("cold-t") + threads);
        ASSERT_EQ(runTo(std::string(kZooSweep) + " --threads " + threads +
                            " --cache-dir " + (dir / "store").string() +
                            " --csv " + (dir / "zoo.csv").string(),
                        dir / "stdout.txt"),
                  0);
        expectFixture(dir / "zoo.csv", "sweep/zoo.csv");
        expectFixture(dir / "store" / "sweep-results.cache",
                      "sweep/sweep-results.cache");
    }
}

TEST_F(SweepGolden, CheckedInStoreServesEveryScenario)
{
    const fs::path dir = freshDir("warm");
    fs::create_directories(dir / "store");
    fs::copy_file(goldenDir() / "sweep" / "sweep-results.cache",
                  dir / "store" / "sweep-results.cache");
    ASSERT_EQ(runTo(std::string(kZooSweep) + " --cache-dir " +
                        (dir / "store").string() + " --csv " +
                        (dir / "zoo.csv").string(),
                    dir / "stdout.txt"),
              0);
    const std::string summary = slurp(dir / "stdout.txt");
    EXPECT_NE(summary.find("cache: 270 hits, 0 misses"), std::string::npos)
        << summary;
    expectFixture(dir / "zoo.csv", "sweep/zoo.csv");
    // Nothing was re-simulated, so nothing was appended.
    expectFixture(dir / "store" / "sweep-results.cache",
                  "sweep/sweep-results.cache");
}

TEST_F(SweepGolden, ColdBackendSweepMatchesFixtureAtOneAndFourThreads)
{
    for (const char *threads : {"1", "4"}) {
        SCOPED_TRACE(std::string("--threads ") + threads);
        const fs::path dir = freshDir(std::string("backends-t") + threads);
        ASSERT_EQ(runTo(std::string(kBackendSweep) + " --threads " +
                            threads + " --cache-dir " +
                            (dir / "store").string() + " --csv " +
                            (dir / "out.csv").string() + " --json " +
                            (dir / "out.json").string(),
                        dir / "stdout.txt"),
                  0);
        expectFixture(dir / "out.csv", "sweep/backends.csv");
        expectFixture(dir / "out.json", "sweep/backends.json");
        expectFixture(dir / "store" / "sweep-results.cache",
                      "sweep/backends.cache");
    }
}

TEST_F(SweepGolden, CheckedInBackendStoreServesEveryScenario)
{
    const fs::path dir = freshDir("backends-warm");
    fs::create_directories(dir / "store");
    fs::copy_file(goldenDir() / "sweep" / "backends.cache",
                  dir / "store" / "sweep-results.cache");
    ASSERT_EQ(runTo(std::string(kBackendSweep) + " --cache-dir " +
                        (dir / "store").string() + " --csv " +
                        (dir / "out.csv").string() + " --json " +
                        (dir / "out.json").string(),
                    dir / "stdout.txt"),
              0);
    const std::string summary = slurp(dir / "stdout.txt");
    EXPECT_NE(summary.find("cache: 232 hits, 0 misses"), std::string::npos)
        << summary;
    expectFixture(dir / "out.csv", "sweep/backends.csv");
    expectFixture(dir / "out.json", "sweep/backends.json");
    expectFixture(dir / "store" / "sweep-results.cache",
                  "sweep/backends.cache");
}

/** The summary rows of `stdout` that start with "| <metric> ". */
std::string
summaryRow(const std::string &stdout_text, const std::string &metric)
{
    std::istringstream in(stdout_text);
    for (std::string line; std::getline(in, line);)
        if (line.rfind("| " + metric + " ", 0) == 0)
            return line;
    return "";
}

TEST_F(SweepGolden, GpuOnlySummaryPrintsDashesForUnmodeledMetrics)
{
    const fs::path dir = freshDir("gpu-summary");
    ASSERT_EQ(runTo("./diva_sweep --backends gpu --models SqueezeNet "
                    "--batches 8 --no-speedup --quiet",
                    dir / "stdout.txt"),
              0);
    const std::string out = slurp(dir / "stdout.txt");
    for (const char *metric : {"cycles", "utilization", "energy (J)"}) {
        const std::string row = summaryRow(out, metric);
        ASSERT_FALSE(row.empty()) << metric << " row missing:\n" << out;
        // Four "-" cells (min, median, p95, max), never a fake 0.
        std::size_t dashes = 0;
        for (std::size_t at = row.find("| - "); at != std::string::npos;
             at = row.find("| - ", at + 1))
            ++dashes;
        EXPECT_EQ(dashes, 4u) << row;
    }
}

/**
 * Every figure, table and ledger row diva_paper prints. After a
 * deliberate model change, regenerate the fixture from the build
 * directory with ./diva_paper > ../tests/golden/paper/diva_paper.txt
 */
TEST(PaperGolden, StdoutMatchesFixture)
{
    if (goldenDir().empty() ||
        !fs::exists(goldenDir() / "paper" / "diva_paper.txt"))
        GTEST_SKIP() << "golden fixtures not found";
    if (!fs::exists("./diva_paper"))
        GTEST_SKIP() << "tool binaries not built";
    const fs::path dir = freshDir("paper");
    ASSERT_EQ(runTo("./diva_paper", dir / "stdout.txt"), 0);
    expectFixture(dir / "stdout.txt", "paper/diva_paper.txt");
}

} // namespace
} // namespace diva
