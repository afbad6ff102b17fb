/**
 * @file
 * Unit tests for common utilities: RNG determinism and statistics,
 * text-table formatting, CSV cell quoting, ceil-division, logging
 * macros.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "common/format.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/types.h"

namespace diva
{
namespace
{

TEST(CeilDiv, ExactAndInexact)
{
    EXPECT_EQ(ceilDiv(0, 4), 0);
    EXPECT_EQ(ceilDiv(1, 4), 1);
    EXPECT_EQ(ceilDiv(4, 4), 1);
    EXPECT_EQ(ceilDiv(5, 4), 2);
    EXPECT_EQ(ceilDiv(8, 4), 2);
    EXPECT_EQ(ceilDiv<std::int64_t>(1'000'000'007, 128), 7812501);
}

TEST(ByteLiterals, Values)
{
    EXPECT_EQ(1_KiB, 1024u);
    EXPECT_EQ(1_MiB, 1024u * 1024u);
    EXPECT_EQ(16_MiB, 16u * 1024u * 1024u);
    EXPECT_EQ(16_GiB, 16ull * 1024 * 1024 * 1024);
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next()) ? 1 : 0;
    EXPECT_LT(same, 4);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespected)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-3.0, 5.0);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(Rng, UniformIntBounded)
{
    Rng rng(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t v = rng.uniformInt(10);
        EXPECT_LT(v, 10u);
        seen.insert(v);
    }
    // All residues should appear over 1000 draws.
    EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, UniformIntZeroIsZero)
{
    Rng rng(11);
    EXPECT_EQ(rng.uniformInt(0), 0u);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(42);
    const int n = 200000;
    double sum = 0.0, sum_sq = 0.0;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sum_sq += g * g;
    }
    const double mean = sum / n;
    const double var = sum_sq / n - mean * mean;
    EXPECT_NEAR(mean, 0.0, 0.02);
    EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Rng, GaussianScaleAndShift)
{
    Rng rng(43);
    const int n = 100000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i)
        sum += rng.gaussian(5.0, 2.0);
    EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(Rng, FillGaussianStddev)
{
    Rng rng(44);
    std::vector<float> v(100000);
    rng.fillGaussian(v, 3.0);
    double sum_sq = 0.0;
    for (float x : v)
        sum_sq += double(x) * double(x);
    EXPECT_NEAR(std::sqrt(sum_sq / double(v.size())), 3.0, 0.1);
}

TEST(Logging, PanicThrowsLogicError)
{
    // A panic is an internal fault, so its line says where it fired.
    testing::internal::CaptureStderr();
    EXPECT_THROW(DIVA_PANIC("boom ", 42), std::logic_error);
    const std::string line = testing::internal::GetCapturedStderr();
    EXPECT_EQ(line.rfind("panic: boom 42 @ ", 0), 0u) << line;
    EXPECT_NE(line.find("test_common.cc:"), std::string::npos) << line;
}

TEST(Logging, FatalThrowsRuntimeError)
{
    // A fatal is a user error: its line ends at the message.
    testing::internal::CaptureStderr();
    EXPECT_THROW(DIVA_FATAL("bad config ", 1.5), std::runtime_error);
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              "fatal: bad config 1.5\n");
}

TEST(Logging, AssertPassesOnTrue)
{
    EXPECT_NO_THROW(DIVA_ASSERT(1 + 1 == 2));
}

TEST(Logging, AssertThrowsOnFalse)
{
    EXPECT_THROW(DIVA_ASSERT(false, "context ", 7), std::logic_error);
}

TEST(TextTable, AlignsColumns)
{
    TextTable t({"a", "bb"});
    t.addRow({"xxxx", "y"});
    t.addRow({"z"});
    std::ostringstream oss;
    t.print(oss);
    const std::string out = oss.str();
    EXPECT_NE(out.find("| xxxx | y  |"), std::string::npos);
    EXPECT_NE(out.find("| z    |    |"), std::string::npos);
    EXPECT_EQ(t.numRows(), 2u);
}

TEST(TextTable, SeparatorDoesNotCountAsRow)
{
    TextTable t({"a"});
    t.addRow({"1"});
    t.addSeparator();
    t.addRow({"2"});
    EXPECT_EQ(t.numRows(), 2u);
}

TEST(Format, CsvCellQuotesPerRfc4180)
{
    EXPECT_EQ(csvCell("two, three"), "\"two, three\"");
    EXPECT_EQ(csvCell("quo\"te"), "\"quo\"\"te\"");
    EXPECT_EQ(csvCell("line\nbreak"), "\"line\nbreak\"");
    EXPECT_EQ(csvCell(""), "");
    EXPECT_EQ(csvCell("plain"), "plain");
}

TEST(TextTable, Formatters)
{
    EXPECT_EQ(TextTable::fmt(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::fmtX(2.5, 1), "2.5x");
    EXPECT_EQ(TextTable::fmtPct(0.421, 1), "42.1%");
}

} // namespace
} // namespace diva
