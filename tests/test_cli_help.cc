/**
 * @file
 * The --help text and the argv parser of each CLI cannot drift apart:
 * every value flag a tool's --help lists must be one its parser knows,
 * so running the tool with that flag and no value exits 1 with an
 * error naming the flag (an unknown flag would say so instead). ctest
 * runs with the build directory as the working directory; the suite
 * skips when the tool binaries were not built.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace
{

/** Run `cmd`, stdout to `out` and stderr to `err`; its exit status. */
int
run(const std::string &cmd, const std::string &out, const std::string &err)
{
    const int status =
        std::system((cmd + " >" + out + " 2>" + err).c_str());
#ifdef WEXITSTATUS
    return status == -1 ? -1 : WEXITSTATUS(status);
#else
    return status;
#endif
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream all;
    all << in.rdbuf();
    return all.str();
}

/** Flags --help lists with a value placeholder ("  --name VALUE  ..."). */
std::vector<std::string>
valueFlags(const std::string &usage)
{
    std::vector<std::string> flags;
    std::istringstream lines(usage);
    for (std::string line; std::getline(lines, line);) {
        if (line.rfind("  --", 0) != 0)
            continue;
        const std::size_t end = line.find(' ', 2);
        if (end != std::string::npos && end + 1 < line.size() &&
            line[end + 1] != ' ')
            flags.push_back(line.substr(2, end - 2));
    }
    return flags;
}

class CliHelp : public ::testing::TestWithParam<const char *>
{
  protected:
    void SetUp() override
    {
        if (!std::ifstream(std::string("./") + GetParam()).good())
            GTEST_SKIP() << "tool binaries not built";
    }
};

TEST_P(CliHelp, EveryListedValueFlagIsParsed)
{
    const std::string tool = std::string("./") + GetParam();
    const std::string out = std::string(GetParam()) + "_help.out";
    const std::string err = std::string(GetParam()) + "_help.err";
    ASSERT_EQ(run(tool + " --help", out, err), 0);
    const std::vector<std::string> flags = valueFlags(slurp(out));
    ASSERT_GE(flags.size(), 20u) << slurp(out);
    for (const std::string &flag : flags) {
        EXPECT_EQ(run(tool + " " + flag, out, err), 1) << flag;
        const std::string msg = slurp(err);
        EXPECT_NE(msg.find(flag + " needs a value"), std::string::npos)
            << flag << ": " << msg;
    }
    std::remove(out.c_str());
    std::remove(err.c_str());
}

TEST_P(CliHelp, SharedFlagsTakeOneRange)
{
    // A flag every tool has takes the same values everywhere; --help
    // after it stops the tool right after the value is checked.
    const std::string tool = std::string("./") + GetParam();
    const std::string out = std::string(GetParam()) + "_range.out";
    const std::string err = std::string(GetParam()) + "_range.err";
    EXPECT_EQ(run(tool + " --trace-max-events 3000000000 --help", out, err),
              0);
    EXPECT_EQ(run(tool + " --trace-max-events 0 --help", out, err), 1);
    EXPECT_EQ(run(tool + " --threads 0 --help", out, err), 1);
    EXPECT_EQ(run(tool + " --threads 1 --help", out, err), 0);
    EXPECT_EQ(run(tool + " --obs-window-s -1 --help", out, err), 1);
    std::remove(out.c_str());
    std::remove(err.c_str());
}

INSTANTIATE_TEST_SUITE_P(Tools, CliHelp,
                         ::testing::Values("diva_sweep", "diva_serve",
                                           "diva_fleet"));

} // namespace
