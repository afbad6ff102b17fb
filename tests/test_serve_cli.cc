/**
 * @file
 * End-to-end flag validation for the diva_serve and diva_sweep CLIs:
 * bad flag values must fail with exit code 1 (a failed run exits 2),
 * and a minimal good invocation must succeed. ctest runs with the build directory as
 * the working directory, so the tool binaries sit at ./diva_serve and
 * ./diva_sweep; the suite skips (rather than fails) when the tools
 * were not built.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

namespace
{

bool
exists(const std::string &path)
{
    return std::ifstream(path).good();
}

/** Run a command with stdout/stderr dropped; -1 if system() failed. */
int
runQuiet(const std::string &cmd)
{
    const int status = std::system((cmd + " >/dev/null 2>&1").c_str());
    if (status == -1)
        return -1;
#ifdef WEXITSTATUS
    return WEXITSTATUS(status);
#else
    return status;
#endif
}

class ServeCli : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        if (!exists("./diva_serve") || !exists("./diva_sweep"))
            GTEST_SKIP() << "tool binaries not built";
    }
};

TEST_F(ServeCli, GoodInvocationSucceeds)
{
    EXPECT_EQ(runQuiet("./diva_serve --policy rr --tenants 2 --steps 4 "
                       "--quiet"),
              0);
}

TEST_F(ServeCli, StepsDefaultAppliesToTenantSpecsInAnyFlagOrder)
{
    // --steps fills in every --tenant spec that did not set its own
    // step count, wherever it appears on the command line.
    const std::string csv = "serve_cli_steps.csv";
    for (const char *order :
         {"--tenant SqueezeNet --steps 4", "--steps 4 --tenant SqueezeNet"}) {
        ASSERT_EQ(runQuiet(std::string("./diva_serve ") + order +
                           " --quiet --no-summary --csv " + csv),
                  0);
        std::ifstream in(csv);
        std::string header, row;
        ASSERT_TRUE(std::getline(in, header));
        ASSERT_TRUE(std::getline(in, row));
        EXPECT_NE(row.find(",4,4,1,"), std::string::npos)
            << order << ": steps,steps_done,completed -> " << row;
    }
    std::remove(csv.c_str());
}

TEST_F(ServeCli, BadServeFlagsFail)
{
    // Argument errors exit exactly 1 (run errors exit 2).
    // Unknown policy name.
    EXPECT_EQ(runQuiet("./diva_serve --policy bogus"), 1);
    // Zero/negative/oversized tenant counts (2e9 tenants used to abort
    // on std::bad_alloc).
    EXPECT_EQ(runQuiet("./diva_serve --tenants 0"), 1);
    EXPECT_EQ(runQuiet("./diva_serve --tenants -3"), 1);
    EXPECT_EQ(runQuiet("./diva_serve --tenants 2000000000"), 1);
    // Negative/zero budgets and quanta.
    EXPECT_EQ(runQuiet("./diva_serve --wall-s -1"), 1);
    EXPECT_EQ(runQuiet("./diva_serve --wall-s 0"), 1);
    EXPECT_EQ(runQuiet("./diva_serve --quantum 0"), 1);
    EXPECT_EQ(runQuiet("./diva_serve --steps -5"), 1);
    // Unbounded steps need a wall budget.
    EXPECT_EQ(runQuiet("./diva_serve --steps 0"), 1);
    // Malformed tenant specs.
    EXPECT_EQ(runQuiet("./diva_serve --tenant ResNet-50:0"), 1);
    EXPECT_EQ(runQuiet("./diva_serve --tenant ResNet-50:8:-2"), 1);
    // Non-finite QoS rates and negative arrivals/departures reject.
    EXPECT_EQ(runQuiet("./diva_serve --tenant ResNet-50:8:inf"), 1);
    EXPECT_EQ(runQuiet("./diva_serve --tenant ResNet-50:8:nan"), 1);
    EXPECT_EQ(runQuiet("./diva_serve --tenant ResNet-50:8:1:-3"), 1);
    // Departure before arrival: parses (both >= 0) but the serve
    // validation rejects it with a non-zero exit.
    EXPECT_NE(
        runQuiet("./diva_serve --tenant SqueezeNet:8:0:5:0:4:2 --quiet"),
        0);
    EXPECT_EQ(runQuiet("./diva_serve --tenant SqueezeNet:8:0:0:0:4:-1"),
              1);
    // Unknown model in a tenant spec is a (runtime) serve error.
    EXPECT_NE(runQuiet("./diva_serve --tenant NoSuchNet --quiet"), 0);
    // Unknown flags and missing values.
    EXPECT_EQ(runQuiet("./diva_serve --no-such-flag"), 1);
    EXPECT_EQ(runQuiet("./diva_serve --policy"), 1);
    // WS has no PPU datapath: an explicit --ppu on is an error, as
    // df=WS,ppu=on is for diva_fleet; plain WS runs with the PPU off.
    EXPECT_EQ(runQuiet("./diva_serve --dataflow WS --ppu on"), 1);
    EXPECT_EQ(runQuiet("./diva_serve --dataflow WS --tenants 1 --steps 2 "
                       "--quiet"),
              0);
}

TEST_F(ServeCli, DepartureEndsSessionEarly)
{
    // A tenant departing at t=0.001 with a huge step budget must stop
    // at its departure: the run succeeds and the departed column (20)
    // flips to 1 with the budget unmet.
    const std::string csv = "serve_cli_depart.csv";
    ASSERT_EQ(runQuiet("./diva_serve --tenant SqueezeNet:8:0:0:0:"
                       "100000:0.001 --quiet --no-summary --csv " +
                       csv),
              0);
    std::ifstream in(csv);
    std::string header, row;
    ASSERT_TRUE(std::getline(in, header));
    ASSERT_TRUE(std::getline(in, row));
    EXPECT_NE(header.find(",departed,"), std::string::npos);
    EXPECT_NE(row.find(",0,1,1,"), std::string::npos)
        << "completed,departed,admitted -> " << row;
    std::remove(csv.c_str());
}

TEST_F(ServeCli, TraceFlagsValidate)
{
    // Well-formed generated replay succeeds, with and without
    // admission.
    EXPECT_EQ(runQuiet("./diva_serve --arrivals poisson:rate=4,seed=3,"
                       "hold=1,qos=2 --steps 0 --policy edf --quiet"),
              0);
    EXPECT_EQ(runQuiet("./diva_serve --arrivals poisson:rate=4,seed=3,"
                       "hold=1,qos=2 --steps 0 --admission --quiet"),
              0);
    // Malformed generator specs and flag combinations fail fast.
    EXPECT_NE(runQuiet("./diva_serve --arrivals zipf:rate=2"), 0);
    EXPECT_NE(runQuiet("./diva_serve --arrivals poisson:rate=0"), 0);
    EXPECT_NE(runQuiet("./diva_serve --arrivals poisson:bogus=1"), 0);
    EXPECT_NE(runQuiet("./diva_serve --arrivals poisson --trace x.csv"),
              0);
    EXPECT_NE(runQuiet("./diva_serve --arrivals poisson "
                       "--tenant SqueezeNet"),
              0);
    EXPECT_NE(runQuiet("./diva_serve --trace /no/such/file.csv"), 0);
    EXPECT_NE(runQuiet("./diva_serve --admission-cap 0"), 0);
    EXPECT_NE(runQuiet("./diva_serve --save-trace t.csv"), 0)
        << "--save-trace needs a trace";

    // A recorded trace with departure-before-arrival fails at replay.
    const std::string path = "serve_cli_bad_trace.csv";
    {
        std::ofstream out(path);
        out << "model,arrival_s,depart_s,steps\n"
            << "SqueezeNet,5,2,4\n";
    }
    EXPECT_NE(runQuiet("./diva_serve --trace " + path + " --quiet"), 0);
    std::remove(path.c_str());
}

TEST_F(ServeCli, SweepTraceModeValidates)
{
    EXPECT_NE(runQuiet("./diva_sweep --mode trace"), 0)
        << "trace mode needs --arrivals or --trace";
    EXPECT_NE(runQuiet("./diva_sweep --mode trace --arrivals zipf"), 0);
    EXPECT_NE(runQuiet("./diva_sweep --mode trace --arrivals poisson "
                       "--loads 0"),
              0);
    EXPECT_NE(runQuiet("./diva_sweep --mode trace --trace x.csv "
                       "--loads 2"),
              0)
        << "--loads only scales the generator";
    EXPECT_EQ(runQuiet("./diva_sweep --quiet --mode trace --arrivals "
                       "poisson:rate=4,seed=3,hold=1,qos=2,steps=0 "
                       "--dataflows DiVa --ppu on --policies fifo,edf"),
              0);
}

TEST_F(ServeCli, RepeatedSweepListFlagsReplace)
{
    // Every list flag replaces its list: a repeated --chips keeps only
    // the last one's pod shapes instead of appending to the first.
    const std::string csv = "sweep_cli_chips.csv";
    ASSERT_EQ(runQuiet("./diva_sweep --quiet --no-speedup --models "
                       "SqueezeNet --batches 8 --dataflows DiVa --ppu on "
                       "--algos dpsgd --chips 2 --chips 4 --csv " +
                       csv),
              0);
    std::ifstream in(csv);
    int pods_2 = 0, pods_4 = 0;
    for (std::string row; std::getline(in, row);) {
        pods_2 += row.find(",pod,2,") != std::string::npos;
        pods_4 += row.find(",pod,4,") != std::string::npos;
    }
    EXPECT_EQ(pods_2, 0);
    EXPECT_EQ(pods_4, 1);
    std::remove(csv.c_str());
}

TEST_F(ServeCli, BadSweepFlagsFail)
{
    // Argument errors exit exactly 1 (run errors exit 2).
    EXPECT_EQ(runQuiet("./diva_sweep --mode bogus"), 1);
    EXPECT_EQ(runQuiet("./diva_sweep --mode duration"), 1)
        << "duration mode requires --wall-s";
    EXPECT_EQ(runQuiet("./diva_sweep --mode tenant --policies bogus"), 1);
    EXPECT_EQ(runQuiet("./diva_sweep --wall-s -2"), 1);
    EXPECT_EQ(runQuiet("./diva_sweep --quantum 0"), 1);
    EXPECT_EQ(runQuiet("./diva_sweep --steps 0"), 1);
    EXPECT_EQ(runQuiet("./diva_sweep --arrive-every -1"), 1);
    EXPECT_EQ(runQuiet("./diva_sweep --models NoSuchNet"), 1);
    // Values checked at parse time, as in the other two tools: no
    // zero-thread runs, no negative axis entries reaching the engines,
    // and the pod axes take the --pod ranges of diva_fleet.
    EXPECT_EQ(runQuiet("./diva_sweep --threads 0"), 1);
    EXPECT_EQ(runQuiet("./diva_sweep --threads -3"), 1);
    EXPECT_EQ(runQuiet("./diva_sweep --batches -4"), 1);
    EXPECT_EQ(runQuiet("./diva_sweep --batches 0"), 1)
        << "0 is not a batch; 'auto' is spelled out";
    EXPECT_EQ(runQuiet("./diva_sweep --scales -5"), 1);
    EXPECT_EQ(runQuiet("./diva_sweep --microbatches -2"), 1);
    EXPECT_EQ(runQuiet("./diva_sweep --chips 65537"), 1);
    EXPECT_EQ(runQuiet("./diva_sweep --link-lat 2000000000"), 1);
    EXPECT_EQ(runQuiet("./diva_sweep --models ''"), 1)
        << "list flags need at least one item";
}

} // namespace
