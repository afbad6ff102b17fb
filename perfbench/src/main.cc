/**
 * @file
 * Benchmark binary for the DiVa simulator. One process runs one
 * workload for a fixed number of host seconds and prints, as its last
 * line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
 * The metrics are the end-to-end ones, or with --trace 1 the per-layer
 * ones; see perfbench/README.md for what each means on each workload.
 *
 *   diva_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  --work-dir DIR [--smoke]
 */

#include <sched.h>

#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>

#include "calib.h"
#include "paper.h"
#include "report.h"
#include "workloads.h"

using namespace perfbench;

namespace
{

/** CPUs this process may run on (what `nproc` prints). */
int
usableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0)
        return CPU_COUNT(&set);
    return 1;
}

bool
parseArgs(int argc, char **argv, Options &opt, std::string &error)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            opt.smoke = true;
            continue;
        }
        if (i + 1 >= argc) {
            error = "missing value for " + arg;
            return false;
        }
        const std::string v = argv[++i];
        try {
            if (arg == "--workload")
                opt.workload = v;
            else if (arg == "--seed")
                opt.seed = std::stoull(v);
            else if (arg == "--seconds")
                opt.seconds = std::stod(v);
            else if (arg == "--trace")
                opt.trace = std::stoi(v) != 0;
            else if (arg == "--work-dir")
                opt.workDir = v;
            else {
                error = "unknown flag " + arg;
                return false;
            }
        } catch (const std::exception &) {
            error = "bad value for " + arg + ": " + v;
            return false;
        }
    }
    if (opt.workload.empty() || opt.workDir.empty()) {
        error = "--workload and --work-dir are required";
        return false;
    }
    if (!(opt.seconds > 0.0)) {
        error = "--seconds must be positive";
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::string error;
    if (!parseArgs(argc, argv, opt, error)) {
        std::cerr << "diva_perfbench: " << error << "\n";
        return 2;
    }
    const std::map<std::string, void (*)(Run &)> workloads = {
        {"sweep-design", sweepDesign},
        {"fleet-balanced", fleetBalanced},
        {"fleet-skewed", fleetSkewed},
        {"tenant-mix", tenantMix},
    };
    const auto it = workloads.find(opt.workload);
    if (it == workloads.end()) {
        std::cerr << "diva_perfbench: unknown workload " << opt.workload
                  << "\n";
        return 2;
    }
    opt.threads = usableCpus();

    Run run;
    run.opt = opt;
    try {
        std::filesystem::create_directories(opt.workDir);
        const HostCalib calib = calibrateHost(opt.threads, opt.smoke ? 1 : 3);
        run.set("host.calib_s", calib.singleSec);
        run.set("host.effective_cores", calib.effectiveCores);
        std::cout << "host: kernel " << calib.singleSec << " s on 1 thread, "
                  << calib.effectiveCores << " effective cores of "
                  << opt.threads << "\n";

        it->second(run);
        if (!run.paperDone)
            pricePaperFidelity(run);
        if (opt.trace)
            measureCommonLayer(run);
        std::filesystem::remove_all(opt.workDir);
    } catch (const std::exception &e) {
        std::cerr << "diva_perfbench: " << e.what() << "\n";
        return 1;
    }
    printResult(run, opt.trace ? perLayerMetrics() : endToEndMetrics());
    return 0;
}
