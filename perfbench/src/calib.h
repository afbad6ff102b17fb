/**
 * @file
 * Host calibration: a fixed kernel that shares no code with the
 * simulator (a sort of seeded integers, then integer- and string-keyed
 * hash maps over a few MB). It is timed on one thread and on every
 * thread the run may use, and once more before every timed call and
 * set-up. A starved or contended sandbox then shows up next to the run,
 * and each call's time can be normalised to a reference host speed
 * instead of carrying the host's drift into the result.
 */

#ifndef PERFBENCH_CALIB_H
#define PERFBENCH_CALIB_H

namespace perfbench
{

/** Kernel seconds on the reference host. */
constexpr double kRefKernelSec = 0.045;

/**
 * Run the kernel once and return its time over kRefKernelSec. Called
 * right before a timed call, a rate measured in that call times the
 * returned scale is the rate on the reference host: host drift between
 * repetitions and runs cancels out of it.
 */
double hostScale();

struct HostCalib
{
    /** Median seconds of the kernel on one thread. */
    double singleSec = 0.0;
    /**
     * threads * singleSec / (median seconds of `threads` concurrent
     * copies): the cores the host delivers.
     */
    double effectiveCores = 0.0;
};

/** Time the kernel `reps` times each way, interleaved. */
HostCalib calibrateHost(int threads, int reps);

} // namespace perfbench

#endif // PERFBENCH_CALIB_H
