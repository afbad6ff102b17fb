#include "arrivals/replay.h"

namespace diva
{

ServeResult
replayTrace(const ReplaySpec &spec, SweepRunner &runner)
{
    ServeSpec serve = spec;
    serve.workload = spec.trace.workload();
    serve.opts.openLoop = true;

    const std::string trace_err =
        spec.trace.validationError(serve.opts.wallLimitSec > 0.0);
    if (!trace_err.empty()) {
        ServeResult out = serveHeader(serve);
        out.error = trace_err;
        return out;
    }
    return simulateServe(serve, runner);
}

ServeResult
replayTrace(const ReplaySpec &spec)
{
    SweepRunner runner;
    return replayTrace(spec, runner);
}

} // namespace diva
