#include "uarch/ss_processor.hh"

#include "common/logging.hh"
#include "obs/trace_session.hh"

namespace slip
{

namespace
{
/** Cycles with no retirement before the model declares deadlock. */
constexpr Cycle kWatchdogInterval = 1'000'000;
} // namespace

SSProcessor::SSProcessor(const Program &program,
                         const CoreParams &coreParams,
                         const TracePredParams &predParams,
                         const TracePolicy &tracePolicy)
    : predictor_(std::make_unique<TracePredictor>(predParams)),
      source_(std::make_unique<TraceFetchSource>(program, *predictor_,
                                                 coreParams.fetchWidth,
                                                 tracePolicy)),
      core_(std::make_unique<OoOCore>(coreParams, *source_))
{
    checkTracePolicy(tracePolicy);
    core_->onRetire = [this](const DynInst &d, Cycle) {
        source_->notifyRetire(d);
        return true;
    };
}

SSRunResult
SSProcessor::run(Cycle maxCycles, const CancelToken *cancel)
{
    Cycle now = 0;
    Cycle lastProgress = 0;
    bool cancelled = false;

    while (!core_->halted() && (maxCycles == 0 || now < maxCycles)) {
        if (cancel && cancel->cancelled()) {
            cancelled = true;
            break;
        }
        SLIP_TRACE_SET_CYCLE(now);
        core_->tick(now);
        if (core_->lastRetireCycle() > lastProgress)
            lastProgress = core_->lastRetireCycle();
        if (now - lastProgress > kWatchdogInterval) {
            SLIP_PANIC("SSProcessor deadlock: no retirement since cycle ",
                       lastProgress, " (now ", now, ", retired ",
                       core_->retiredCount(), ")");
        }
        ++now;
    }

    SSRunResult result;
    result.cycles = now;
    result.retired = core_->retiredCount();
    result.condBranches = core_->retiredCondBranches();
    result.branchMispredicts = core_->branchMispredicts();
    result.output = source_->output();
    result.halted = core_->halted();
    result.cancelled = cancelled;
    return result;
}

} // namespace slip
