#include "func/exec_engine.hh"

#include <bit>
#include <cstring>
#include <string>
#include <vector>

#include "assembler/program.hh"
#include "common/logging.hh"
#include "func/arch_state.hh"
#include "func/exec_semantics.hh"
#include "isa/isa.hh"
#include "isa/micro_op.hh"
#include "mem/memory.hh"

// The computed-goto engine needs the GNU labels-as-values extension;
// gate it on compiler support and the configure-time opt-out.
#if !defined(SLIPSTREAM_NO_THREADED_DISPATCH) && \
    (defined(__GNUC__) || defined(__clang__))
#define SLIP_HAVE_THREADED_DISPATCH 1
#else
#define SLIP_HAVE_THREADED_DISPATCH 0
#endif

namespace slip
{

namespace
{

#if SLIP_HAVE_THREADED_DISPATCH
EngineExit
runThreadedImpl(ArchState &state, Memory &mem, const Program &program,
                std::string *output, uint64_t maxInsts,
                const StoreObserver *storeObserver)
#define SLIP_ENGINE_THREADED 1
#include "func/exec_engine_body.inc"
#undef SLIP_ENGINE_THREADED
#endif // SLIP_HAVE_THREADED_DISPATCH

EngineExit
runSwitchImpl(ArchState &state, Memory &mem, const Program &program,
              std::string *output, uint64_t maxInsts,
              const StoreObserver *storeObserver)
#define SLIP_ENGINE_THREADED 0
#include "func/exec_engine_body.inc"
#undef SLIP_ENGINE_THREADED

} // namespace

const char *
dispatchName(DispatchKind kind)
{
    switch (kind) {
      case DispatchKind::Threaded: return "threaded";
      case DispatchKind::Switch: return "switch";
    }
    return "?";
}

bool
threadedDispatchCompiled()
{
    return SLIP_HAVE_THREADED_DISPATCH != 0;
}

DispatchKind
defaultDispatch()
{
    return threadedDispatchCompiled() ? DispatchKind::Threaded
                                      : DispatchKind::Switch;
}

EngineExit
runPredecoded(ArchState &state, Memory &mem, const Program &program,
              std::string *output, uint64_t maxInsts, DispatchKind kind,
              const StoreObserver *storeObserver)
{
#if SLIP_HAVE_THREADED_DISPATCH
    if (kind == DispatchKind::Threaded)
        return runThreadedImpl(state, mem, program, output, maxInsts,
                               storeObserver);
#endif
    return runSwitchImpl(state, mem, program, output, maxInsts,
                         storeObserver);
}

} // namespace slip
