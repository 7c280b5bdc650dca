/**
 * @file
 * Predecoded block execution engine for the functional core.
 *
 * Instead of stepping executeMicro() once per instruction, this engine
 * runs straight over a Program's predecoded MicroOp array, keeping the
 * register file in a local array, with either
 *
 *  - computed-goto threaded dispatch (`&&label` table; GCC/Clang,
 *    selected at configure time), or
 *  - a portable dense-switch fallback,
 *
 * and keeps a one-entry data-page pointer cache so the common-case
 * load/store is a bounds check plus memcpy instead of a hash lookup
 * per byte. Both engines expand their handlers from the op list and
 * semantics helpers executeMicro() uses (func/exec_semantics.hh), and
 * the tests check both, opcode by opcode and on whole programs,
 * against the independent reference executor in tests/oracle/.
 *
 * The engine runs until HALT, the instruction budget, or control
 * leaving the text image (a wild JALR / fall-through); the caller
 * finishes the wild-pc case through its per-instruction step so the
 * park-on-synthetic-HALT semantics stay in one place.
 *
 * FuncSim runs the threaded engine where it is compiled in, else the
 * switch engine; FuncSim::setDispatch pins one (tests, micro benches).
 */

#ifndef SLIPSTREAM_FUNC_EXEC_ENGINE_HH
#define SLIPSTREAM_FUNC_EXEC_ENGINE_HH

#include <cstdint>
#include <functional>
#include <string>

#include "common/types.hh"

namespace slip
{

class ArchState;
class Memory;
class Program;

/** How the functional core dispatches instructions. */
enum class DispatchKind : uint8_t
{
    Threaded, // computed-goto over predecoded micro-ops
    Switch,   // dense switch over predecoded micro-ops (portable)
};

/** Lower-case name for logs and bench labels. */
const char *dispatchName(DispatchKind kind);

/** True when the computed-goto engine was compiled in. */
bool threadedDispatchCompiled();

/** The threaded engine where it is compiled in, else the switch one. */
DispatchKind defaultDispatch();

/**
 * Observer for retired stores, the one per-instruction event the fuzz
 * oracle's reference leg needs. Invoked only from store handlers, so
 * the non-store hot path stays observer-free.
 */
using StoreObserver =
    std::function<void(Addr pc, Addr addr, unsigned bytes, Word value)>;

/** Why runPredecoded returned. */
struct EngineExit
{
    uint64_t retired = 0; // instructions retired by this call
    bool halted = false;  // HALT executed; state.pc() parks on it
    bool leftText = false; // control left text; state.pc() is wild
};

/**
 * Run `program` from state.pc() until HALT, `maxInsts` retires, or
 * control leaves the text image. Updates registers, pc and `mem` in
 * place; PUTC/PUTN append to `*output` when non-null. Threaded
 * silently degrades to Switch when not compiled in.
 */
EngineExit runPredecoded(ArchState &state, Memory &mem,
                         const Program &program, std::string *output,
                         uint64_t maxInsts, DispatchKind kind,
                         const StoreObserver *storeObserver = nullptr);

} // namespace slip

#endif // SLIPSTREAM_FUNC_EXEC_ENGINE_HH
