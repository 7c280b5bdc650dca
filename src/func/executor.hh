/**
 * @file
 * The SSIR instruction executor. executeMicro() runs one predecoded
 * instruction and reports everything it did; the superscalar timing
 * cores, both slipstream streams and the detection backends step
 * through it, and the functional simulator's bulk engines
 * (func/exec_engine.hh) expand the same op list and semantics helpers
 * (func/exec_semantics.hh), so architectural behaviour cannot diverge
 * between models. The tests check it against an independently written
 * reference executor (tests/oracle/).
 */

#ifndef SLIPSTREAM_FUNC_EXECUTOR_HH
#define SLIPSTREAM_FUNC_EXECUTOR_HH

#include <string>

#include "func/arch_state.hh"
#include "isa/isa.hh"
#include "isa/micro_op.hh"

namespace slip
{

/** Everything observable about one executed instruction. */
struct ExecResult
{
    Addr nextPc = 0;

    bool wroteReg = false;   // destination register was written
    RegIndex destReg = kNoReg;
    Word destValue = 0;

    bool isMem = false;      // load or store
    Addr memAddr = 0;
    unsigned memBytes = 0;
    Word storeValue = 0;     // value written (stores)
    Word loadedValue = 0;    // value read (loads; == destValue)

    bool isControl = false;
    bool taken = false;      // conditional branch direction / jumps: true
    Addr target = 0;         // control-flow destination if taken

    bool halted = false;
};

/**
 * Execute one predecoded micro-op against `state`, updating registers,
 * PC and memory. PUTC/PUTN output is appended to `*output` when
 * non-null. `state.pc()` must equal the address the micro-op was
 * predecoded at (its branch target is absolute).
 *
 * @return full record of what the instruction did
 */
ExecResult executeMicro(ArchState &state, const MicroOp &u,
                        std::string *output);

} // namespace slip

#endif // SLIPSTREAM_FUNC_EXECUTOR_HH
