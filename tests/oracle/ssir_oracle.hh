/**
 * @file
 * The reference SSIR executor the tests and micro benches check the
 * simulator against. execute() is a hand-written switch over the
 * decoded StaticInst, written independently of the op-list-generated
 * executeMicro() and bulk engines in src/func/, in the role the
 * paper's §4 gives the separately written functional simulator that
 * validates the timing simulator. OracleSim runs a whole program
 * through it one instruction at a time.
 */

#ifndef SLIPSTREAM_TESTS_ORACLE_SSIR_ORACLE_HH
#define SLIPSTREAM_TESTS_ORACLE_SSIR_ORACLE_HH

#include <string>

#include "assembler/program.hh"
#include "func/arch_state.hh"
#include "func/executor.hh"
#include "func/func_sim.hh"
#include "isa/isa.hh"
#include "mem/memory.hh"

namespace slip
{

/**
 * Execute one instruction against `state`, updating registers, PC and
 * memory. PUTC/PUTN output is appended to `*output` when non-null.
 *
 * @param state   the context to execute in (its pc() must point at inst)
 * @param inst    the decoded instruction
 * @param output  program output sink, may be nullptr
 * @return        full record of what the instruction did
 */
ExecResult execute(ArchState &state, const StaticInst &inst,
                   std::string *output);

/**
 * A program run through execute(): Program::fetch, execute, count the
 * retire, until HALT or `maxInsts`. Loads the program like FuncSim
 * (data image, sp at the stack top, pc at the entry), so the two can
 * be compared run for run.
 */
class OracleSim
{
  public:
    explicit OracleSim(const Program &program);

    /** Run until HALT or `maxInsts` retires (0: the FuncSim default). */
    FuncRunResult run(uint64_t maxInsts = 0);

    ArchState &state() { return state_; }
    Memory &memory() { return mem; }

  private:
    const Program &program;
    Memory mem;
    DirectMemPort port;
    ArchState state_;
    std::string output_;
    bool halted_ = false;
    uint64_t retired = 0;
};

} // namespace slip

#endif // SLIPSTREAM_TESTS_ORACLE_SSIR_ORACLE_HH
