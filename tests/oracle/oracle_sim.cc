#include "oracle/ssir_oracle.hh"

#include "isa/regnames.hh"

namespace slip
{

OracleSim::OracleSim(const Program &program)
    : program(program), port(mem), state_(port)
{
    program.loadInto(mem);
    state_.setPc(program.entry());
    state_.writeReg(reg::sp, layout::kStackTop);
}

FuncRunResult
OracleSim::run(uint64_t maxInsts)
{
    if (maxInsts == 0)
        maxInsts = 1'000'000'000ull;
    while (!halted_ && retired < maxInsts) {
        const ExecResult res =
            execute(state_, program.fetch(state_.pc()), &output_);
        ++retired;
        if (res.halted)
            halted_ = true;
    }
    FuncRunResult result;
    result.output = output_;
    result.instCount = retired;
    result.halted = halted_;
    result.finalPc = state_.pc();
    return result;
}

} // namespace slip
