#include "func/executor.hh"

#include "common/logging.hh"
#include "func/exec_semantics.hh"

namespace slip
{

ExecResult
executeMicro(ArchState &state, const MicroOp &u, std::string *output)
{
    ExecResult res;
    const Addr pc = state.pc();
    res.nextPc = pc + kInstBytes;

    const Word a = state.readReg(u.rs1);
    const Word b = state.readReg(u.rs2);
    const Word imm = static_cast<Word>(u.imm);

    const auto setDest = [&](Word v) {
        res.destReg = u.rd;
        res.destValue = v;
        if (u.rd != kNoReg) {
            res.wroteReg = true;
            state.writeReg(u.rd, v);
        }
    };

    switch (static_cast<Opcode>(u.handler)) {
#define SLIP_GEN_ALU(NAME)                                             \
      case Opcode::NAME:                                               \
        setDest(aluResult(Opcode::NAME, a,                             \
                          aluTakesRs2(Opcode::NAME) ? b : imm));       \
        break;
#define SLIP_GEN_LOAD(NAME)                                            \
      case Opcode::NAME:                                               \
        res.isMem = true;                                              \
        res.memBytes = memBytesOf(Opcode::NAME);                       \
        res.memAddr = a + imm;                                         \
        res.loadedValue = loadExtend(                                  \
            Opcode::NAME,                                              \
            state.mem().read(res.memAddr, memBytesOf(Opcode::NAME)));  \
        setDest(res.loadedValue);                                      \
        break;
#define SLIP_GEN_STORE(NAME)                                           \
      case Opcode::NAME:                                               \
        res.isMem = true;                                              \
        res.memBytes = memBytesOf(Opcode::NAME);                       \
        res.memAddr = a + imm;                                         \
        res.storeValue = b;                                            \
        state.mem().write(res.memAddr, memBytesOf(Opcode::NAME), b);   \
        break;
#define SLIP_GEN_BRANCH(NAME)                                          \
      case Opcode::NAME:                                               \
        res.isControl = true;                                          \
        res.taken = branchTaken(Opcode::NAME, a, b);                   \
        res.target = u.target;                                         \
        if (res.taken)                                                 \
            res.nextPc = res.target;                                   \
        break;
      SLIP_SSIR_GENERATED
#undef SLIP_GEN_ALU
#undef SLIP_GEN_LOAD
#undef SLIP_GEN_STORE
#undef SLIP_GEN_BRANCH

      case Opcode::JAL:
        res.isControl = true;
        res.taken = true;
        res.target = u.target;
        setDest(pc + kInstBytes);
        res.nextPc = res.target;
        break;

      case Opcode::JALR:
        res.isControl = true;
        res.taken = true;
        res.target = a + imm;
        setDest(pc + kInstBytes);
        res.nextPc = res.target;
        break;

      case Opcode::PUTC:
        if (output)
            output->push_back(static_cast<char>(a & 0xff));
        break;

      case Opcode::PUTN:
        if (output) {
            *output += std::to_string(static_cast<SWord>(a));
            output->push_back('\n');
        }
        break;

      case Opcode::HALT:
        res.halted = true;
        res.nextPc = pc; // park
        break;

      case Opcode::NOP:
        break;

      case Opcode::NumOpcodes:
        SLIP_PANIC("executed NumOpcodes sentinel");
    }

    state.setPc(res.nextPc);
    return res;
}

} // namespace slip
