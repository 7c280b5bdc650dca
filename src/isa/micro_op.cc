#include "isa/micro_op.hh"

namespace slip
{

MicroOp
predecode(const StaticInst &inst, Addr pc)
{
    MicroOp u;
    u.handler = static_cast<uint8_t>(inst.op);
    u.rd = inst.destReg();
    u.rdSlot = u.rd == kNoReg ? static_cast<uint8_t>(kNumRegs) : u.rd;
    u.rs1 = inst.rs1;
    u.rs2 = inst.rs2;
    u.memBytes = opInfo(inst.op).memBytes;
    u.imm = inst.imm;

    switch (inst.op) {
      case Opcode::LUI:
        // The executor computes Word(imm) << 12; bake it in.
        u.imm = static_cast<int64_t>(static_cast<Word>(inst.imm) << 12);
        break;
      case Opcode::SLLI:
      case Opcode::SRLI:
      case Opcode::SRAI:
        // Shift amounts are masked to 6 bits at execution; pre-mask.
        u.imm = static_cast<int64_t>(static_cast<Word>(inst.imm) & 63);
        break;
      default:
        break;
    }
    // Branch and JAL offsets are in instruction words relative to pc.
    if (inst.isCondBranch() || inst.op == Opcode::JAL)
        u.target = pc + static_cast<int64_t>(inst.imm) * kInstBytes;
    return u;
}

} // namespace slip
