/**
 * @file
 * The SSIR instruction set.
 *
 * SSIR is the MIPS-flavored RISC ISA this repository substitutes for the
 * proprietary SimpleScalar ISA used in the slipstream paper: 64
 * general-purpose 64-bit registers (r0 hardwired to zero), fixed 32-bit
 * instruction words, loads/stores, conditional branches, and direct and
 * indirect jumps. The slipstream machinery only cares about operation
 * *classes* (what writes what, what branches where), so any RISC ISA with
 * this shape exercises the same paths.
 *
 * Encoding (32 bits, opcode always in [31:24]):
 *   R-type:  op | rd[23:18]  | rs1[17:12] | rs2[11:6] | 0[5:0]
 *   I-type:  op | rd[23:18]  | rs1[17:12] | imm12[11:0] (signed)
 *   S-type:  op | rs2[23:18] | rs1[17:12] | imm12[11:0] (store)
 *   B-type:  op | rs1[23:18] | rs2[17:12] | imm12[11:0] (branch offset,
 *            in instruction words, relative to the branch PC)
 *   J-type:  op | rd[23:18]  | imm18[17:0] (JAL offset in instruction
 *            words; LUI places sext(imm18) << 12 in rd)
 */

#ifndef SLIPSTREAM_ISA_ISA_HH
#define SLIPSTREAM_ISA_ISA_HH

#include <cstdint>
#include <string>

#include "common/logging.hh"
#include "common/types.hh"

namespace slip
{

/**
 * The SSIR op list: one row per opcode, in binary opcode order.
 *
 *   X(NAME, mnemonic, Format, OpClass, memBytes, loadSigned)
 *
 * memBytes is 1/2/4/8 for loads and stores, else 0; loadSigned
 * sign-extends the loaded value. The Opcode enum, opTable, the
 * assembler's mnemonic lookup and the executors' generated cases all
 * expand this list, so an opcode is defined here and nowhere else.
 * Format decides the operands: R-type ALU ops take rs2 as their
 * second operand, I-type ALU ops and LUI the immediate.
 */
#define SLIP_SSIR_OPCODES(X)                                           \
    /* R-type ALU */                                                   \
    X(ADD,   "add",   R,   IntAlu,  0, false)                          \
    X(SUB,   "sub",   R,   IntAlu,  0, false)                          \
    X(MUL,   "mul",   R,   IntMult, 0, false)                          \
    X(MULH,  "mulh",  R,   IntMult, 0, false)                          \
    X(DIV,   "div",   R,   IntDiv,  0, false)                          \
    X(DIVU,  "divu",  R,   IntDiv,  0, false)                          \
    X(REM,   "rem",   R,   IntDiv,  0, false)                          \
    X(REMU,  "remu",  R,   IntDiv,  0, false)                          \
    X(AND,   "and",   R,   IntAlu,  0, false)                          \
    X(OR,    "or",    R,   IntAlu,  0, false)                          \
    X(XOR,   "xor",   R,   IntAlu,  0, false)                          \
    X(SLL,   "sll",   R,   IntAlu,  0, false)                          \
    X(SRL,   "srl",   R,   IntAlu,  0, false)                          \
    X(SRA,   "sra",   R,   IntAlu,  0, false)                          \
    X(SLT,   "slt",   R,   IntAlu,  0, false)                          \
    X(SLTU,  "sltu",  R,   IntAlu,  0, false)                          \
    /* I-type ALU */                                                   \
    X(ADDI,  "addi",  I,   IntAlu,  0, false)                          \
    X(ANDI,  "andi",  I,   IntAlu,  0, false)                          \
    X(ORI,   "ori",   I,   IntAlu,  0, false)                          \
    X(XORI,  "xori",  I,   IntAlu,  0, false)                          \
    X(SLLI,  "slli",  I,   IntAlu,  0, false)                          \
    X(SRLI,  "srli",  I,   IntAlu,  0, false)                          \
    X(SRAI,  "srai",  I,   IntAlu,  0, false)                          \
    X(SLTI,  "slti",  I,   IntAlu,  0, false)                          \
    X(SLTIU, "sltiu", I,   IntAlu,  0, false)                          \
    X(LUI,   "lui",   J,   IntAlu,  0, false)                          \
    /* Loads (I-type) */                                               \
    X(LB,    "lb",    I,   Load,    1, true)                           \
    X(LBU,   "lbu",   I,   Load,    1, false)                          \
    X(LH,    "lh",    I,   Load,    2, true)                           \
    X(LHU,   "lhu",   I,   Load,    2, false)                          \
    X(LW,    "lw",    I,   Load,    4, true)                           \
    X(LWU,   "lwu",   I,   Load,    4, false)                          \
    X(LD,    "ld",    I,   Load,    8, false)                          \
    /* Stores (S-type) */                                              \
    X(SB,    "sb",    S,   Store,   1, false)                          \
    X(SH,    "sh",    S,   Store,   2, false)                          \
    X(SW,    "sw",    S,   Store,   4, false)                          \
    X(SD,    "sd",    S,   Store,   8, false)                          \
    /* Branches (B-type) */                                            \
    X(BEQ,   "beq",   B,   Branch,  0, false)                          \
    X(BNE,   "bne",   B,   Branch,  0, false)                          \
    X(BLT,   "blt",   B,   Branch,  0, false)                          \
    X(BGE,   "bge",   B,   Branch,  0, false)                          \
    X(BLTU,  "bltu",  B,   Branch,  0, false)                          \
    X(BGEU,  "bgeu",  B,   Branch,  0, false)                          \
    /* Jumps */                                                        \
    /* J-type: rd = pc + 4, pc += imm * 4 */                           \
    X(JAL,   "jal",   J,   Jump,    0, false)                          \
    /* I-type: rd = pc + 4, pc = rs1 + imm */                          \
    X(JALR,  "jalr",  I,   Jump,    0, false)                          \
    /* System (I-type operand usage) */                                \
    /* emit low byte of rs1 to the program output stream */            \
    X(PUTC,  "putc",  Sys, Syscall, 0, false)                          \
    /* emit signed decimal of rs1 plus newline */                      \
    X(PUTN,  "putn",  Sys, Syscall, 0, false)                          \
    /* terminate the program */                                        \
    X(HALT,  "halt",  Sys, Syscall, 0, false)                          \
    X(NOP,   "nop",   Sys, IntAlu,  0, false)

/** Every SSIR operation. Order is the binary opcode value. */
enum class Opcode : uint8_t
{
#define SLIP_OPCODE_ENUM(NAME, ...) NAME,
    SLIP_SSIR_OPCODES(SLIP_OPCODE_ENUM)
#undef SLIP_OPCODE_ENUM
    NumOpcodes
};

/** Instruction word layout family. */
enum class Format : uint8_t
{
    R, I, S, B, J, Sys
};

/** Functional-unit class; determines execution latency (Table 2). */
enum class OpClass : uint8_t
{
    IntAlu,   // 1 cycle
    IntMult,  // MIPS R10000-style multiply latency
    IntDiv,   // MIPS R10000-style divide latency
    Load,     // address generation + cache access
    Store,    // address generation
    Branch,   // 1 cycle (resolves the direction)
    Jump,     // 1 cycle
    Syscall   // output / halt
};

/** Static (decode-time) properties of an opcode. */
struct OpInfo
{
    const char *mnemonic;
    Format format;
    OpClass opClass;
    uint8_t memBytes;     // 1/2/4/8 for loads & stores, else 0
    bool loadSigned;      // sign-extend the loaded value
};

/** Static properties of every opcode, indexed by its value. */
inline constexpr OpInfo opTable[] = {
#define SLIP_OPCODE_INFO(NAME, MNEMONIC, FORMAT, CLASS, BYTES, SIGNED) \
    {MNEMONIC, Format::FORMAT, OpClass::CLASS, BYTES, SIGNED},
    SLIP_SSIR_OPCODES(SLIP_OPCODE_INFO)
#undef SLIP_OPCODE_INFO
};

/** Static properties table lookup. */
inline const OpInfo &
opInfo(Opcode op)
{
    const auto idx = static_cast<size_t>(op);
    SLIP_ASSERT(idx < static_cast<size_t>(Opcode::NumOpcodes),
                "bad opcode ", idx);
    return opTable[idx];
}

/** Mnemonic for an opcode (lower case). */
inline const char *opcodeName(Opcode op) { return opInfo(op).mnemonic; }

/**
 * A decoded SSIR instruction. This is the common currency between the
 * assembler, the functional executor, the timing cores, and the
 * slipstream components.
 */
struct StaticInst
{
    Opcode op = Opcode::NOP;
    RegIndex rd = 0;
    RegIndex rs1 = 0;
    RegIndex rs2 = 0;
    int64_t imm = 0;

    Format format() const { return opInfo(op).format; }
    OpClass opClass() const { return opInfo(op).opClass; }

    bool isLoad() const { return opClass() == OpClass::Load; }
    bool isStore() const { return opClass() == OpClass::Store; }
    bool isCondBranch() const { return opClass() == OpClass::Branch; }
    bool isJump() const { return opClass() == OpClass::Jump; }
    bool isIndirectJump() const { return op == Opcode::JALR; }
    bool isHalt() const { return op == Opcode::HALT; }
    bool isOutput() const
    {
        return op == Opcode::PUTC || op == Opcode::PUTN;
    }
    bool isSyscall() const { return opClass() == OpClass::Syscall; }

    /** Any instruction that can redirect the PC. */
    bool
    isControl() const
    {
        return isCondBranch() || isJump();
    }

    /** Number of bytes touched by a load or store. */
    unsigned memBytes() const { return opInfo(op).memBytes; }

    /** Destination register, or kNoReg if none (or the zero reg). */
    RegIndex
    destReg() const
    {
        switch (format()) {
          case Format::R:
          case Format::I:
          case Format::J:
            return rd == kZeroReg ? kNoReg : rd;
          default:
            return kNoReg;
        }
    }

    /**
     * Source registers. Fills srcs[0..1]; absent sources are kNoReg.
     * The zero register is reported (reads of r0 are real reads that
     * always yield 0) so dependence tracking can ignore it explicitly.
     */
    void
    srcRegs(RegIndex srcs[2]) const
    {
        srcs[0] = kNoReg;
        srcs[1] = kNoReg;
        switch (format()) {
          case Format::R:
            srcs[0] = rs1;
            srcs[1] = rs2;
            break;
          case Format::I:
            srcs[0] = rs1;
            break;
          case Format::S:
          case Format::B:
            srcs[0] = rs1;
            srcs[1] = rs2;
            break;
          case Format::J:
            break;
          case Format::Sys:
            if (op == Opcode::PUTC || op == Opcode::PUTN)
                srcs[0] = rs1;
            break;
        }
    }

    bool operator==(const StaticInst &other) const = default;
};

} // namespace slip

#endif // SLIPSTREAM_ISA_ISA_HH
