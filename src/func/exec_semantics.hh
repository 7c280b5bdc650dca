/**
 * @file
 * SSIR instruction semantics, written once. executeMicro() and the
 * predecoded bulk engines expand their ALU, load, store and branch
 * cases from the op list (isa/isa.hh) through SLIP_SSIR_GENERATED and
 * compute them with the helpers below, so the two cannot disagree.
 * Each executor writes only JAL, JALR, PUTC, PUTN, HALT and NOP by
 * hand.
 *
 * The second ALU operand is rs2 for R-type rows and the predecoded
 * immediate otherwise (shift amounts pre-masked, LUI pre-shifted; see
 * isa/micro_op.hh).
 */

#ifndef SLIPSTREAM_FUNC_EXEC_SEMANTICS_HH
#define SLIPSTREAM_FUNC_EXEC_SEMANTICS_HH

#include <limits>

#include "common/bitutils.hh"
#include "common/types.hh"
#include "isa/isa.hh"

namespace slip
{

/** Signed division with RISC-V-style edge-case semantics. */
constexpr Word
divSigned(Word a, Word b)
{
    const SWord sa = static_cast<SWord>(a);
    const SWord sb = static_cast<SWord>(b);
    if (sb == 0)
        return ~0ull; // all ones
    if (sa == std::numeric_limits<SWord>::min() && sb == -1)
        return a; // overflow: quotient = dividend
    return static_cast<Word>(sa / sb);
}

constexpr Word
remSigned(Word a, Word b)
{
    const SWord sa = static_cast<SWord>(a);
    const SWord sb = static_cast<SWord>(b);
    if (sb == 0)
        return a;
    if (sa == std::numeric_limits<SWord>::min() && sb == -1)
        return 0;
    return static_cast<Word>(sa % sb);
}

constexpr Word
mulHigh(Word a, Word b)
{
    const __int128 p = static_cast<__int128>(static_cast<SWord>(a)) *
                       static_cast<__int128>(static_cast<SWord>(b));
    return static_cast<Word>(static_cast<unsigned __int128>(p) >> 64);
}

/** True when an ALU opcode's second operand is rs2, not the immediate. */
constexpr bool
aluTakesRs2(Opcode op)
{
    return opTable[static_cast<size_t>(op)].format == Format::R;
}

/**
 * Result of one of the 26 ALU opcodes (16 R-type, 9 I-type, LUI) on
 * operands `a` (rs1) and `b` (rs2 or the predecoded immediate).
 * Always called with a constant opcode, so it folds to one operation.
 */
[[gnu::always_inline]] constexpr Word
aluResult(Opcode op, Word a, Word b)
{
    switch (op) {
      case Opcode::ADD: case Opcode::ADDI: return a + b;
      case Opcode::SUB: return a - b;
      case Opcode::MUL: return a * b;
      case Opcode::MULH: return mulHigh(a, b);
      case Opcode::DIV: return divSigned(a, b);
      case Opcode::DIVU: return b == 0 ? ~0ull : a / b;
      case Opcode::REM: return remSigned(a, b);
      case Opcode::REMU: return b == 0 ? a : a % b;
      case Opcode::AND: case Opcode::ANDI: return a & b;
      case Opcode::OR: case Opcode::ORI: return a | b;
      case Opcode::XOR: case Opcode::XORI: return a ^ b;
      case Opcode::SLL: case Opcode::SLLI: return a << (b & 63);
      case Opcode::SRL: case Opcode::SRLI: return a >> (b & 63);
      case Opcode::SRA: case Opcode::SRAI:
        return static_cast<Word>(static_cast<SWord>(a) >> (b & 63));
      case Opcode::SLT: case Opcode::SLTI:
        return static_cast<SWord>(a) < static_cast<SWord>(b) ? 1 : 0;
      case Opcode::SLTU: case Opcode::SLTIU: return a < b ? 1 : 0;
      case Opcode::LUI: return b;
      default: return 0;
    }
}

/** Direction of one of the 6 conditional branches on rs1, rs2. */
[[gnu::always_inline]] constexpr bool
branchTaken(Opcode op, Word a, Word b)
{
    switch (op) {
      case Opcode::BEQ: return a == b;
      case Opcode::BNE: return a != b;
      case Opcode::BLT:
        return static_cast<SWord>(a) < static_cast<SWord>(b);
      case Opcode::BGE:
        return static_cast<SWord>(a) >= static_cast<SWord>(b);
      case Opcode::BLTU: return a < b;
      case Opcode::BGEU: return a >= b;
      default: return false;
    }
}

/** Bytes a load or store opcode accesses (0 for other opcodes). */
constexpr unsigned
memBytesOf(Opcode op)
{
    return opTable[static_cast<size_t>(op)].memBytes;
}

/** A load's destination value from the `raw` bytes it read. */
constexpr Word
loadExtend(Opcode op, Word raw)
{
    const OpInfo &info = opTable[static_cast<size_t>(op)];
    return info.loadSigned
               ? static_cast<Word>(sext(raw, info.memBytes * 8))
               : raw;
}

/**
 * Expand every row of SLIP_SSIR_OPCODES whose semantics are generated
 * to the includer's SLIP_GEN_ALU(NAME), SLIP_GEN_LOAD(NAME),
 * SLIP_GEN_STORE(NAME) or SLIP_GEN_BRANCH(NAME); the rows an executor
 * writes by hand expand to nothing. A row's shape follows from its
 * format and class.
 */
#define SLIP_SSIR_GENERATED                                            \
    SLIP_SSIR_OPCODES(SLIP_SSIR_ROW_SHAPE)
#define SLIP_SSIR_ROW_SHAPE(NAME, MNEMONIC, FORMAT, CLASS, ...)        \
    SLIP_SSIR_SHAPE_##FORMAT##_##CLASS(NAME)
#define SLIP_SSIR_SHAPE_R_IntAlu(NAME) SLIP_GEN_ALU(NAME)
#define SLIP_SSIR_SHAPE_R_IntMult(NAME) SLIP_GEN_ALU(NAME)
#define SLIP_SSIR_SHAPE_R_IntDiv(NAME) SLIP_GEN_ALU(NAME)
#define SLIP_SSIR_SHAPE_I_IntAlu(NAME) SLIP_GEN_ALU(NAME)
#define SLIP_SSIR_SHAPE_J_IntAlu(NAME) SLIP_GEN_ALU(NAME)
#define SLIP_SSIR_SHAPE_I_Load(NAME) SLIP_GEN_LOAD(NAME)
#define SLIP_SSIR_SHAPE_S_Store(NAME) SLIP_GEN_STORE(NAME)
#define SLIP_SSIR_SHAPE_B_Branch(NAME) SLIP_GEN_BRANCH(NAME)
// Hand-written in each executor: JAL, JALR, PUTC, PUTN, HALT, NOP.
#define SLIP_SSIR_SHAPE_J_Jump(NAME)
#define SLIP_SSIR_SHAPE_I_Jump(NAME)
#define SLIP_SSIR_SHAPE_Sys_Syscall(NAME)
#define SLIP_SSIR_SHAPE_Sys_IntAlu(NAME)

} // namespace slip

#endif // SLIPSTREAM_FUNC_EXEC_SEMANTICS_HH
