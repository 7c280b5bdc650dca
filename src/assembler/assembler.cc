#include "assembler/assembler.hh"

#include <iterator>
#include <map>
#include <optional>
#include <unordered_map>

#include "assembler/lexer.hh"
#include "assembler/parser.hh"
#include "common/bitutils.hh"
#include "common/logging.hh"
#include "isa/encoding.hh"
#include "isa/regnames.hh"

namespace slip
{

namespace
{

/** Reserved scratch register for assembler macro expansions. */
constexpr RegIndex kScratch = reg::k0 + 9; // k9

[[noreturn]] void
asmError(const Stmt &stmt, const std::string &what)
{
    SLIP_FATAL("line ", stmt.line, ": ", what, " (in '", stmt.name, "')");
}

/** Number of real instructions li expands to for a known constant. */
unsigned
liLength(int64_t v)
{
    if (fitsSigned(v, 12))
        return 1;
    if (fitsSigned(v, 30))
        return 2;
    const int64_t lo = sext(static_cast<uint64_t>(v) & 0xfff, 12);
    const int64_t rest = (v - lo) >> 12;
    return liLength(rest) + 2; // recursive materialize + slli + addi
}

/** Append the expansion of `li rd, v` to out. */
void
emitLi(std::vector<StaticInst> &out, RegIndex rd, int64_t v)
{
    if (fitsSigned(v, 12)) {
        out.push_back({Opcode::ADDI, rd, reg::zero, 0, v});
        return;
    }
    if (fitsSigned(v, 30)) {
        const int64_t hi = (v + 0x800) >> 12;
        const int64_t lo = v - (hi << 12);
        // Always emit the addi (even for lo == 0) so the expansion
        // length matches liLength() and pass-1 layout stays exact.
        out.push_back({Opcode::LUI, rd, 0, 0, hi});
        out.push_back({Opcode::ADDI, rd, rd, 0, lo});
        return;
    }
    const int64_t lo = sext(static_cast<uint64_t>(v) & 0xfff, 12);
    const int64_t rest = (v - lo) >> 12;
    emitLi(out, rd, rest);
    out.push_back({Opcode::SLLI, rd, rd, 0, 12});
    out.push_back({Opcode::ADDI, rd, rd, 0, lo});
}

/**
 * For fitsSigned(v, 30) values (all label addresses), the lui+addi pair
 * has a fixed worst-case length of 2; emitLi may produce 1 when the low
 * part is zero, so pad with NOP to keep pass-1 layout exact.
 */
void
emitLiFixed2(std::vector<StaticInst> &out, RegIndex rd, int64_t v)
{
    const size_t before = out.size();
    SLIP_ASSERT(fitsSigned(v, 30),
                "symbolic constant 0x", std::hex, v,
                " exceeds the 30-bit la/li range");
    const int64_t hi = (v + 0x800) >> 12;
    const int64_t lo = v - (hi << 12);
    out.push_back({Opcode::LUI, rd, 0, 0, hi});
    out.push_back({Opcode::ADDI, rd, rd, 0, lo});
    SLIP_ASSERT(out.size() - before == 2, "la expansion size drift");
}

/** Per-mnemonic operand shapes we accept. */
struct OperandView
{
    const Stmt &stmt;

    size_t count() const { return stmt.operands.size(); }

    void
    expectCount(size_t n) const
    {
        if (stmt.operands.size() != n)
            asmError(stmt, "expected " + std::to_string(n) +
                               " operand(s), got " +
                               std::to_string(stmt.operands.size()));
    }

    RegIndex
    reg(size_t i) const
    {
        const Operand &op = stmt.operands[i];
        if (op.kind != Operand::Kind::Reg)
            asmError(stmt, "operand " + std::to_string(i + 1) +
                               " must be a register");
        return op.reg;
    }

    const Expr &
    imm(size_t i) const
    {
        const Operand &op = stmt.operands[i];
        if (op.kind != Operand::Kind::Imm)
            asmError(stmt, "operand " + std::to_string(i + 1) +
                               " must be an immediate or symbol");
        return op.expr;
    }

    /** Memory operand: displacement expr + base register. */
    const Operand &
    mem(size_t i) const
    {
        const Operand &op = stmt.operands[i];
        if (op.kind != Operand::Kind::Mem)
            asmError(stmt, "operand " + std::to_string(i + 1) +
                               " must be disp(base)");
        return op;
    }
};

/** Resolves symbol expressions against the symbol table. */
class Resolver
{
  public:
    explicit Resolver(const std::map<std::string, Addr> &symbols)
        : symbols(symbols)
    {}

    int64_t
    value(const Expr &e, const Stmt &stmt) const
    {
        if (e.isLiteral())
            return e.offset;
        auto it = symbols.find(e.symbol);
        if (it == symbols.end())
            asmError(stmt, "undefined symbol '" + e.symbol + "'");
        return static_cast<int64_t>(it->second) + e.offset;
    }

  private:
    const std::map<std::string, Addr> &symbols;
};

/** The real opcode a mnemonic names (from opTable); none for pseudos. */
std::optional<Opcode>
realOp(const std::string &mnemonic)
{
    static const std::unordered_map<std::string, Opcode> ops = [] {
        std::unordered_map<std::string, Opcode> map;
        for (size_t i = 0; i < std::size(opTable); ++i)
            map.emplace(opTable[i].mnemonic, static_cast<Opcode>(i));
        return map;
    }();
    const auto it = ops.find(mnemonic);
    if (it == ops.end())
        return std::nullopt;
    return it->second;
}

/** True for a load or store mnemonic. */
bool
isMemOp(const std::string &mnemonic)
{
    const std::optional<Opcode> op = realOp(mnemonic);
    if (!op)
        return false;
    const OpClass cls = opInfo(*op).opClass;
    return cls == OpClass::Load || cls == OpClass::Store;
}

/** Swapped-operand pseudo branches: bgt a,b == blt b,a etc. */
const std::unordered_map<std::string, Opcode> swappedBranchOps = {
    {"bgt", Opcode::BLT}, {"ble", Opcode::BGE},
    {"bgtu", Opcode::BLTU}, {"bleu", Opcode::BGEU},
};

/** Zero-comparison pseudo branches: mnemonic -> {op, zeroIsFirst}. */
struct ZeroBranch
{
    Opcode op;
    bool zeroFirst;
};
const std::unordered_map<std::string, ZeroBranch> zeroBranchOps = {
    {"beqz", {Opcode::BEQ, false}}, {"bnez", {Opcode::BNE, false}},
    {"bltz", {Opcode::BLT, false}}, {"bgez", {Opcode::BGE, false}},
    {"blez", {Opcode::BGE, true}},  {"bgtz", {Opcode::BLT, true}},
};

/**
 * Expansion length in real instructions of one Instruction statement.
 * Must agree exactly with expand() — pass 1 uses this for layout.
 */
unsigned
expansionLength(const Stmt &stmt)
{
    const std::string &m = stmt.name;
    const OperandView ops{stmt};

    if (m == "li") {
        ops.expectCount(2);
        const Operand &src = stmt.operands[1];
        if (src.kind == Operand::Kind::Imm && src.expr.isLiteral())
            return liLength(src.expr.offset);
        return 2; // symbolic: fixed lui+addi
    }
    if (m == "la")
        return 2;
    if (m == "push" || m == "pop")
        return 2;
    if (isMemOp(m) && stmt.operands.size() >= 2 &&
        stmt.operands[1].kind == Operand::Kind::Imm) {
        return 3; // la k9, sym ; op reg, 0(k9)
    }
    return 1;
}

/**
 * Expand one Instruction statement into real instructions, appending
 * to `out`, which must be the whole text section so far (emit PCs for
 * branch offsets are derived from its length). Branch targets are
 * resolved through `resolver`.
 */
void
expand(const Stmt &stmt, const Resolver &resolver, Addr textBase,
       std::vector<StaticInst> &out)
{
    const std::string &m = stmt.name;
    const OperandView ops{stmt};

    /** Word offset from the next-emitted instruction to the target. */
    const auto branchOffset = [&](const Expr &e, unsigned width) {
        // A pure literal target IS the relative word offset — the
        // syntax the disassembler emits with absoluteTargets=false
        // ("beq a0, a1, +3"), so disassembled control flow
        // reassembles to the identical encoding. Symbolic targets
        // (labels, label+off) resolve to absolute addresses and are
        // converted to an offset from the emitting PC.
        int64_t words;
        if (e.isLiteral()) {
            words = e.offset;
        } else {
            const int64_t target = resolver.value(e, stmt);
            const int64_t delta =
                target -
                static_cast<int64_t>(textBase + out.size() * kInstBytes);
            if (delta % kInstBytes != 0)
                asmError(stmt, "misaligned branch target");
            words = delta / kInstBytes;
        }
        if (!fitsSigned(words, width))
            asmError(stmt, "branch target out of range (" +
                               std::to_string(words) + " words)");
        return words;
    };

    const auto imm12 = [&](const Expr &e) {
        const int64_t v = resolver.value(e, stmt);
        if (!fitsSigned(v, 12))
            asmError(stmt,
                     "immediate " + std::to_string(v) +
                         " does not fit in 12 bits (use li)");
        return v;
    };

    // --- real ALU, load, store and branch instructions ---
    if (const std::optional<Opcode> op = realOp(m)) {
        const OpInfo &info = opInfo(*op);
        if (info.format == Format::R) {
            ops.expectCount(3);
            out.push_back({*op, ops.reg(0), ops.reg(1), ops.reg(2), 0});
            return;
        }
        if (info.format == Format::I && info.opClass == OpClass::IntAlu) {
            ops.expectCount(3);
            out.push_back(
                {*op, ops.reg(0), ops.reg(1), 0, imm12(ops.imm(2))});
            return;
        }
        if (info.opClass == OpClass::Load) {
            ops.expectCount(2);
            if (stmt.operands[1].kind == Operand::Kind::Mem) {
                const Operand &memOp = ops.mem(1);
                out.push_back({*op, ops.reg(0), memOp.reg, 0,
                               imm12(memOp.expr)});
            } else {
                // lX rd, symbol  ->  la k9, symbol ; lX rd, 0(k9)
                emitLiFixed2(out, kScratch,
                             resolver.value(ops.imm(1), stmt));
                out.push_back({*op, ops.reg(0), kScratch, 0, 0});
            }
            return;
        }
        if (info.opClass == OpClass::Store) {
            ops.expectCount(2);
            if (stmt.operands[1].kind == Operand::Kind::Mem) {
                const Operand &memOp = ops.mem(1);
                out.push_back({*op, 0, memOp.reg, ops.reg(0),
                               imm12(memOp.expr)});
            } else {
                emitLiFixed2(out, kScratch,
                             resolver.value(ops.imm(1), stmt));
                out.push_back({*op, 0, kScratch, ops.reg(0), 0});
            }
            return;
        }
        if (info.opClass == OpClass::Branch) {
            ops.expectCount(3);
            const RegIndex a = ops.reg(0), b = ops.reg(1);
            out.push_back({*op, 0, a, b, branchOffset(ops.imm(2), 12)});
            return;
        }
        // jal, jalr, lui and the system ops take their own operand
        // forms below.
    }
    if (auto it = swappedBranchOps.find(m); it != swappedBranchOps.end()) {
        ops.expectCount(3);
        const RegIndex a = ops.reg(0), b = ops.reg(1);
        out.push_back(
            {it->second, 0, b, a, branchOffset(ops.imm(2), 12)});
        return;
    }
    if (auto it = zeroBranchOps.find(m); it != zeroBranchOps.end()) {
        ops.expectCount(2);
        const RegIndex r = ops.reg(0);
        const RegIndex rs1 = it->second.zeroFirst ? reg::zero : r;
        const RegIndex rs2 = it->second.zeroFirst ? r : reg::zero;
        out.push_back({it->second.op, 0, rs1, rs2,
                       branchOffset(ops.imm(1), 12)});
        return;
    }
    // --- jumps ---
    if (m == "jal") {
        ops.expectCount(2);
        out.push_back(
            {Opcode::JAL, ops.reg(0), 0, 0, branchOffset(ops.imm(1), 18)});
        return;
    }
    if (m == "j") {
        ops.expectCount(1);
        out.push_back(
            {Opcode::JAL, reg::zero, 0, 0, branchOffset(ops.imm(0), 18)});
        return;
    }
    if (m == "call") {
        ops.expectCount(1);
        out.push_back(
            {Opcode::JAL, reg::ra, 0, 0, branchOffset(ops.imm(0), 18)});
        return;
    }
    if (m == "jalr") {
        ops.expectCount(2);
        const Operand &memOp = ops.mem(1);
        out.push_back(
            {Opcode::JALR, ops.reg(0), memOp.reg, 0, imm12(memOp.expr)});
        return;
    }
    if (m == "jr") {
        ops.expectCount(1);
        out.push_back({Opcode::JALR, reg::zero, ops.reg(0), 0, 0});
        return;
    }
    if (m == "ret") {
        ops.expectCount(0);
        out.push_back({Opcode::JALR, reg::zero, reg::ra, 0, 0});
        return;
    }
    // --- moves / unary pseudos ---
    if (m == "mv") {
        ops.expectCount(2);
        out.push_back({Opcode::ADDI, ops.reg(0), ops.reg(1), 0, 0});
        return;
    }
    if (m == "not") {
        ops.expectCount(2);
        out.push_back({Opcode::XORI, ops.reg(0), ops.reg(1), 0, -1});
        return;
    }
    if (m == "neg") {
        ops.expectCount(2);
        out.push_back({Opcode::SUB, ops.reg(0), reg::zero, ops.reg(1), 0});
        return;
    }
    if (m == "seqz") {
        ops.expectCount(2);
        out.push_back({Opcode::SLTIU, ops.reg(0), ops.reg(1), 0, 1});
        return;
    }
    if (m == "snez") {
        ops.expectCount(2);
        out.push_back({Opcode::SLTU, ops.reg(0), reg::zero, ops.reg(1), 0});
        return;
    }
    if (m == "sltz") {
        ops.expectCount(2);
        out.push_back({Opcode::SLT, ops.reg(0), ops.reg(1), reg::zero, 0});
        return;
    }
    if (m == "sgtz") {
        ops.expectCount(2);
        out.push_back({Opcode::SLT, ops.reg(0), reg::zero, ops.reg(1), 0});
        return;
    }
    if (m == "lui") {
        ops.expectCount(2);
        const int64_t v = resolver.value(ops.imm(1), stmt);
        if (!fitsSigned(v, 18))
            asmError(stmt, "lui immediate out of 18-bit range");
        out.push_back({Opcode::LUI, ops.reg(0), 0, 0, v});
        return;
    }
    // --- constants ---
    if (m == "li") {
        ops.expectCount(2);
        const Operand &src = stmt.operands[1];
        if (src.kind != Operand::Kind::Imm)
            asmError(stmt, "li needs an immediate or symbol");
        if (src.expr.isLiteral())
            emitLi(out, ops.reg(0), src.expr.offset);
        else
            emitLiFixed2(out, ops.reg(0), resolver.value(src.expr, stmt));
        return;
    }
    if (m == "la") {
        ops.expectCount(2);
        emitLiFixed2(out, ops.reg(0), resolver.value(ops.imm(1), stmt));
        return;
    }
    // --- stack ---
    if (m == "push") {
        ops.expectCount(1);
        out.push_back({Opcode::ADDI, reg::sp, reg::sp, 0, -8});
        out.push_back({Opcode::SD, 0, reg::sp, ops.reg(0), 0});
        return;
    }
    if (m == "pop") {
        ops.expectCount(1);
        out.push_back({Opcode::LD, ops.reg(0), reg::sp, 0, 0});
        out.push_back({Opcode::ADDI, reg::sp, reg::sp, 0, 8});
        return;
    }
    // --- system ---
    if (m == "putc") {
        ops.expectCount(1);
        out.push_back({Opcode::PUTC, 0, ops.reg(0), 0, 0});
        return;
    }
    if (m == "putn") {
        ops.expectCount(1);
        out.push_back({Opcode::PUTN, 0, ops.reg(0), 0, 0});
        return;
    }
    if (m == "halt") {
        ops.expectCount(0);
        out.push_back({Opcode::HALT, 0, 0, 0, 0});
        return;
    }
    if (m == "nop") {
        ops.expectCount(0);
        out.push_back({Opcode::NOP, 0, 0, 0, 0});
        return;
    }

    asmError(stmt, "unknown mnemonic '" + m + "'");
}

enum class Section : uint8_t { Text, Data };

/** Size in bytes of one element of a data directive. */
unsigned
dataElemSize(const std::string &directive)
{
    if (directive == ".byte")
        return 1;
    if (directive == ".half")
        return 2;
    if (directive == ".word")
        return 4;
    if (directive == ".dword")
        return 8;
    return 0;
}

} // namespace

Program
assemble(const std::string &source)
{
    const std::vector<Stmt> stmts = parse(tokenize(source));

    std::map<std::string, Addr> symbols;
    const Addr textBase = layout::kTextBase;
    const Addr dataBase = layout::kDataBase;

    // ---- Pass 1: layout ----
    {
        Section section = Section::Text;
        uint64_t textWords = 0;
        uint64_t dataBytes = 0;

        for (const Stmt &stmt : stmts) {
            switch (stmt.kind) {
              case Stmt::Kind::Label: {
                const Addr addr =
                    section == Section::Text
                        ? textBase + textWords * kInstBytes
                        : dataBase + dataBytes;
                if (!symbols.emplace(stmt.name, addr).second)
                    asmError(stmt, "duplicate label '" + stmt.name + "'");
                break;
              }
              case Stmt::Kind::Directive: {
                const std::string &d = stmt.name;
                if (d == ".text") {
                    section = Section::Text;
                } else if (d == ".data") {
                    section = Section::Data;
                } else if (d == ".globl" || d == ".global") {
                    // accepted for compatibility; no effect
                } else if (d == ".equ") {
                    if (stmt.operands.size() != 2 ||
                        stmt.operands[0].kind != Operand::Kind::Imm ||
                        stmt.operands[0].expr.isLiteral() ||
                        stmt.operands[1].kind != Operand::Kind::Imm ||
                        !stmt.operands[1].expr.isLiteral()) {
                        asmError(stmt, ".equ name, literal");
                    }
                    const std::string &name = stmt.operands[0].expr.symbol;
                    if (name.empty())
                        asmError(stmt, ".equ needs a symbol name");
                    if (!symbols
                             .emplace(name, static_cast<Addr>(
                                                stmt.operands[1].expr
                                                    .offset))
                             .second) {
                        asmError(stmt, "duplicate symbol '" + name + "'");
                    }
                } else if (d == ".align") {
                    if (section != Section::Data)
                        asmError(stmt, ".align only valid in .data");
                    if (stmt.operands.size() != 1 ||
                        stmt.operands[0].kind != Operand::Kind::Imm ||
                        !stmt.operands[0].expr.isLiteral())
                        asmError(stmt, ".align needs a literal");
                    const uint64_t a = stmt.operands[0].expr.offset;
                    if (!isPowerOfTwo(a))
                        asmError(stmt, ".align must be a power of two");
                    dataBytes = (dataBytes + a - 1) & ~(a - 1);
                } else if (unsigned elem = dataElemSize(d)) {
                    if (section != Section::Data)
                        asmError(stmt, d + " only valid in .data");
                    dataBytes += elem * stmt.operands.size();
                } else if (d == ".ascii" || d == ".asciz") {
                    if (section != Section::Data)
                        asmError(stmt, d + " only valid in .data");
                    if (stmt.operands.size() != 1 ||
                        stmt.operands[0].kind != Operand::Kind::Str)
                        asmError(stmt, d + " needs one string");
                    dataBytes += stmt.operands[0].str.size() +
                                 (d == ".asciz" ? 1 : 0);
                } else if (d == ".space") {
                    if (section != Section::Data)
                        asmError(stmt, ".space only valid in .data");
                    if (stmt.operands.empty() ||
                        stmt.operands[0].kind != Operand::Kind::Imm ||
                        !stmt.operands[0].expr.isLiteral())
                        asmError(stmt, ".space needs a literal size");
                    dataBytes += stmt.operands[0].expr.offset;
                } else {
                    asmError(stmt, "unknown directive '" + d + "'");
                }
                break;
              }
              case Stmt::Kind::Instruction:
                if (section != Section::Text)
                    asmError(stmt, "instruction outside .text");
                textWords += expansionLength(stmt);
                break;
            }
        }
    }

    // ---- Pass 2: emit ----
    const Resolver resolver(symbols);
    std::vector<StaticInst> text;
    std::vector<uint8_t> data;

    for (const Stmt &stmt : stmts) {
        switch (stmt.kind) {
          case Stmt::Kind::Label:
            break;
          case Stmt::Kind::Directive: {
            const std::string &d = stmt.name;
            if (d == ".text" || d == ".data") {
                // section bookkeeping was all done in pass 1
            } else if (d == ".globl" || d == ".global" || d == ".equ") {
                // handled in pass 1 / no-op
            } else if (d == ".align") {
                const uint64_t a = stmt.operands[0].expr.offset;
                while (data.size() % a != 0)
                    data.push_back(0);
            } else if (unsigned elem = dataElemSize(d)) {
                for (const Operand &op : stmt.operands) {
                    if (op.kind != Operand::Kind::Imm)
                        asmError(stmt, "data values must be immediates");
                    const uint64_t v = static_cast<uint64_t>(
                        resolver.value(op.expr, stmt));
                    for (unsigned b = 0; b < elem; ++b)
                        data.push_back(
                            static_cast<uint8_t>(v >> (8 * b)));
                }
            } else if (d == ".ascii" || d == ".asciz") {
                for (char c : stmt.operands[0].str)
                    data.push_back(static_cast<uint8_t>(c));
                if (d == ".asciz")
                    data.push_back(0);
            } else if (d == ".space") {
                const int64_t count = stmt.operands[0].expr.offset;
                uint8_t fill = 0;
                if (stmt.operands.size() > 1) {
                    if (stmt.operands[1].kind != Operand::Kind::Imm ||
                        !stmt.operands[1].expr.isLiteral())
                        asmError(stmt, ".space fill must be a literal");
                    fill = static_cast<uint8_t>(
                        stmt.operands[1].expr.offset);
                }
                data.insert(data.end(), count, fill);
            }
            break;
          }
          case Stmt::Kind::Instruction: {
            const size_t before = text.size();
            const unsigned expect = expansionLength(stmt);
            expand(stmt, resolver, textBase, text);
            if (text.size() - before != expect) {
                SLIP_PANIC("pass1/pass2 size mismatch for '", stmt.name,
                           "' at line ", stmt.line, ": laid out ", expect,
                           ", emitted ", text.size() - before);
            }
            break;
          }
        }
    }

    std::vector<uint32_t> words;
    words.reserve(text.size());
    for (const StaticInst &inst : text)
        words.push_back(encode(inst));

    const Addr entry = symbols.count("main") ? symbols.at("main")
                                             : textBase;
    return Program(std::move(words), std::move(data), entry,
                   std::move(symbols), textBase, dataBase);
}

} // namespace slip
