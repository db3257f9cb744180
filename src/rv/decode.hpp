// RV32IM + Zicsr instruction decoder and disassembler.
#pragma once

#include <cstdint>
#include <string>

namespace vpdift::rv {

enum class Op : std::uint8_t {
  kIllegal,
  // RV32I
  kLui, kAuipc, kJal, kJalr,
  kBeq, kBne, kBlt, kBge, kBltu, kBgeu,
  kLb, kLh, kLw, kLbu, kLhu,
  kSb, kSh, kSw,
  kAddi, kSlti, kSltiu, kXori, kOri, kAndi, kSlli, kSrli, kSrai,
  kAdd, kSub, kSll, kSlt, kSltu, kXor, kSrl, kSra, kOr, kAnd,
  kFence, kEcall, kEbreak,
  // RV32M
  kMul, kMulh, kMulhsu, kMulhu, kDiv, kDivu, kRem, kRemu,
  // Zicsr
  kCsrrw, kCsrrs, kCsrrc, kCsrrwi, kCsrrsi, kCsrrci,
  // privileged
  kMret, kWfi,
};

/// Number of distinct Op values (handler tables are indexed by Op).
inline constexpr std::size_t kNumOps = static_cast<std::size_t>(Op::kWfi) + 1;

/// One decoded instruction. For CSR ops, `imm` holds the CSR number and
/// `rs1` the source register / zimm. Compressed (RVC) instructions are
/// expanded to their base-ISA equivalent with `len == 2`.
struct Insn {
  Op op = Op::kIllegal;
  std::uint8_t rd = 0;
  std::uint8_t rs1 = 0;
  std::uint8_t rs2 = 0;
  std::uint8_t len = 4;  ///< encoded length in bytes (2 for RVC)
  std::int32_t imm = 0;
  std::uint32_t raw = 0;
};

/// Decodes a 32-bit instruction word.
Insn decode(std::uint32_t raw);

/// Decodes a 16-bit RVC parcel into its expanded base-ISA form (len = 2).
/// Unsupported encodings (FP, RV64-only) decode to kIllegal.
Insn decode16(std::uint16_t raw);

/// Decodes the parcel at hand: compressed if the low two bits differ from
/// 0b11, otherwise the full 32-bit word.
inline Insn decode_any(std::uint32_t raw) {
  return (raw & 3) == 3 ? decode(raw) : decode16(static_cast<std::uint16_t>(raw));
}

/// True for ops that end a translated block: unconditional control transfers
/// (jal/jalr/mret), traps (ecall/ebreak/illegal), CSR accesses, fence and
/// wfi. Conditional branches are NOT terminators (a not-taken branch falls
/// through inside the block). This is the single source of truth shared by
/// the core's block builder and the static analyzer's block recovery.
/// (constexpr so the core's handler table can bake it in at compile time.)
constexpr bool is_block_terminator(Op op) {
  switch (op) {
    case Op::kJal:
    case Op::kJalr:
    case Op::kFence:
    case Op::kEcall:
    case Op::kEbreak:
    case Op::kCsrrw:
    case Op::kCsrrs:
    case Op::kCsrrc:
    case Op::kCsrrwi:
    case Op::kCsrrsi:
    case Op::kCsrrci:
    case Op::kMret:
    case Op::kWfi:
    case Op::kIllegal:
      return true;
    default:
      return false;
  }
}

/// Mnemonic of `op` ("addi", "beq", ...).
const char* mnemonic(Op op);

/// Human-readable rendering, e.g. "addi a0, a0, -1".
std::string disassemble(const Insn& insn);
std::string disassemble(std::uint32_t raw);

}  // namespace vpdift::rv
