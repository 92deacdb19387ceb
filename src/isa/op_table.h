// The instruction table: one row per isa::Op. The encoder, decoder,
// disassembler, predecode() and the text assembler all read it, so an op's
// definition lives in exactly one place.
//
// A row fixes the op's mnemonic, the word bits that identify it (a word is
// the op iff (word & mask) == match; fields that must be zero are part of
// the mask), its operand format and its predecoded StaticInstInfo. The
// format is the op's operand list in assembly order. Each operand kind
// fixes the Instruction field it fills, the word bits it occupies and its
// text form, so one list drives encode, decode, disassembly and parsing.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

#include "isa/isa.h"
#include "isa/static_info.h"

namespace indexmac::isa {

/// One operand kind of the assembly syntax.
enum class Arg : std::uint8_t {
  kNone,
  kXd, kFd, kVd,     ///< register in rd, bits 11:7
  kXs1, kFs1,        ///< register in rs1, bits 19:15
  kXs2, kFs2, kVs2,  ///< register in rs2, bits 24:20
  kSid,     ///< ssrcfg stream id 0..3 in rd, printed as a number
  kImmU,    ///< imm: signed 20 bits, bits 31:12
  kImmI,    ///< imm: signed 12 bits, bits 31:20
  kShamt,   ///< imm: shift amount 0..63, bits 25:20
  kSimm5,   ///< imm: signed 5 bits in the rs1 field
  kUimm5,   ///< imm: 0..31 in the rs1 field
  kUimm12,  ///< imm: 0..4095, bits 31:20 (marker id)
  kVtype,   ///< imm: 0..2047, bits 30:20; text accepts only e32m1
  kBranch,  ///< imm: B-type pc-relative offset; a label in text
  kJump,    ///< imm: J-type pc-relative offset; a label in text
  kMemI,    ///< "imm(xN)": kImmI offset plus rs1 base
  kMemS,    ///< "imm(xN)": S-type offset (bits 31:25, 11:7) plus rs1 base
  kMemV,    ///< "(xN)": rs1 base, no offset
};

/// An op's operands in assembly order; unused trailing slots are kNone.
using Format = std::array<Arg, 3>;

struct OpRow {
  Op op;
  std::string_view mnemonic;
  std::uint32_t mask;   ///< word bits that identify the op
  std::uint32_t match;  ///< their values
  Format format;
  StaticInstInfo info;  ///< predecode()'s result; kSiWritesX also needs rd != 0
};

/// Number of ops, kIllegal included: one past the last enumerator.
inline constexpr std::size_t kNumOps = static_cast<std::size_t>(Op::kVfindexmacsV) + 1;

/// Every row; row i describes Op i. Row 0 (kIllegal) matches no word.
[[nodiscard]] std::span<const OpRow, kNumOps> op_table();

/// The row of `op`; throws SimError for a value outside isa::Op.
[[nodiscard]] const OpRow& op_row(Op op);

/// The op whose mnemonic is `name` ("vindexmac.vx"), if any.
[[nodiscard]] std::optional<Op> op_named(std::string_view name);

}  // namespace indexmac::isa
