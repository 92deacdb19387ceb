#include "isa/encoding.h"

#include <array>
#include <cstdio>
#include <vector>

#include "common/bitutil.h"
#include "common/error.h"
#include "isa/op_table.h"

namespace indexmac::isa {
namespace {

std::uint32_t reg_field(std::uint8_t reg, unsigned lsb) {
  IMAC_ASSERT(reg < 32, "register number out of range");
  return std::uint32_t{reg} << lsb;
}

/// The word bits of operand `a` of `in`, after checking its range.
std::uint32_t place(Arg a, const Instruction& in) {
  const std::int32_t imm = in.imm;
  const auto u = static_cast<std::uint32_t>(imm);
  switch (a) {
    case Arg::kNone:
      return 0;
    case Arg::kXd:
    case Arg::kFd:
    case Arg::kVd:
      return reg_field(in.rd, 7);
    case Arg::kXs1:
    case Arg::kFs1:
    case Arg::kMemV:
      return reg_field(in.rs1, 15);
    case Arg::kXs2:
    case Arg::kFs2:
    case Arg::kVs2:
      return reg_field(in.rs2, 20);
    case Arg::kSid:
      IMAC_CHECK(in.rd < 4, "ssrcfg stream id must be in 0..3");
      return reg_field(in.rd, 7);
    case Arg::kImmU:
      IMAC_CHECK(fits_signed(imm, 20), "U-type immediate out of range: " + std::to_string(imm));
      return u << 12;
    case Arg::kImmI:
    case Arg::kMemI:
      IMAC_CHECK(fits_signed(imm, 12), "I-type immediate out of range: " + std::to_string(imm));
      return (u << 20) | (a == Arg::kMemI ? reg_field(in.rs1, 15) : 0);
    case Arg::kShamt:
      IMAC_CHECK(imm >= 0 && imm < 64, "shift amount out of range: " + std::to_string(imm));
      return u << 20;
    case Arg::kSimm5:
      IMAC_CHECK(fits_signed(imm, 5), "vector simm5 out of range: " + std::to_string(imm));
      return (u & 0x1f) << 15;
    case Arg::kUimm5:
      IMAC_CHECK(imm >= 0 && imm < 32, "vector uimm5 out of range: " + std::to_string(imm));
      return u << 15;
    case Arg::kUimm12:
      IMAC_CHECK(imm >= 0 && imm < 4096, "marker id must fit 12 bits");
      return u << 20;
    case Arg::kVtype:
      IMAC_CHECK(imm >= 0 && imm < 0x800, "vtype immediate must fit 11 bits");
      return u << 20;
    case Arg::kBranch:
      IMAC_CHECK(fits_signed(imm, 13) && (imm & 1) == 0,
                 "branch offset out of range or odd: " + std::to_string(imm));
      return (bit(u, 12) << 31) | (bits(u, 10, 5) << 25) | (bits(u, 4, 1) << 8) |
             (bit(u, 11) << 7);
    case Arg::kJump:
      IMAC_CHECK(fits_signed(imm, 21) && (imm & 1) == 0,
                 "jump offset out of range or odd: " + std::to_string(imm));
      return (bit(u, 20) << 31) | (bits(u, 10, 1) << 21) | (bit(u, 11) << 20) |
             (bits(u, 19, 12) << 12);
    case Arg::kMemS:
      IMAC_CHECK(fits_signed(imm, 12), "S-type immediate out of range: " + std::to_string(imm));
      return (bits(u, 11, 5) << 25) | (bits(u, 4, 0) << 7) | reg_field(in.rs1, 15);
  }
  raise("encode: unknown operand kind");
}

/// Fills the Instruction field(s) of operand `a` from word `w`.
void extract(Arg a, std::uint32_t w, Instruction& in) {
  const auto sext = [](std::uint32_t v, unsigned width) {
    return static_cast<std::int32_t>(sign_extend(v, width));
  };
  switch (a) {
    case Arg::kNone:
      return;
    case Arg::kXd:
    case Arg::kFd:
    case Arg::kVd:
    case Arg::kSid:
      in.rd = static_cast<std::uint8_t>(bits(w, 11, 7));
      return;
    case Arg::kXs1:
    case Arg::kFs1:
    case Arg::kMemV:
      in.rs1 = static_cast<std::uint8_t>(bits(w, 19, 15));
      return;
    case Arg::kXs2:
    case Arg::kFs2:
    case Arg::kVs2:
      in.rs2 = static_cast<std::uint8_t>(bits(w, 24, 20));
      return;
    case Arg::kImmU:
      in.imm = sext(bits(w, 31, 12), 20);
      return;
    case Arg::kImmI:
      in.imm = sext(bits(w, 31, 20), 12);
      return;
    case Arg::kShamt:
      in.imm = static_cast<std::int32_t>(bits(w, 25, 20));
      return;
    case Arg::kSimm5:
      in.imm = sext(bits(w, 19, 15), 5);
      return;
    case Arg::kUimm5:
      in.imm = static_cast<std::int32_t>(bits(w, 19, 15));
      return;
    case Arg::kUimm12:
      in.imm = static_cast<std::int32_t>(bits(w, 31, 20));
      return;
    case Arg::kVtype:
      in.imm = static_cast<std::int32_t>(bits(w, 30, 20));
      return;
    case Arg::kBranch:
      in.imm = sext((bit(w, 31) << 12) | (bit(w, 7) << 11) | (bits(w, 30, 25) << 5) |
                        (bits(w, 11, 8) << 1),
                    13);
      return;
    case Arg::kJump:
      in.imm = sext((bit(w, 31) << 20) | (bits(w, 19, 12) << 12) | (bit(w, 20) << 11) |
                        (bits(w, 30, 21) << 1),
                    21);
      return;
    case Arg::kMemI:
      in.imm = sext(bits(w, 31, 20), 12);
      in.rs1 = static_cast<std::uint8_t>(bits(w, 19, 15));
      return;
    case Arg::kMemS:
      in.imm = sext((bits(w, 31, 25) << 5) | bits(w, 11, 7), 12);
      in.rs1 = static_cast<std::uint8_t>(bits(w, 19, 15));
      return;
  }
}

/// The decode bucket of a word: its major opcode and funct3.
std::uint32_t bucket_of(std::uint32_t w) { return (w & 0x7f) | (bits(w, 14, 12) << 7); }

/// Rows by bucket, so decode tests only the rows that can match a word.
/// Every row's mask covers the opcode; a row whose mask leaves funct3 free
/// (lui, auipc, jal) sits in all eight of its opcode's buckets.
const std::array<std::vector<OpRow>, 1024>& rows_by_bucket() {
  static const auto index = [] {
    std::array<std::vector<OpRow>, 1024> rows;
    for (const OpRow& row : op_table().subspan<1>()) {
      for (std::uint32_t funct3 = 0; funct3 < 8; ++funct3) {
        const std::uint32_t w = row.match | (funct3 << 12);
        if ((w & row.mask) == row.match) rows[bucket_of(w)].push_back(row);
      }
    }
    return rows;
  }();
  return index;
}

}  // namespace

std::uint32_t encode(const Instruction& in) {
  const OpRow& row = op_row(in.op);
  IMAC_CHECK(row.mask != 0, "encode: unsupported op");
  std::uint32_t word = row.match;
  for (const Arg a : row.format) word |= place(a, in);
  return word;
}

Instruction decode(std::uint32_t w, std::string* error) {
  for (const OpRow& row : rows_by_bucket()[bucket_of(w)]) {
    if ((w & row.mask) != row.match) continue;
    Instruction in{row.op};
    for (const Arg a : row.format) extract(a, w, in);
    return in;
  }
  if (error) {
    char text[64];
    std::snprintf(text, sizeof text, "no supported instruction encodes as 0x%08x", w);
    *error = text;
  }
  return Instruction{};
}

std::string disassemble(const Instruction& in) {
  const OpRow& row = op_row(in.op);
  std::string s(row.mnemonic);
  const auto reg = [&s](char file, unsigned num) {
    s += file;
    s += std::to_string(num);
  };
  const char* separator = " ";
  for (const Arg a : row.format) {
    if (a == Arg::kNone) break;
    s += separator;
    separator = ", ";
    switch (a) {
      case Arg::kNone: break;
      case Arg::kXd: reg('x', in.rd); break;
      case Arg::kFd: reg('f', in.rd); break;
      case Arg::kVd: reg('v', in.rd); break;
      case Arg::kXs1: reg('x', in.rs1); break;
      case Arg::kFs1: reg('f', in.rs1); break;
      case Arg::kXs2: reg('x', in.rs2); break;
      case Arg::kFs2: reg('f', in.rs2); break;
      case Arg::kVs2: reg('v', in.rs2); break;
      case Arg::kSid: s += std::to_string(in.rd); break;
      case Arg::kMemI:
      case Arg::kMemS:
        s += std::to_string(in.imm);
        [[fallthrough]];
      case Arg::kMemV:
        s += '(';
        reg('x', in.rs1);
        s += ')';
        break;
      case Arg::kImmU:
      case Arg::kImmI:
      case Arg::kShamt:
      case Arg::kSimm5:
      case Arg::kUimm5:
      case Arg::kUimm12:
      case Arg::kVtype:
      case Arg::kBranch:
      case Arg::kJump:
        s += std::to_string(in.imm);
        break;
    }
  }
  return s;
}

}  // namespace indexmac::isa
