// Helpers shared by the ISA suites: a legal instance of every op, and the
// FNV-1a 64 hash the ISA digests fold.
#pragma once

#include <cstdint>
#include <string>

#include "isa/op_table.h"

namespace indexmac::isa {

/// `op` with each operand its table format names set to a legal value
/// (rd 1, rs1 2, rs2 3, an in-range immediate) and every other field zero,
/// so it round-trips through encode and decode exactly. Branch and jal
/// offsets are +8: in a two-instruction program, the end of the program.
inline Instruction sample_instruction(Op op) {
  Instruction in{op};
  for (const Arg a : op_row(op).format) {
    switch (a) {
      case Arg::kNone: break;
      case Arg::kXd:
      case Arg::kFd:
      case Arg::kVd:
      case Arg::kSid: in.rd = 1; break;
      case Arg::kXs1:
      case Arg::kFs1:
      case Arg::kMemV: in.rs1 = 2; break;
      case Arg::kXs2:
      case Arg::kFs2:
      case Arg::kVs2: in.rs2 = 3; break;
      case Arg::kMemI:
      case Arg::kMemS:
        in.rs1 = 2;
        in.imm = -4;
        break;
      case Arg::kImmU:
      case Arg::kImmI:
      case Arg::kShamt:
      case Arg::kUimm5:
      case Arg::kUimm12: in.imm = 5; break;
      case Arg::kSimm5: in.imm = -5; break;
      case Arg::kVtype: in.imm = kVtypeE32M1; break;
      case Arg::kBranch:
      case Arg::kJump: in.imm = 8; break;
    }
  }
  return in;
}

/// FNV-1a 64 (offset 0xcbf29ce484222325, prime 0x100000001b3) over bytes.
struct Fnv1a {
  std::uint64_t hash = 0xcbf29ce484222325ull;

  void byte(unsigned char b) { hash = (hash ^ b) * 0x100000001b3ull; }
  /// Folds `v` as 8 little-endian bytes.
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void text(const std::string& s) {
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
};

}  // namespace indexmac::isa
