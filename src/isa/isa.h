// Instruction-set definitions for the RV64 + RVV subset used by the
// IndexMAC kernels, including the custom vindexmac/vfindexmac instructions.
//
// The subset is what the kernel families emit, plus scalar conveniences
// for hand-written programs: RV64I integer ALU ops, loads/stores,
// branches/jumps, M-extension mul, F-extension flw/fsw, and an RVV 1.0
// slice with SEW=32 / LMUL=1 semantics, without gathers or reductions.
// Everything else is rejected by the decoder with a precise error.
#pragma once

#include <cstdint>
#include <string>

namespace indexmac::isa {

/// Hardware vector length in bits (Table I: 512-bit vector engine).
inline constexpr unsigned kVlenBits = 512;
/// Element width in bits; the kernels use 32-bit elements exclusively.
inline constexpr unsigned kSewBits = 32;
/// Elements per vector register (VLMAX at LMUL=1): 16 lanes worth.
inline constexpr unsigned kVlMax = kVlenBits / kSewBits;
/// Number of architectural registers in each file.
inline constexpr unsigned kNumXRegs = 32;
inline constexpr unsigned kNumFRegs = 32;
inline constexpr unsigned kNumVRegs = 32;

/// Mnemonic-level operation. Suffixes follow RVV conventions: Vx = vector
/// op with scalar x-register operand, Vi = 5-bit immediate operand,
/// Vf = scalar f-register operand.
enum class Op : std::uint8_t {
  kIllegal,
  // RV64I upper-immediate / jumps.
  kLui, kAuipc, kJal, kJalr,
  // Branches.
  kBeq, kBne, kBlt, kBge, kBltu, kBgeu,
  // Loads / stores (x and f register files).
  kLw, kLwu, kLd, kSw, kSd, kFlw, kFsw,
  // Integer ALU, immediate forms.
  kAddi, kSlti, kSltiu, kXori, kOri, kAndi, kSlli, kSrli, kSrai,
  // Integer ALU, register forms (+ M-extension multiply).
  kAdd, kSub, kSll, kSlt, kSltu, kXor, kSrl, kSra, kOr, kAnd, kMul,
  // System.
  kEcall, kEbreak,
  // Simulation marker (custom-0 opcode): architectural no-op that carries a
  // 12-bit id; the simulators record the cycle/statistics snapshot at which
  // each marker commits. Used by the sampled experiment runner.
  kMarker,
  // RVV configuration.
  kVsetvli,
  // RVV unit-stride memory.
  kVle32, kVse32,
  // RVV arithmetic / moves / slides (SEW=32).
  kVaddVx, kVaddVi,
  kVmaccVx, kVfmaccVf,
  kVmvVI, kVmvXS, kVfmvFS,
  kVslidedownVi, kVslide1downVx,
  // Custom IndexMAC instructions (Section III of the paper):
  //   vd[i] += vs2[0] * VRF[x[rs1] & 0x1f][i]
  // Integer and fp32 element interpretations share the datapath.
  kVindexmacVx, kVfindexmacVx,
  // Follow-up-paper variants (arXiv:2501.10189, "Optimizing Structured-
  // Sparse Matrix Multiplication in RISC-V Vector Processors"):
  //  * vindexmacp.vx — packed-index form: the B-row source is named by the
  //    low nibble of x[rs1], addressing the upper half of the register
  //    file (VRF[16 | (x[rs1] & 0xf)]). Kernels consume a packed
  //    16-nibble index word with plain scalar shifts instead of one
  //    vmv.x.s round trip per non-zero slot.
  //  * vindexmac2.vx — dual-row form: one issue multiply-accumulates two
  //    adjacent A slots (values vs2[0] and vs2[1], indices nibbles 0 and 1
  //    of x[rs1]), equivalent to two back-to-back vindexmacp.vx ops. It
  //    occupies the MAC datapath for two operations but costs a single
  //    dispatch, halving the dependent-MAC chain on the accumulator.
  kVindexmacpVx, kVfindexmacpVx,
  kVindexmac2Vx, kVfindexmac2Vx,
  // Stream-semantic-register extension (Algorithm 5; after the SSR /
  // ISSR line of work, arXiv:2305.05559 and arXiv:2011.08070): four
  // address-generation state machines that feed operands straight into
  // the vector engine, removing explicit index/value loads from the
  // dynamic instruction stream.
  //  * ssrcfg sid, rs1, rs2 — programs stream `sid` (0..3, carried in the
  //    rd field): base address x[rs1], wrap length x[rs2] 32-bit words;
  //    resets the stream position.
  //  * ssren rs1 — enables the streams named by the low 4 bits of x[rs1]
  //    (bit s = stream s) and disables the rest; enabling rewinds a
  //    stream to its configured base. `ssren x0` disables all streams.
  //  * vindexmacs.v / vfindexmacs.v vd — streaming MAC: pops an A value
  //    from stream 0 and a VRF row index from stream 1, then performs
  //    vd[i] += value * VRF[index & 0x1f][i]. Both streams advance one
  //    word and wrap at their configured length.
  kSsrCfg, kSsrEn,
  kVindexmacsV, kVfindexmacsV,
};

/// A decoded instruction. Register fields are interpreted per op: the op's
/// row in the instruction table (isa/op_table.cpp) says which fields it uses
/// and whether each names an x, f or v register.
struct Instruction {
  Op op = Op::kIllegal;
  std::uint8_t rd = 0;   ///< destination (x/f/v); vs3 for stores
  std::uint8_t rs1 = 0;  ///< first source (x/f); base address for memory ops
  std::uint8_t rs2 = 0;  ///< second source (x) or vs2 (v)
  std::int32_t imm = 0;  ///< immediate / vtype / marker id

  friend bool operator==(const Instruction&, const Instruction&) = default;
};

/// vtype immediate for `vsetvli` encoding SEW=32, LMUL=1, ta, ma — the only
/// configuration this subset supports.
inline constexpr std::int32_t kVtypeE32M1 = 0xD0;

/// Mnemonic text ("vindexmac.vx"), as accepted by the text assembler.
[[nodiscard]] std::string mnemonic(Op op);

}  // namespace indexmac::isa
