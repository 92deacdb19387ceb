// Predecoded static-instruction metadata.
//
// Everything the timing model would otherwise recompute per dynamic
// instruction — operand read/write register-file usage, op class,
// vector-engine latency class, memory access size — is a pure function of
// the decoded Instruction, so the timing model computes it once per PC slot,
// when it binds the slot's handler. Each op's metadata is the info column
// of its row in the instruction table (isa/op_table.cpp).
#pragma once

#include <cstdint>

#include "isa/isa.h"

namespace indexmac::isa {

/// Bit flags of StaticInstInfo::flags.
enum : std::uint32_t {
  kSiVector = 1u << 0,          ///< executes on the vector engine
  kSiBranch = 1u << 1,          ///< conditional branch
  kSiJump = 1u << 2,            ///< jal/jalr
  kSiScalarLoad = 1u << 3,      ///< lw/lwu/ld/flw
  kSiScalarStore = 1u << 4,     ///< sw/sd/fsw
  kSiVectorLoad = 1u << 5,      ///< vle32
  kSiVectorStore = 1u << 6,     ///< vse32
  kSiVectorToScalar = 1u << 7,  ///< vmv.x.s / vfmv.f.s
  kSiHalt = 1u << 8,            ///< ebreak/ecall
  kSiMarker = 1u << 9,          ///< simulation marker
  kSiReadsXRs1 = 1u << 10,
  kSiReadsXRs2 = 1u << 11,
  kSiReadsFRs1 = 1u << 12,
  kSiReadsFRs2 = 1u << 13,  ///< fsw keeps the stored f value in the rs2 slot
  kSiWritesX = 1u << 14,
  kSiWritesF = 1u << 15,
  kSiWritesV = 1u << 16,
  kSiIndirectVreg = 1u << 17,  ///< v(f)indexmac*: extra VRF read(s) via x[rs1]
  kSiVectorMac = 1u << 18,     ///< counted in TimingStats::vector_macs
  kSiPackedIndex = 1u << 19,   ///< v(f)indexmacp/2: VRF source is 16 | nibble
  kSiDualMac = 1u << 20,       ///< v(f)indexmac2: two MAC ops per dispatch
  kSiSsrMac = 1u << 21,        ///< v(f)indexmacs: operands pop from SSR streams
  kSiSsrCtl = 1u << 22,        ///< ssrcfg/ssren: stream state-machine control
};

/// Vector-engine latency class; the timing model resolves each class to a
/// cycle count from its VectorEngineConfig once, at model construction.
enum class VLatClass : std::uint8_t {
  kNone = 0,  ///< not an engine-latency op (loads/stores and scalar ops)
  kAlu,
  kMac,
  kSlide,
  kMove,
};

/// Bits of StaticInstInfo::vreg_reads: which Instruction register fields
/// name vector registers the op reads (the engine scoreboard's sources).
enum : std::uint8_t {
  kVReadRd = 1u << 0,   ///< reads v[rd] (merging ops, stores via the rd slot)
  kVReadRs2 = 1u << 1,  ///< reads v[rs2]
};

/// Per-PC-slot metadata, computed once per slot by predecode().
struct StaticInstInfo {
  std::uint32_t flags = 0;
  std::uint8_t scalar_mem_bytes = 0;  ///< scalar loads/stores: 4 or 8, else 0
  std::uint8_t vreg_reads = 0;        ///< kVRead* mask
  VLatClass vlat = VLatClass::kNone;

  [[nodiscard]] constexpr bool has(std::uint32_t mask) const { return (flags & mask) != 0; }
};

/// Computes the static metadata of one decoded instruction.
[[nodiscard]] StaticInstInfo predecode(const Instruction& inst);

}  // namespace indexmac::isa
