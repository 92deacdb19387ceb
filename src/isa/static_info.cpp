#include "isa/static_info.h"

#include "common/error.h"

namespace indexmac::isa {

namespace {

std::uint8_t vector_reads_of(Op op) {
  switch (op) {
    case Op::kVse32:
    case Op::kVmvSX:
      return kVReadRd;  // vs3 lives in the rd slot; vmv.s.x merges into vd[0]
    case Op::kVaddVx:
    case Op::kVaddVi:
    case Op::kVslidedownVx:
    case Op::kVslidedownVi:
    case Op::kVslide1downVx:
    case Op::kVluxei32:
    case Op::kVmvXS:
    case Op::kVfmvFS:
      return kVReadRs2;
    case Op::kVaddVV:
    case Op::kVfaddVV:
    case Op::kVmulVV:
    case Op::kVfmulVV:
    case Op::kVredsumVS:
    case Op::kVfredusumVS:
      return kVReadRs1 | kVReadRs2;
    case Op::kVmaccVx:
    case Op::kVfmaccVf:
    case Op::kVindexmacVx:
    case Op::kVfindexmacVx:
    case Op::kVindexmacpVx:
    case Op::kVfindexmacpVx:
    case Op::kVindexmac2Vx:
    case Op::kVfindexmac2Vx:
      return kVReadRd | kVReadRs2;
    case Op::kVindexmacsV:
    case Op::kVfindexmacsV:
      // Accumulator only; the A value arrives from stream 0 and the B row
      // is an indirect VRF read resolved per dynamic instruction (stream 1).
      return kVReadRd;
    case Op::kVle32:
    case Op::kVmvVX:
    case Op::kVmvVI:
      return 0;  // write vd only
    default:
      // A vector op missing from this switch would be scoreboarded with no
      // VRF sources; fail loudly instead (the scalar ops land here too —
      // they have no vector reads by construction).
      IMAC_ASSERT(!is_vector(op), "predecode: vector op missing its VRF source set: " +
                                      mnemonic(op));
      return 0;
  }
}

VLatClass latency_class_of(Op op) {
  switch (op) {
    case Op::kVaddVx:
    case Op::kVaddVi:
    case Op::kVaddVV:
    case Op::kVfaddVV:
      return VLatClass::kAlu;
    case Op::kVmulVV:
    case Op::kVfmulVV:
    case Op::kVmaccVx:
    case Op::kVfmaccVf:
    case Op::kVindexmacVx:
    case Op::kVfindexmacVx:
    case Op::kVindexmacpVx:
    case Op::kVfindexmacpVx:
    case Op::kVindexmac2Vx:
    case Op::kVfindexmac2Vx:
    case Op::kVindexmacsV:
    case Op::kVfindexmacsV:
      return VLatClass::kMac;
    case Op::kVslidedownVx:
    case Op::kVslidedownVi:
    case Op::kVslide1downVx:
      return VLatClass::kSlide;
    case Op::kVmvVX:
    case Op::kVmvVI:
    case Op::kVmvSX:
    case Op::kVmvXS:
    case Op::kVfmvFS:
      return VLatClass::kMove;
    case Op::kVredsumVS:
    case Op::kVfredusumVS:
      return VLatClass::kReduction;
    default:
      return VLatClass::kNone;  // memory ops and everything scalar
  }
}

}  // namespace

StaticInstInfo predecode(const Instruction& inst) {
  const Op op = inst.op;
  StaticInstInfo s;
  if (is_vector(op)) s.flags |= kSiVector;
  if (is_branch(op)) s.flags |= kSiBranch;
  if (is_jump(op)) s.flags |= kSiJump;
  if (is_scalar_load(op)) s.flags |= kSiScalarLoad;
  if (is_scalar_store(op)) s.flags |= kSiScalarStore;
  if (is_vector_load(op)) s.flags |= kSiVectorLoad;
  if (is_vector_store(op)) s.flags |= kSiVectorStore;
  if (is_vector_to_scalar(op)) s.flags |= kSiVectorToScalar;
  if (op == Op::kEbreak || op == Op::kEcall) s.flags |= kSiHalt;
  if (op == Op::kMarker) s.flags |= kSiMarker;
  if (reads_x_rs1(inst)) s.flags |= kSiReadsXRs1;
  if (reads_x_rs2(inst)) s.flags |= kSiReadsXRs2;
  if (reads_f_rs1(inst)) s.flags |= kSiReadsFRs1;
  if (op == Op::kFsw) s.flags |= kSiReadsFRs2;
  if (writes_x(inst)) s.flags |= kSiWritesX;
  if (writes_f(inst)) s.flags |= kSiWritesF;
  if (writes_v(inst)) s.flags |= kSiWritesV;
  if (op == Op::kVluxei32) s.flags |= kSiGather;
  const bool packed_mac = op == Op::kVindexmacpVx || op == Op::kVfindexmacpVx ||
                          op == Op::kVindexmac2Vx || op == Op::kVfindexmac2Vx;
  if (op == Op::kVindexmacVx || op == Op::kVfindexmacVx || packed_mac)
    s.flags |= kSiIndirectVreg;
  if (packed_mac) s.flags |= kSiPackedIndex;
  if (op == Op::kVindexmac2Vx || op == Op::kVfindexmac2Vx) s.flags |= kSiDualMac;
  const bool ssr_mac = op == Op::kVindexmacsV || op == Op::kVfindexmacsV;
  if (ssr_mac) s.flags |= kSiSsrMac;
  if (op == Op::kSsrCfg || op == Op::kSsrEn) s.flags |= kSiSsrCtl;
  if (op == Op::kVmaccVx || op == Op::kVfmaccVf || op == Op::kVindexmacVx ||
      op == Op::kVfindexmacVx || packed_mac || ssr_mac)
    s.flags |= kSiVectorMac;

  if (s.has(kSiScalarLoad | kSiScalarStore))
    s.scalar_mem_bytes = (op == Op::kLd || op == Op::kSd) ? 8 : 4;
  s.vreg_reads = vector_reads_of(op);
  s.vlat = latency_class_of(op);
  // Every non-memory vector op must carry an engine latency class; a new
  // vector op missing from latency_class_of() would otherwise be silently
  // mis-timed as kNone. Fails loudly when the timing model binds the slot.
  IMAC_ASSERT(!s.has(kSiVector) || s.has(kSiVectorLoad | kSiVectorStore) ||
                  s.vlat != VLatClass::kNone,
              "predecode: vector op missing a latency class: " + mnemonic(op));
  return s;
}

}  // namespace indexmac::isa
