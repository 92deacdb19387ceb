#include "asm/assembler.h"

#include "common/bitutil.h"
#include "common/error.h"

namespace indexmac {

using isa::Instruction;
using isa::Op;

XReg x(unsigned n) {
  IMAC_CHECK(n < isa::kNumXRegs, "x register out of range");
  return XReg{static_cast<std::uint8_t>(n)};
}
FReg f(unsigned n) {
  IMAC_CHECK(n < isa::kNumFRegs, "f register out of range");
  return FReg{static_cast<std::uint8_t>(n)};
}
VReg v(unsigned n) {
  IMAC_CHECK(n < isa::kNumVRegs, "v register out of range");
  return VReg{static_cast<std::uint8_t>(n)};
}

Assembler::Label Assembler::new_label() {
  label_pos_.push_back(-1);
  return Label{static_cast<int>(label_pos_.size()) - 1};
}

void Assembler::bind(Label label) {
  IMAC_CHECK(label.id >= 0 && label.id < static_cast<int>(label_pos_.size()), "unknown label");
  IMAC_CHECK(label_pos_[label.id] < 0, "label bound twice");
  label_pos_[label.id] = static_cast<std::int64_t>(insts_.size());
}

void Assembler::emit(const Instruction& inst, std::optional<Label> target) {
  IMAC_CHECK(!finished_, "assembler already finished");
  if (target) fixups_.push_back(Fixup{insts_.size(), target->id});
  insts_.push_back(inst);
}

void Assembler::lui(XReg rd, std::int32_t imm20) { emit({Op::kLui, rd.num, 0, 0, imm20}); }
void Assembler::auipc(XReg rd, std::int32_t imm20) { emit({Op::kAuipc, rd.num, 0, 0, imm20}); }

void Assembler::jal(XReg rd, Label target) { emit({Op::kJal, rd.num, 0, 0, 0}, target); }

void Assembler::jalr(XReg rd, XReg rs1, std::int32_t imm) {
  emit({Op::kJalr, rd.num, rs1.num, 0, imm});
}

void Assembler::beq(XReg a, XReg b, Label t) { emit({Op::kBeq, 0, a.num, b.num, 0}, t); }
void Assembler::bne(XReg a, XReg b, Label t) { emit({Op::kBne, 0, a.num, b.num, 0}, t); }
void Assembler::blt(XReg a, XReg b, Label t) { emit({Op::kBlt, 0, a.num, b.num, 0}, t); }
void Assembler::bge(XReg a, XReg b, Label t) { emit({Op::kBge, 0, a.num, b.num, 0}, t); }
void Assembler::bltu(XReg a, XReg b, Label t) { emit({Op::kBltu, 0, a.num, b.num, 0}, t); }
void Assembler::bgeu(XReg a, XReg b, Label t) { emit({Op::kBgeu, 0, a.num, b.num, 0}, t); }

void Assembler::lw(XReg rd, XReg rs1, std::int32_t imm) { emit({Op::kLw, rd.num, rs1.num, 0, imm}); }
void Assembler::lwu(XReg rd, XReg rs1, std::int32_t imm) { emit({Op::kLwu, rd.num, rs1.num, 0, imm}); }
void Assembler::ld(XReg rd, XReg rs1, std::int32_t imm) { emit({Op::kLd, rd.num, rs1.num, 0, imm}); }
void Assembler::sw(XReg rs2, XReg rs1, std::int32_t imm) { emit({Op::kSw, 0, rs1.num, rs2.num, imm}); }
void Assembler::sd(XReg rs2, XReg rs1, std::int32_t imm) { emit({Op::kSd, 0, rs1.num, rs2.num, imm}); }
void Assembler::flw(FReg rd, XReg rs1, std::int32_t imm) { emit({Op::kFlw, rd.num, rs1.num, 0, imm}); }
void Assembler::fsw(FReg rs2, XReg rs1, std::int32_t imm) { emit({Op::kFsw, 0, rs1.num, rs2.num, imm}); }

void Assembler::addi(XReg rd, XReg rs1, std::int32_t imm) { emit({Op::kAddi, rd.num, rs1.num, 0, imm}); }
void Assembler::slti(XReg rd, XReg rs1, std::int32_t imm) { emit({Op::kSlti, rd.num, rs1.num, 0, imm}); }
void Assembler::sltiu(XReg rd, XReg rs1, std::int32_t imm) { emit({Op::kSltiu, rd.num, rs1.num, 0, imm}); }
void Assembler::xori(XReg rd, XReg rs1, std::int32_t imm) { emit({Op::kXori, rd.num, rs1.num, 0, imm}); }
void Assembler::ori(XReg rd, XReg rs1, std::int32_t imm) { emit({Op::kOri, rd.num, rs1.num, 0, imm}); }
void Assembler::andi(XReg rd, XReg rs1, std::int32_t imm) { emit({Op::kAndi, rd.num, rs1.num, 0, imm}); }

void Assembler::slli(XReg rd, XReg rs1, unsigned shamt) {
  IMAC_CHECK(shamt < 64, "shift amount out of range");
  emit({Op::kSlli, rd.num, rs1.num, 0, static_cast<std::int32_t>(shamt)});
}
void Assembler::srli(XReg rd, XReg rs1, unsigned shamt) {
  IMAC_CHECK(shamt < 64, "shift amount out of range");
  emit({Op::kSrli, rd.num, rs1.num, 0, static_cast<std::int32_t>(shamt)});
}
void Assembler::srai(XReg rd, XReg rs1, unsigned shamt) {
  IMAC_CHECK(shamt < 64, "shift amount out of range");
  emit({Op::kSrai, rd.num, rs1.num, 0, static_cast<std::int32_t>(shamt)});
}

void Assembler::add(XReg rd, XReg rs1, XReg rs2) { emit({Op::kAdd, rd.num, rs1.num, rs2.num, 0}); }
void Assembler::sub(XReg rd, XReg rs1, XReg rs2) { emit({Op::kSub, rd.num, rs1.num, rs2.num, 0}); }
void Assembler::sll(XReg rd, XReg rs1, XReg rs2) { emit({Op::kSll, rd.num, rs1.num, rs2.num, 0}); }
void Assembler::slt(XReg rd, XReg rs1, XReg rs2) { emit({Op::kSlt, rd.num, rs1.num, rs2.num, 0}); }
void Assembler::sltu(XReg rd, XReg rs1, XReg rs2) { emit({Op::kSltu, rd.num, rs1.num, rs2.num, 0}); }
void Assembler::xor_(XReg rd, XReg rs1, XReg rs2) { emit({Op::kXor, rd.num, rs1.num, rs2.num, 0}); }
void Assembler::srl(XReg rd, XReg rs1, XReg rs2) { emit({Op::kSrl, rd.num, rs1.num, rs2.num, 0}); }
void Assembler::sra(XReg rd, XReg rs1, XReg rs2) { emit({Op::kSra, rd.num, rs1.num, rs2.num, 0}); }
void Assembler::or_(XReg rd, XReg rs1, XReg rs2) { emit({Op::kOr, rd.num, rs1.num, rs2.num, 0}); }
void Assembler::and_(XReg rd, XReg rs1, XReg rs2) { emit({Op::kAnd, rd.num, rs1.num, rs2.num, 0}); }
void Assembler::mul(XReg rd, XReg rs1, XReg rs2) { emit({Op::kMul, rd.num, rs1.num, rs2.num, 0}); }

void Assembler::ecall() { emit({Op::kEcall, 0, 0, 0, 0}); }
void Assembler::ebreak() { emit({Op::kEbreak, 0, 0, 0, 0}); }
void Assembler::marker(std::int32_t id) {
  IMAC_CHECK(id >= 0 && id < 4096, "marker id must fit 12 bits");
  emit({Op::kMarker, 0, 0, 0, id});
}

void Assembler::vsetvli_e32m1(XReg rd, XReg rs1) {
  emit({Op::kVsetvli, rd.num, rs1.num, 0, isa::kVtypeE32M1});
}
void Assembler::vle32(VReg vd, XReg rs1) { emit({Op::kVle32, vd.num, rs1.num, 0, 0}); }
void Assembler::vse32(VReg vs3, XReg rs1) { emit({Op::kVse32, vs3.num, rs1.num, 0, 0}); }
void Assembler::vadd_vx(VReg vd, VReg vs2, XReg rs1) {
  emit({Op::kVaddVx, vd.num, rs1.num, vs2.num, 0});
}
void Assembler::vadd_vi(VReg vd, VReg vs2, std::int32_t simm5) {
  emit({Op::kVaddVi, vd.num, 0, vs2.num, simm5});
}
void Assembler::vmacc_vx(VReg vd, XReg rs1, VReg vs2) {
  emit({Op::kVmaccVx, vd.num, rs1.num, vs2.num, 0});
}
void Assembler::vfmacc_vf(VReg vd, FReg rs1, VReg vs2) {
  emit({Op::kVfmaccVf, vd.num, rs1.num, vs2.num, 0});
}
void Assembler::vmv_v_i(VReg vd, std::int32_t simm5) { emit({Op::kVmvVI, vd.num, 0, 0, simm5}); }
void Assembler::vmv_x_s(XReg rd, VReg vs2) { emit({Op::kVmvXS, rd.num, 0, vs2.num, 0}); }
void Assembler::vfmv_f_s(FReg rd, VReg vs2) { emit({Op::kVfmvFS, rd.num, 0, vs2.num, 0}); }
void Assembler::vslidedown_vi(VReg vd, VReg vs2, std::int32_t uimm5) {
  IMAC_CHECK(uimm5 >= 0 && uimm5 < 32, "vslidedown.vi offset must fit uimm5");
  emit({Op::kVslidedownVi, vd.num, 0, vs2.num, uimm5});
}
void Assembler::vslide1down_vx(VReg vd, VReg vs2, XReg rs1) {
  emit({Op::kVslide1downVx, vd.num, rs1.num, vs2.num, 0});
}
void Assembler::vindexmac_vx(VReg vd, VReg vs2, XReg rs1) {
  emit({Op::kVindexmacVx, vd.num, rs1.num, vs2.num, 0});
}
void Assembler::vfindexmac_vx(VReg vd, VReg vs2, XReg rs1) {
  emit({Op::kVfindexmacVx, vd.num, rs1.num, vs2.num, 0});
}
void Assembler::vindexmacp_vx(VReg vd, VReg vs2, XReg rs1) {
  emit({Op::kVindexmacpVx, vd.num, rs1.num, vs2.num, 0});
}
void Assembler::vfindexmacp_vx(VReg vd, VReg vs2, XReg rs1) {
  emit({Op::kVfindexmacpVx, vd.num, rs1.num, vs2.num, 0});
}
void Assembler::vindexmac2_vx(VReg vd, VReg vs2, XReg rs1) {
  emit({Op::kVindexmac2Vx, vd.num, rs1.num, vs2.num, 0});
}
void Assembler::vfindexmac2_vx(VReg vd, VReg vs2, XReg rs1) {
  emit({Op::kVfindexmac2Vx, vd.num, rs1.num, vs2.num, 0});
}
void Assembler::ssrcfg(unsigned sid, XReg rs1, XReg rs2) {
  IMAC_CHECK(sid < 4, "ssrcfg stream id must be in 0..3");
  emit({Op::kSsrCfg, static_cast<std::uint8_t>(sid), rs1.num, rs2.num, 0});
}
void Assembler::ssren(XReg rs1) { emit({Op::kSsrEn, 0, rs1.num, 0, 0}); }
void Assembler::vindexmacs_v(VReg vd) { emit({Op::kVindexmacsV, vd.num, 0, 0, 0}); }
void Assembler::vfindexmacs_v(VReg vd) { emit({Op::kVfindexmacsV, vd.num, 0, 0, 0}); }

void Assembler::li(XReg rd, std::int64_t value) {
  IMAC_CHECK(fits_signed(value, 32), "li supports 32-bit signed constants only");
  if (fits_signed(value, 12)) {
    addi(rd, x(0), static_cast<std::int32_t>(value));
    return;
  }
  // Standard lui+addi materialization: hi compensates for addi sign extension.
  const auto v32 = static_cast<std::int32_t>(value);
  const std::int32_t lo = static_cast<std::int32_t>(sign_extend(v32 & 0xfff, 12));
  const auto hi =
      static_cast<std::int32_t>(sign_extend((static_cast<std::uint32_t>(v32 - lo) >> 12), 20));
  lui(rd, hi);
  if (lo != 0) addi(rd, rd, lo);
}

void Assembler::mv(XReg rd, XReg rs1) { addi(rd, rs1, 0); }
void Assembler::nop() { addi(x(0), x(0), 0); }
void Assembler::j(Label target) { jal(x(0), target); }

Program Assembler::finish(std::uint64_t base) {
  IMAC_CHECK(!finished_, "assembler already finished");
  finished_ = true;
  for (const Fixup& fx : fixups_) {
    IMAC_CHECK(fx.label_id >= 0 && fx.label_id < static_cast<int>(label_pos_.size()),
               "fixup references unknown label");
    const std::int64_t target = label_pos_[fx.label_id];
    IMAC_CHECK(target >= 0, "label used but never bound");
    const std::int64_t offset = (target - static_cast<std::int64_t>(fx.index)) * 4;
    insts_[fx.index].imm = static_cast<std::int32_t>(offset);
  }
  std::vector<std::uint32_t> words;
  words.reserve(insts_.size());
  for (const isa::Instruction& inst : insts_) words.push_back(isa::encode(inst));
  return Program(base, std::move(words));
}

}  // namespace indexmac
