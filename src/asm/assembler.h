// Programmatic assembler: a type-safe builder that kernel code generators
// use to emit instruction streams, with label-based branch fixup.
//
// This replaces the paper's GNU-toolchain modification: vindexmac is a
// first-class instruction here.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "asm/program.h"
#include "isa/isa.h"

namespace indexmac {

/// Strongly-typed register handles so x/f/v files cannot be confused.
struct XReg {
  std::uint8_t num = 0;
};
struct FReg {
  std::uint8_t num = 0;
};
struct VReg {
  std::uint8_t num = 0;
};

[[nodiscard]] XReg x(unsigned n);  ///< x0..x31; throws if out of range
[[nodiscard]] FReg f(unsigned n);  ///< f0..f31
[[nodiscard]] VReg v(unsigned n);  ///< v0..v31

/// Builder for Program objects. Typical use:
///
///   Assembler a;
///   auto loop = a.new_label();
///   a.bind(loop);
///   a.vle32(v(1), x(5));
///   a.addi(x(5), x(5), 64);
///   a.bne(x(5), x(6), loop);
///   a.ebreak();
///   Program p = a.finish(0x1000);
class Assembler {
 public:
  /// Opaque label handle; forward references are allowed.
  struct Label {
    int id = -1;
  };

  [[nodiscard]] Label new_label();
  /// Binds `label` to the current position. Each label binds exactly once.
  void bind(Label label);

  /// Emits any instruction; for a branch or jal, `target` sets its
  /// pc-relative offset at finish(). The typed methods below all end here.
  void emit(const isa::Instruction& inst, std::optional<Label> target = std::nullopt);

  // --- RV64I / M / F subset ---
  void lui(XReg rd, std::int32_t imm20);
  void auipc(XReg rd, std::int32_t imm20);
  void jal(XReg rd, Label target);
  void jalr(XReg rd, XReg rs1, std::int32_t imm);
  void beq(XReg rs1, XReg rs2, Label target);
  void bne(XReg rs1, XReg rs2, Label target);
  void blt(XReg rs1, XReg rs2, Label target);
  void bge(XReg rs1, XReg rs2, Label target);
  void bltu(XReg rs1, XReg rs2, Label target);
  void bgeu(XReg rs1, XReg rs2, Label target);
  void lw(XReg rd, XReg rs1, std::int32_t imm);
  void lwu(XReg rd, XReg rs1, std::int32_t imm);
  void ld(XReg rd, XReg rs1, std::int32_t imm);
  void sw(XReg rs2, XReg rs1, std::int32_t imm);
  void sd(XReg rs2, XReg rs1, std::int32_t imm);
  void flw(FReg rd, XReg rs1, std::int32_t imm);
  void fsw(FReg rs2, XReg rs1, std::int32_t imm);
  void addi(XReg rd, XReg rs1, std::int32_t imm);
  void slti(XReg rd, XReg rs1, std::int32_t imm);
  void sltiu(XReg rd, XReg rs1, std::int32_t imm);
  void xori(XReg rd, XReg rs1, std::int32_t imm);
  void ori(XReg rd, XReg rs1, std::int32_t imm);
  void andi(XReg rd, XReg rs1, std::int32_t imm);
  void slli(XReg rd, XReg rs1, unsigned shamt);
  void srli(XReg rd, XReg rs1, unsigned shamt);
  void srai(XReg rd, XReg rs1, unsigned shamt);
  void add(XReg rd, XReg rs1, XReg rs2);
  void sub(XReg rd, XReg rs1, XReg rs2);
  void sll(XReg rd, XReg rs1, XReg rs2);
  void slt(XReg rd, XReg rs1, XReg rs2);
  void sltu(XReg rd, XReg rs1, XReg rs2);
  void xor_(XReg rd, XReg rs1, XReg rs2);
  void srl(XReg rd, XReg rs1, XReg rs2);
  void sra(XReg rd, XReg rs1, XReg rs2);
  void or_(XReg rd, XReg rs1, XReg rs2);
  void and_(XReg rd, XReg rs1, XReg rs2);
  void mul(XReg rd, XReg rs1, XReg rs2);
  void ecall();
  void ebreak();
  /// Simulation marker; the timing model records its commit cycle and a
  /// statistics snapshot under `id`.
  void marker(std::int32_t id);

  // --- RVV subset (SEW=32, LMUL=1, unmasked) ---
  /// vsetvli rd, rs1, e32m1: vl = min(VLMAX, x[rs1]); x[rd] = vl.
  void vsetvli_e32m1(XReg rd, XReg rs1);
  void vle32(VReg vd, XReg rs1);
  void vse32(VReg vs3, XReg rs1);
  void vadd_vx(VReg vd, VReg vs2, XReg rs1);
  void vadd_vi(VReg vd, VReg vs2, std::int32_t simm5);
  void vmacc_vx(VReg vd, XReg rs1, VReg vs2);
  void vfmacc_vf(VReg vd, FReg rs1, VReg vs2);
  void vmv_v_i(VReg vd, std::int32_t simm5);
  void vmv_x_s(XReg rd, VReg vs2);
  void vfmv_f_s(FReg rd, VReg vs2);
  void vslidedown_vi(VReg vd, VReg vs2, std::int32_t uimm5);
  void vslide1down_vx(VReg vd, VReg vs2, XReg rs1);
  /// Custom: vd[i] += (int32) vs2[0] * (int32) VRF[x[rs1] & 31][i].
  void vindexmac_vx(VReg vd, VReg vs2, XReg rs1);
  /// Custom: vd[i] += (fp32) vs2[0] * (fp32) VRF[x[rs1] & 31][i].
  void vfindexmac_vx(VReg vd, VReg vs2, XReg rs1);
  /// Packed-index variants: vd[i] += vs2[0] * VRF[16 | (x[rs1] & 0xf)][i].
  void vindexmacp_vx(VReg vd, VReg vs2, XReg rs1);
  void vfindexmacp_vx(VReg vd, VReg vs2, XReg rs1);
  /// Dual-row variants: two back-to-back packed MACs per issue —
  /// vd[i] += vs2[0] * VRF[16 | (x[rs1] & 0xf)][i], then
  /// vd[i] += vs2[1] * VRF[16 | ((x[rs1] >> 4) & 0xf)][i].
  void vindexmac2_vx(VReg vd, VReg vs2, XReg rs1);
  void vfindexmac2_vx(VReg vd, VReg vs2, XReg rs1);
  /// SSR stream config: stream `sid` (0..3) reads from base x[rs1] and
  /// wraps after x[rs2] 32-bit words; resets the stream position.
  void ssrcfg(unsigned sid, XReg rs1, XReg rs2);
  /// Enables the streams in the low 4 bits of x[rs1] (rewinding each to its
  /// base) and disables the rest; `ssren(x(0))` disables all streams.
  void ssren(XReg rs1);
  /// Streaming MAC: vd[i] += stream0.pop() * VRF[stream1.pop() & 0x1f][i].
  void vindexmacs_v(VReg vd);
  void vfindexmacs_v(VReg vd);

  // --- pseudo-instructions ---
  /// Loads any 32-bit signed constant (addi, or lui+addi pair).
  void li(XReg rd, std::int64_t value);
  void mv(XReg rd, XReg rs1);
  void nop();
  void j(Label target);

  /// Resolves all labels and produces the program at `base`.
  /// The assembler must not be reused afterwards.
  [[nodiscard]] Program finish(std::uint64_t base = 0x1000);

 private:
  struct Fixup {
    std::size_t index;  ///< instruction slot to patch
    int label_id;
  };

  std::vector<isa::Instruction> insts_;
  std::vector<std::int64_t> label_pos_;  ///< instruction index or -1
  std::vector<Fixup> fixups_;
  bool finished_ = false;
};

}  // namespace indexmac
