#include "fsim/machine.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/error.h"
#include "isa/encoding.h"

namespace indexmac {

using isa::Instruction;
using isa::kVlMax;
using isa::Op;

namespace {

float bits_to_f32(std::uint32_t raw) {
  float out;
  std::memcpy(&out, &raw, sizeof out);
  return out;
}

std::uint32_t f32_to_bits(float value) {
  std::uint32_t raw;
  std::memcpy(&raw, &value, sizeof raw);
  return raw;
}

}  // namespace

float ArchState::velem_f32(unsigned reg, unsigned lane) const { return bits_to_f32(v[reg][lane]); }

std::string describe_pc(const Program& program, std::uint64_t pc) {
  char head[32];
  std::snprintf(head, sizeof head, "pc 0x%llx", static_cast<unsigned long long>(pc));
  if (!program.contains(pc)) {
    char range[80];
    std::snprintf(range, sizeof range, " (outside program [0x%llx, 0x%llx))",
                  static_cast<unsigned long long>(program.base()),
                  static_cast<unsigned long long>(program.end()));
    return std::string(head) + range;
  }
  return std::string(head) + " (`" + isa::disassemble(program.at(pc)) + "`)";
}

/// The per-op handlers and their binder. Each handler executes one bound
/// slot against the machine's architectural state and returns the next pc;
/// Machine::step owns the pc update, the x0 clear and the retired count.
struct Machine::Exec {
  using H = std::uint64_t (*)(Machine&, const Slot&);

  // ---- scalar ------------------------------------------------------------

  // ebreak/ecall (the stop reason is bound into the slot) and marker,
  // which changes no architectural state: the timing model reads its id.
  static std::uint64_t nop(Machine&, const Slot& o) { return o.next; }

  static std::uint64_t lui_auipc(Machine& m, const Slot& o) {
    m.state_.x[o.rd] = o.target;
    return o.next;
  }
  static std::uint64_t jal(Machine& m, const Slot& o) {
    m.state_.x[o.rd] = o.next;
    return o.target;
  }
  static std::uint64_t jalr(Machine& m, const Slot& o) {
    const std::uint64_t target = (m.state_.x[o.rs1] + static_cast<std::uint64_t>(o.imm)) & ~1ull;
    m.state_.x[o.rd] = o.next;
    return target;
  }

  static std::uint64_t beq(Machine& m, const Slot& o) {
    return m.state_.x[o.rs1] == m.state_.x[o.rs2] ? o.target : o.next;
  }
  static std::uint64_t bne(Machine& m, const Slot& o) {
    return m.state_.x[o.rs1] != m.state_.x[o.rs2] ? o.target : o.next;
  }
  static std::uint64_t blt(Machine& m, const Slot& o) {
    return sx(m, o.rs1) < sx(m, o.rs2) ? o.target : o.next;
  }
  static std::uint64_t bge(Machine& m, const Slot& o) {
    return sx(m, o.rs1) >= sx(m, o.rs2) ? o.target : o.next;
  }
  static std::uint64_t bltu(Machine& m, const Slot& o) {
    return m.state_.x[o.rs1] < m.state_.x[o.rs2] ? o.target : o.next;
  }
  static std::uint64_t bgeu(Machine& m, const Slot& o) {
    return m.state_.x[o.rs1] >= m.state_.x[o.rs2] ? o.target : o.next;
  }

  static std::uint64_t lw(Machine& m, const Slot& o) {
    m.state_.x[o.rd] = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(static_cast<std::int32_t>(m.memory_.read_u32(addr<4>(m, o)))));
    return o.next;
  }
  static std::uint64_t lwu(Machine& m, const Slot& o) {
    m.state_.x[o.rd] = m.memory_.read_u32(addr<4>(m, o));
    return o.next;
  }
  static std::uint64_t ld(Machine& m, const Slot& o) {
    m.state_.x[o.rd] = m.memory_.read_u64(addr<8>(m, o));
    return o.next;
  }
  static std::uint64_t sw(Machine& m, const Slot& o) {
    m.memory_.write_u32(addr<4>(m, o), static_cast<std::uint32_t>(m.state_.x[o.rs2]));
    return o.next;
  }
  static std::uint64_t sd(Machine& m, const Slot& o) {
    m.memory_.write_u64(addr<8>(m, o), m.state_.x[o.rs2]);
    return o.next;
  }
  static std::uint64_t flw(Machine& m, const Slot& o) {
    m.state_.f[o.rd] = m.memory_.read_u32(addr<4>(m, o));
    return o.next;
  }
  static std::uint64_t fsw(Machine& m, const Slot& o) {
    m.memory_.write_u32(addr<4>(m, o), m.state_.f[o.rs2]);
    return o.next;
  }

  /// x[rd] = f(x[rs1], operand): the register-immediate ALU ops take the
  /// sign-extended immediate, the register-register ones x[rs2].
  template <std::uint64_t (*F)(std::uint64_t, std::uint64_t)>
  static std::uint64_t alu_imm(Machine& m, const Slot& o) {
    m.state_.x[o.rd] = F(m.state_.x[o.rs1], static_cast<std::uint64_t>(o.imm));
    return o.next;
  }
  template <std::uint64_t (*F)(std::uint64_t, std::uint64_t)>
  static std::uint64_t alu_reg(Machine& m, const Slot& o) {
    m.state_.x[o.rd] = F(m.state_.x[o.rs1], m.state_.x[o.rs2]);
    return o.next;
  }
  static std::uint64_t add(std::uint64_t a, std::uint64_t b) { return a + b; }
  static std::uint64_t sub(std::uint64_t a, std::uint64_t b) { return a - b; }
  static std::uint64_t mul(std::uint64_t a, std::uint64_t b) { return a * b; }
  static std::uint64_t xor_(std::uint64_t a, std::uint64_t b) { return a ^ b; }
  static std::uint64_t or_(std::uint64_t a, std::uint64_t b) { return a | b; }
  static std::uint64_t and_(std::uint64_t a, std::uint64_t b) { return a & b; }
  static std::uint64_t slt(std::uint64_t a, std::uint64_t b) {
    return static_cast<std::int64_t>(a) < static_cast<std::int64_t>(b) ? 1 : 0;
  }
  static std::uint64_t sltu(std::uint64_t a, std::uint64_t b) { return a < b ? 1 : 0; }
  // Shift amounts: immediates are 0..63 by encoding; registers use bits 5:0.
  static std::uint64_t sll(std::uint64_t a, std::uint64_t b) { return a << (b & 63); }
  static std::uint64_t srl(std::uint64_t a, std::uint64_t b) { return a >> (b & 63); }
  static std::uint64_t sra(std::uint64_t a, std::uint64_t b) {
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(a) >> (b & 63));
  }

  // ---- vector ------------------------------------------------------------

  static std::uint64_t vsetvli(Machine& m, const Slot& o) {
    ArchState& st = m.state_;
    // AVL: x[rs1], or "as large as possible" when rs1 is x0.
    const std::uint64_t avl = o.rs1 == 0 ? kVlMax : st.x[o.rs1];
    st.vl = static_cast<std::uint32_t>(std::min<std::uint64_t>(avl, kVlMax));
    st.x[o.rd] = st.vl;
    return o.next;
  }

  static std::uint64_t vle32(Machine& m, const Slot& o) {
    const std::uint64_t a = m.state_.x[o.rs1];
    m.check_range(a, 4ull * m.state_.vl);
    m.memory_.read_u32_block(a, m.state_.v[o.rd].data(), m.state_.vl);
    return o.next;
  }
  static std::uint64_t vse32(Machine& m, const Slot& o) {
    const std::uint64_t a = m.state_.x[o.rs1];
    m.check_range(a, 4ull * m.state_.vl);
    m.memory_.write_u32_block(a, m.state_.v[o.rd].data(), m.state_.vl);
    return o.next;
  }

  static std::uint64_t vadd_vx(Machine& m, const Slot& o) {
    add_scalar(m.state_, o, static_cast<std::uint32_t>(m.state_.x[o.rs1]));
    return o.next;
  }
  static std::uint64_t vadd_vi(Machine& m, const Slot& o) {
    add_scalar(m.state_, o, static_cast<std::uint32_t>(o.imm));
    return o.next;
  }
  static std::uint64_t vmv_v_i(Machine& m, const Slot& o) {
    ArchState& st = m.state_;
    const unsigned vl = st.vl;
    const auto s = static_cast<std::uint32_t>(o.imm);
    std::uint32_t* const d = st.v[o.rd].data();
    for (unsigned i = 0; i < vl; ++i) d[i] = s;
    return o.next;
  }

  static std::uint64_t vmacc_vx(Machine& m, const Slot& o) {
    mac_u(m.state_, o.rd, static_cast<std::uint32_t>(m.state_.x[o.rs1]), o.rs2);
    return o.next;
  }
  static std::uint64_t vfmacc_vf(Machine& m, const Slot& o) {
    mac_f(m.state_, o.rd, bits_to_f32(m.state_.f[o.rs1]), o.rs2);
    return o.next;
  }

  static std::uint64_t vmv_x_s(Machine& m, const Slot& o) {
    // SEW=32 source element is sign-extended into the x register.
    m.state_.x[o.rd] = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(static_cast<std::int32_t>(m.state_.v[o.rs2][0])));
    return o.next;
  }
  static std::uint64_t vfmv_f_s(Machine& m, const Slot& o) {
    m.state_.f[o.rd] = m.state_.v[o.rs2][0];
    return o.next;
  }

  /// vd[i] = vs2[i + uimm5], zero past VLMAX.
  static std::uint64_t vslidedown_vi(Machine& m, const Slot& o) {
    ArchState& st = m.state_;
    const unsigned vl = st.vl;
    const auto offset = static_cast<unsigned>(o.imm);
    const std::array<std::uint32_t, kVlMax> src = st.v[o.rs2];  // vd may alias vs2
    std::uint32_t* const d = st.v[o.rd].data();
    for (unsigned i = 0; i < vl; ++i) d[i] = i + offset < kVlMax ? src[i + offset] : 0;
    return o.next;
  }
  /// vd[i] = vs2[i + 1] below vl - 1, then vd[vl - 1] = x[rs1]. vd may be
  /// vs2: the lanes move down, so an in-place memmove is safe.
  static std::uint64_t vslide1down(Machine& m, const Slot& o) {
    ArchState& st = m.state_;
    const unsigned vl = st.vl;
    if (vl == 0) return o.next;
    std::uint32_t* const d = st.v[o.rd].data();
    std::memmove(d, st.v[o.rs2].data() + 1, 4 * (vl - 1));
    d[vl - 1] = static_cast<std::uint32_t>(st.x[o.rs1]);
    return o.next;
  }

  // The IndexMAC family. Integer forms use unsigned arithmetic: the same
  // bits as a two's-complement int32 MAC, with defined wraparound (the ISA
  // wraps modulo 2^32).

  static std::uint64_t vindexmac_u(Machine& m, const Slot& o) {
    ArchState& st = m.state_;
    mac_u(st, o.rd, st.v[o.rs2][0], static_cast<unsigned>(st.x[o.rs1] & 0x1f));
    return o.next;
  }
  static std::uint64_t vindexmac_f(Machine& m, const Slot& o) {
    ArchState& st = m.state_;
    mac_f(st, o.rd, bits_to_f32(st.v[o.rs2][0]), static_cast<unsigned>(st.x[o.rs1] & 0x1f));
    return o.next;
  }
  // Packed-index form: the nibble names a row of the upper half of the
  // register file (the B tile lives in v[32-L..31] by convention).
  static std::uint64_t vindexmacp_u(Machine& m, const Slot& o) {
    ArchState& st = m.state_;
    mac_u(st, o.rd, st.v[o.rs2][0], 16u | static_cast<unsigned>(st.x[o.rs1] & 0xf));
    return o.next;
  }
  static std::uint64_t vindexmacp_f(Machine& m, const Slot& o) {
    ArchState& st = m.state_;
    mac_f(st, o.rd, bits_to_f32(st.v[o.rs2][0]), 16u | static_cast<unsigned>(st.x[o.rs1] & 0xf));
    return o.next;
  }
  // Dual-row form: bit-identical to vindexmacp on nibble 0 followed by
  // vindexmacp on nibble 1 (values vs2[0] then vs2[1]).
  static std::uint64_t vindexmac2_u(Machine& m, const Slot& o) {
    ArchState& st = m.state_;
    const unsigned src0 = 16u | static_cast<unsigned>(st.x[o.rs1] & 0xf);
    const unsigned src1 = 16u | static_cast<unsigned>((st.x[o.rs1] >> 4) & 0xf);
    const std::uint32_t s0 = st.v[o.rs2][0];
    const std::uint32_t s1 = st.v[o.rs2][1];
    const unsigned vl = st.vl;
    std::uint32_t* const d = st.v[o.rd].data();
    const std::uint32_t* const b0 = st.v[src0].data();
    const std::uint32_t* const b1 = st.v[src1].data();  // may be vd: reads the first MAC's sum
    for (unsigned i = 0; i < vl; ++i) {
      d[i] += s0 * b0[i];
      d[i] += s1 * b1[i];
    }
    return o.next;
  }
  static std::uint64_t vindexmac2_f(Machine& m, const Slot& o) {
    ArchState& st = m.state_;
    const unsigned src0 = 16u | static_cast<unsigned>(st.x[o.rs1] & 0xf);
    const unsigned src1 = 16u | static_cast<unsigned>((st.x[o.rs1] >> 4) & 0xf);
    const float s0 = bits_to_f32(st.v[o.rs2][0]);
    const float s1 = bits_to_f32(st.v[o.rs2][1]);
    const unsigned vl = st.vl;
    std::uint32_t* const d = st.v[o.rd].data();
    const std::uint32_t* const b0 = st.v[src0].data();
    const std::uint32_t* const b1 = st.v[src1].data();  // may be vd: reads the first MAC's sum
    for (unsigned i = 0; i < vl; ++i) {
      d[i] = f32_to_bits(bits_to_f32(d[i]) + s0 * bits_to_f32(b0[i]));
      d[i] = f32_to_bits(bits_to_f32(d[i]) + s1 * bits_to_f32(b1[i]));
    }
    return o.next;
  }

  // ---- SSR streaming (Algorithm 5) ---------------------------------------

  static std::uint64_t ssrcfg(Machine& m, const Slot& o) {
    SsrStream& s = m.ssr_[o.rd];
    s.base = m.state_.x[o.rs1];
    s.count = static_cast<std::uint32_t>(m.state_.x[o.rs2]);
    s.pos = 0;
    return o.next;
  }
  static std::uint64_t ssren(Machine& m, const Slot& o) {
    // Bit s of x[rs1] enables stream s; enabling rewinds to the base so a
    // re-enable replays the window from the start.
    for (unsigned s = 0; s < 4; ++s) {
      m.ssr_[s].enabled = ((m.state_.x[o.rs1] >> s) & 1) != 0;
      if (m.ssr_[s].enabled) m.ssr_[s].pos = 0;
    }
    return o.next;
  }
  // Streaming MAC: the A value and the VRF row index arrive from the
  // address-generation state machines instead of explicit loads. Both
  // streams advance even at vl==0 (operand fetch precedes lane work).
  static std::uint64_t vindexmacs_u(Machine& m, const Slot& o) {
    const std::uint32_t scale = m.ssr_pop(0);
    const unsigned src = m.ssr_pop(1) & 0x1f;
    mac_u(m.state_, o.rd, scale, src);
    return o.next;
  }
  static std::uint64_t vindexmacs_f(Machine& m, const Slot& o) {
    const float scale = bits_to_f32(m.ssr_pop(0));
    const unsigned src = m.ssr_pop(1) & 0x1f;
    mac_f(m.state_, o.rd, scale, src);
    return o.next;
  }

  // ---- helpers ------------------------------------------------------------

  static std::int64_t sx(const Machine& m, unsigned r) {
    return static_cast<std::int64_t>(m.state_.x[r]);
  }
  /// The effective address of a `Bytes`-wide scalar access, checked
  /// against the address bound.
  template <std::uint64_t Bytes>
  static std::uint64_t addr(const Machine& m, const Slot& o) {
    const std::uint64_t a = m.state_.x[o.rs1] + static_cast<std::uint64_t>(o.imm);
    m.check_range(a, Bytes);
    return a;
  }

  // The lane loops below (and in the handlers above) read vl and the
  // register rows into locals first. ArchState::vl is a 32-bit word like
  // the lanes, so a loop that stored through st.v[rd] and tested st.vl
  // would reload vl after every lane and could not vectorize.

  /// vd[i] = vs2[i] + s over vl lanes.
  static void add_scalar(ArchState& st, const Slot& o, std::uint32_t s) {
    const unsigned vl = st.vl;
    std::uint32_t* const d = st.v[o.rd].data();
    const std::uint32_t* const a = st.v[o.rs2].data();
    for (unsigned i = 0; i < vl; ++i) d[i] = a[i] + s;
  }
  /// v[rd][i] += scale * v[src][i] over vl lanes (int32, wrapping). `src`
  /// may be rd: each lane reads its own lane before writing it.
  static void mac_u(ArchState& st, unsigned rd, std::uint32_t scale, unsigned src) {
    const unsigned vl = st.vl;
    std::uint32_t* const d = st.v[rd].data();
    const std::uint32_t* const b = st.v[src].data();
    for (unsigned i = 0; i < vl; ++i) d[i] += scale * b[i];
  }
  /// The fp32 form: v[rd][i] = v[rd][i] + scale * v[src][i].
  static void mac_f(ArchState& st, unsigned rd, float scale, unsigned src) {
    const unsigned vl = st.vl;
    std::uint32_t* const d = st.v[rd].data();
    const std::uint32_t* const b = st.v[src].data();
    for (unsigned i = 0; i < vl; ++i)
      d[i] = f32_to_bits(bits_to_f32(d[i]) + scale * bits_to_f32(b[i]));
  }

  /// Binds the instruction at `pc` to its handler with resolved operands.
  static Slot bind(const Instruction& in, std::uint64_t pc) {
    Slot s;
    s.rd = in.rd;
    s.rs1 = in.rs1;
    s.rs2 = in.rs2;
    s.imm = in.imm;
    s.next = pc + 4;
    s.target = pc + static_cast<std::uint64_t>(s.imm);  // branches and jal
    H fn = nullptr;
    switch (in.op) {
      case Op::kLui:
        s.target = static_cast<std::uint64_t>(s.imm << 12);
        fn = lui_auipc;
        break;
      case Op::kAuipc:
        s.target = pc + static_cast<std::uint64_t>(s.imm << 12);
        fn = lui_auipc;
        break;
      case Op::kJal: fn = jal; break;
      case Op::kJalr: fn = jalr; break;
      case Op::kBeq: fn = beq; break;
      case Op::kBne: fn = bne; break;
      case Op::kBlt: fn = blt; break;
      case Op::kBge: fn = bge; break;
      case Op::kBltu: fn = bltu; break;
      case Op::kBgeu: fn = bgeu; break;
      case Op::kLw: fn = lw; break;
      case Op::kLwu: fn = lwu; break;
      case Op::kLd: fn = ld; break;
      case Op::kSw: fn = sw; break;
      case Op::kSd: fn = sd; break;
      case Op::kFlw: fn = flw; break;
      case Op::kFsw: fn = fsw; break;
      case Op::kAddi: fn = alu_imm<add>; break;
      case Op::kSlti: fn = alu_imm<slt>; break;
      case Op::kSltiu: fn = alu_imm<sltu>; break;
      case Op::kXori: fn = alu_imm<xor_>; break;
      case Op::kOri: fn = alu_imm<or_>; break;
      case Op::kAndi: fn = alu_imm<and_>; break;
      case Op::kSlli: fn = alu_imm<sll>; break;
      case Op::kSrli: fn = alu_imm<srl>; break;
      case Op::kSrai: fn = alu_imm<sra>; break;
      case Op::kAdd: fn = alu_reg<add>; break;
      case Op::kSub: fn = alu_reg<sub>; break;
      case Op::kSll: fn = alu_reg<sll>; break;
      case Op::kSlt: fn = alu_reg<slt>; break;
      case Op::kSltu: fn = alu_reg<sltu>; break;
      case Op::kXor: fn = alu_reg<xor_>; break;
      case Op::kSrl: fn = alu_reg<srl>; break;
      case Op::kSra: fn = alu_reg<sra>; break;
      case Op::kOr: fn = alu_reg<or_>; break;
      case Op::kAnd: fn = alu_reg<and_>; break;
      case Op::kMul: fn = alu_reg<mul>; break;
      case Op::kEbreak:
        s.stop = StopReason::kEbreak;
        fn = nop;
        break;
      case Op::kEcall:
        s.stop = StopReason::kEcall;
        fn = nop;
        break;
      case Op::kMarker: fn = nop; break;
      case Op::kVsetvli: fn = vsetvli; break;
      case Op::kVle32: fn = vle32; break;
      case Op::kVse32: fn = vse32; break;
      case Op::kVaddVx: fn = vadd_vx; break;
      case Op::kVaddVi: fn = vadd_vi; break;
      case Op::kVmaccVx: fn = vmacc_vx; break;
      case Op::kVfmaccVf: fn = vfmacc_vf; break;
      case Op::kVmvVI: fn = vmv_v_i; break;
      case Op::kVmvXS: fn = vmv_x_s; break;
      case Op::kVfmvFS: fn = vfmv_f_s; break;
      case Op::kVslidedownVi: fn = vslidedown_vi; break;
      case Op::kVslide1downVx: fn = vslide1down; break;
      case Op::kVindexmacVx: fn = vindexmac_u; break;
      case Op::kVfindexmacVx: fn = vindexmac_f; break;
      case Op::kVindexmacpVx: fn = vindexmacp_u; break;
      case Op::kVfindexmacpVx: fn = vindexmacp_f; break;
      case Op::kVindexmac2Vx: fn = vindexmac2_u; break;
      case Op::kVfindexmac2Vx: fn = vindexmac2_f; break;
      case Op::kSsrCfg: fn = ssrcfg; break;
      case Op::kSsrEn: fn = ssren; break;
      case Op::kVindexmacsV: fn = vindexmacs_u; break;
      case Op::kVfindexmacsV: fn = vindexmacs_f; break;
      case Op::kIllegal: break;  // Program's constructor rejects these
    }
    IMAC_ASSERT(fn != nullptr, "no handler bound for " + isa::mnemonic(in.op));
    s.fn = fn;
    return s;
  }
};

Machine::Machine(const Program& program, MainMemory& memory)
    : program_(program),
      memory_(memory),
      base_(program.base()),
      code_bytes_(program.end() - program.base()) {
  slots_.reserve(program.size());
  for (std::size_t i = 0; i < program.size(); ++i)
    slots_.push_back(Exec::bind(program.decoded()[i], base_ + 4 * i));
  state_.pc = program.base();
  state_.vl = 0;
}

void Machine::left_program() const {
  raise("functional execution left the program: " + describe_pc(program_, state_.pc));
}

void Machine::address_fault(std::uint64_t addr, std::uint64_t bytes) const {
  char what[96];
  std::snprintf(what, sizeof what, "%llu bytes at 0x%llx", static_cast<unsigned long long>(bytes),
                static_cast<unsigned long long>(addr));
  raise(std::string("memory access past the 48-bit address space: ") + what + ", " +
        describe_pc(program_, state_.pc));
}

StopReason Machine::run(std::uint64_t max_steps) {
  for (std::uint64_t i = 0; i < max_steps; ++i) {
    const StopReason r = step();
    if (r != StopReason::kRunning) return r;
  }
  return StopReason::kMaxSteps;
}

std::uint32_t Machine::ssr_pop(unsigned sid) {
  SsrStream& s = ssr_[sid];
  if (!s.enabled || s.count == 0)
    raise("vindexmacs.v with stream " + std::to_string(sid) +
          (s.enabled ? " configured empty" : " disabled") + " at " +
          describe_pc(program_, state_.pc));
  const std::uint64_t addr = s.base + 4ull * s.pos;
  check_range(addr, 4);
  const std::uint32_t word = memory_.read_u32(addr);
  if (++s.pos == s.count) s.pos = 0;
  return word;
}

}  // namespace indexmac
