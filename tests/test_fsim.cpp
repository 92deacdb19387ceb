#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <sstream>
#include <type_traits>

#include "asm/assembler.h"
#include "asm/text_assembler.h"
#include "common/error.h"
#include "fsim/machine.h"
#include "isa/encoding.h"
#include "isa/static_info.h"
#include "timing/timing_sim.h"

namespace indexmac {
namespace {

// The machine keeps a reference to its Program, so a temporary one must not
// compile: Machine(assemble_text(src), mem) would dangle.
static_assert(!std::is_constructible_v<Machine, Program&&, MainMemory&>);
static_assert(std::is_constructible_v<Machine, const Program&, MainMemory&>);

/// Runs `body` (already containing ebreak) and returns the machine.
struct SimRun {
  MainMemory mem;
  std::unique_ptr<Machine> machine;
  Program program;

  explicit SimRun(Assembler& a) : program(a.finish()) {
    machine = std::make_unique<Machine>(program, mem);
  }
  StopReason go(std::uint64_t max_steps = 1'000'000) { return machine->run(max_steps); }
  [[nodiscard]] const ArchState& state() const { return machine->state(); }
};

TEST(Fsim, ArithmeticAndHalt) {
  Assembler a;
  a.li(x(1), 20);
  a.li(x(2), 22);
  a.add(x(3), x(1), x(2));
  a.ebreak();
  SimRun r(a);
  EXPECT_EQ(r.go(), StopReason::kEbreak);
  EXPECT_EQ(r.state().x[3], 42u);
}

TEST(Fsim, X0IsHardwiredZero) {
  Assembler a;
  a.li(x(0), 99);
  a.add(x(1), x(0), x(0));
  a.ebreak();
  SimRun r(a);
  r.go();
  EXPECT_EQ(r.state().x[0], 0u);
  EXPECT_EQ(r.state().x[1], 0u);
}

TEST(Fsim, SignedArithmeticAndComparisons) {
  Assembler a;
  a.li(x(1), -5);
  a.li(x(2), 3);
  a.slt(x(3), x(1), x(2));   // -5 < 3 -> 1
  a.sltu(x(4), x(1), x(2));  // huge unsigned < 3 -> 0
  a.sub(x(5), x(2), x(1));   // 3 - (-5) = 8
  a.mul(x(6), x(1), x(2));   // -15
  a.sra(x(7), x(1), x(2));   // -5 >> 3 = -1
  a.ebreak();
  SimRun r(a);
  r.go();
  EXPECT_EQ(r.state().x[3], 1u);
  EXPECT_EQ(r.state().x[4], 0u);
  EXPECT_EQ(r.state().x[5], 8u);
  EXPECT_EQ(static_cast<std::int64_t>(r.state().x[6]), -15);
  EXPECT_EQ(static_cast<std::int64_t>(r.state().x[7]), -1);
}

TEST(Fsim, LoadStoreWidths) {
  Assembler a;
  a.li(x(1), 0x1000);
  a.li(x(2), -2);           // 0xfffffffffffffffe
  a.sw(x(2), x(1), 0);      // stores 0xfffffffe
  a.lw(x(3), x(1), 0);      // sign-extends
  a.lwu(x(4), x(1), 0);     // zero-extends
  a.sd(x(2), x(1), 8);
  a.ld(x(5), x(1), 8);
  a.ebreak();
  SimRun r(a);
  r.go();
  EXPECT_EQ(static_cast<std::int64_t>(r.state().x[3]), -2);
  EXPECT_EQ(r.state().x[4], 0xfffffffeu);
  EXPECT_EQ(static_cast<std::int64_t>(r.state().x[5]), -2);
}

TEST(Fsim, BranchLoopSumsIntegers) {
  Assembler a;
  a.li(x(1), 10);   // counter
  a.li(x(2), 0);    // sum
  auto loop = a.new_label();
  a.bind(loop);
  a.add(x(2), x(2), x(1));
  a.addi(x(1), x(1), -1);
  a.bne(x(1), x(0), loop);
  a.ebreak();
  SimRun r(a);
  EXPECT_EQ(r.go(), StopReason::kEbreak);
  EXPECT_EQ(r.state().x[2], 55u);
}

TEST(Fsim, JalAndJalrLinkCorrectly) {
  Assembler a;
  auto func = a.new_label();
  a.jal(x(1), func);        // call
  a.li(x(10), 111);         // executed after return
  a.ebreak();
  a.bind(func);
  a.li(x(11), 222);
  a.jalr(x(0), x(1), 0);    // return
  SimRun r(a);
  r.go();
  EXPECT_EQ(r.state().x[10], 111u);
  EXPECT_EQ(r.state().x[11], 222u);
}

TEST(Fsim, EcallStops) {
  Assembler a;
  a.ecall();
  SimRun r(a);
  EXPECT_EQ(r.go(), StopReason::kEcall);
}

TEST(Fsim, MaxStepsStops) {
  Assembler a;
  auto loop = a.new_label();
  a.bind(loop);
  a.j(loop);
  SimRun r(a);
  EXPECT_EQ(r.go(100), StopReason::kMaxSteps);
}

TEST(Fsim, MarkersRetireAsArchitecturalNoOps) {
  // A marker tags a kernel phase for the timing model: it retires like any
  // instruction and changes nothing else.
  Assembler plain, marked;
  for (Assembler* a : {&plain, &marked}) {
    a->li(x(1), 7);
    if (a == &marked) a->marker(3);
    a->vsetvli_e32m1(x(2), x(1));
    a->vmv_v_i(v(1), 7);
    if (a == &marked) a->marker(9);
    a->addi(x(3), x(1), 5);
    a->ebreak();
  }
  SimRun p(plain), m(marked);
  EXPECT_EQ(p.go(), StopReason::kEbreak);
  EXPECT_EQ(m.go(), StopReason::kEbreak);
  EXPECT_EQ(m.machine->instructions_retired(), p.machine->instructions_retired() + 2);
  EXPECT_EQ(m.state().pc, p.state().pc + 8);
  EXPECT_EQ(m.state().x, p.state().x);
  EXPECT_EQ(m.state().f, p.state().f);
  EXPECT_EQ(m.state().v, p.state().v);
  EXPECT_EQ(m.state().vl, p.state().vl);
  EXPECT_EQ(m.state().x[3], 12u);
}

TEST(Fsim, VsetvliClampsToVlmax) {
  Assembler a;
  a.li(x(1), 100);
  a.vsetvli_e32m1(x(2), x(1));
  a.ebreak();
  SimRun r(a);
  r.go();
  EXPECT_EQ(r.state().vl, isa::kVlMax);
  EXPECT_EQ(r.state().x[2], isa::kVlMax);
}

TEST(Fsim, VsetvliPartialVl) {
  Assembler a;
  a.li(x(1), 5);
  a.vsetvli_e32m1(x(2), x(1));
  a.ebreak();
  SimRun r(a);
  r.go();
  EXPECT_EQ(r.state().vl, 5u);
}

TEST(Fsim, VectorLoadStoreRoundTrip) {
  Assembler a;
  a.li(x(1), 16);
  a.vsetvli_e32m1(x(0), x(1));
  a.li(x(2), 0x1000);
  a.li(x(3), 0x2000);
  a.vle32(v(1), x(2));
  a.vse32(v(1), x(3));
  a.ebreak();
  SimRun r(a);
  std::vector<std::int32_t> data(16);
  for (int i = 0; i < 16; ++i) data[i] = i * 3 - 7;
  r.mem.write_i32s(0x1000, data);
  r.go();
  EXPECT_EQ(r.mem.read_i32s(0x2000, 16), data);
}

TEST(Fsim, VectorLoadRespectsVl) {
  Assembler a;
  a.li(x(1), 4);
  a.vsetvli_e32m1(x(0), x(1));
  a.li(x(2), 0x1000);
  a.vle32(v(1), x(2));
  a.ebreak();
  SimRun r(a);
  std::vector<std::int32_t> data(16, 5);
  r.mem.write_i32s(0x1000, data);
  r.go();
  EXPECT_EQ(r.state().v[1][3], 5u);
  EXPECT_EQ(r.state().v[1][4], 0u);  // untouched beyond vl
}

TEST(Fsim, VaddVxAddsScalar) {
  Assembler a;
  a.li(x(1), 16);
  a.vsetvli_e32m1(x(0), x(1));
  a.li(x(2), 0x1000);
  a.vle32(v(1), x(2));
  a.li(x(3), 100);
  a.vadd_vx(v(2), v(1), x(3));
  a.ebreak();
  SimRun r(a);
  std::vector<std::int32_t> data(16);
  for (int i = 0; i < 16; ++i) data[i] = i;
  r.mem.write_i32s(0x1000, data);
  r.go();
  for (unsigned i = 0; i < 16; ++i) EXPECT_EQ(r.state().v[2][i], i + 100);
}

TEST(Fsim, VmaccVxAccumulates) {
  Assembler a;
  a.li(x(1), 16);
  a.vsetvli_e32m1(x(0), x(1));
  a.li(x(2), 0x1000);
  a.vle32(v(1), x(2));   // v1 = data
  a.vmv_v_i(v(2), 1);    // v2 = 1
  a.li(x(3), 10);
  a.vmacc_vx(v(2), x(3), v(1));  // v2 += 10 * v1
  a.ebreak();
  SimRun r(a);
  std::vector<std::int32_t> data(16);
  for (int i = 0; i < 16; ++i) data[i] = i;
  r.mem.write_i32s(0x1000, data);
  r.go();
  for (unsigned i = 0; i < 16; ++i) EXPECT_EQ(r.state().v[2][i], 1 + 10 * i);
}

TEST(Fsim, VfmaccVfAccumulatesFloats) {
  Assembler a;
  a.li(x(1), 16);
  a.vsetvli_e32m1(x(0), x(1));
  a.li(x(2), 0x1000);
  a.li(x(4), 0x2000);
  a.vle32(v(1), x(2));
  a.vmv_v_i(v(2), 0);
  a.flw(f(1), x(4), 0);
  a.vfmacc_vf(v(2), f(1), v(1));
  a.ebreak();
  SimRun r(a);
  std::vector<float> data(16);
  for (int i = 0; i < 16; ++i) data[i] = 0.5f * static_cast<float>(i);
  r.mem.write_f32s(0x1000, data);
  r.mem.write_f32(0x2000, 2.0f);
  r.go();
  for (unsigned i = 0; i < 16; ++i)
    EXPECT_FLOAT_EQ(r.state().velem_f32(2, i), static_cast<float>(i));
}

TEST(Fsim, VmvXsSignExtends) {
  Assembler a;
  a.li(x(1), 16);
  a.vsetvli_e32m1(x(0), x(1));
  a.li(x(2), 0x1000);
  a.vle32(v(1), x(2));
  a.vmv_x_s(x(3), v(1));
  a.ebreak();
  SimRun r(a);
  r.mem.write_i32s(0x1000, std::vector<std::int32_t>{-7});
  r.go();
  EXPECT_EQ(static_cast<std::int64_t>(r.state().x[3]), -7);
}

TEST(Fsim, Slide1DownShiftsAndInsertsScalar) {
  Assembler a;
  a.li(x(1), 16);
  a.vsetvli_e32m1(x(0), x(1));
  a.li(x(2), 0x1000);
  a.vle32(v(1), x(2));
  a.li(x(3), 999);
  a.vslide1down_vx(v(1), v(1), x(3));  // in-place slide
  a.ebreak();
  SimRun r(a);
  std::vector<std::int32_t> data(16);
  for (int i = 0; i < 16; ++i) data[i] = i + 1;
  r.mem.write_i32s(0x1000, data);
  r.go();
  for (unsigned i = 0; i < 15; ++i) EXPECT_EQ(r.state().v[1][i], i + 2);
  EXPECT_EQ(r.state().v[1][15], 999u);
}

TEST(Fsim, SlidedownByImmediate) {
  Assembler a;
  a.li(x(1), 16);
  a.vsetvli_e32m1(x(0), x(1));
  a.li(x(2), 0x1000);
  a.vle32(v(1), x(2));
  a.vslidedown_vi(v(2), v(1), 3);
  a.ebreak();
  SimRun r(a);
  std::vector<std::int32_t> data(16);
  for (int i = 0; i < 16; ++i) data[i] = 10 * i;
  r.mem.write_i32s(0x1000, data);
  r.go();
  for (unsigned i = 0; i < 13; ++i) EXPECT_EQ(r.state().v[2][i], 10 * (i + 3));
  EXPECT_EQ(r.state().v[2][13], 0u);  // slid past VLMAX -> zero
}

TEST(Fsim, VindexmacIntegerIndirectRead) {
  Assembler a;
  a.li(x(1), 16);
  a.vsetvli_e32m1(x(0), x(1));
  // v8 holds the "B row"; v1 holds packed values; accumulate into v2.
  a.li(x(2), 0x1000);
  a.vle32(v(8), x(2));
  a.li(x(3), 0x2000);
  a.vle32(v(1), x(3));
  a.vmv_v_i(v(2), 0);
  a.li(x(4), 8);                    // VRF index 8
  a.vindexmac_vx(v(2), v(1), x(4)); // v2 += v1[0] * v8
  a.ebreak();
  SimRun r(a);
  std::vector<std::int32_t> brow(16);
  for (int i = 0; i < 16; ++i) brow[i] = i + 1;
  r.mem.write_i32s(0x1000, brow);
  std::vector<std::int32_t> values(16, 0);
  values[0] = 3;
  r.mem.write_i32s(0x2000, values);
  r.go();
  for (unsigned i = 0; i < 16; ++i) EXPECT_EQ(r.state().v[2][i], 3u * (i + 1));
}

TEST(Fsim, VindexmacUsesOnlyLow5BitsOfRs) {
  Assembler a;
  a.li(x(1), 16);
  a.vsetvli_e32m1(x(0), x(1));
  a.li(x(2), 0x1000);
  a.vle32(v(8), x(2));
  a.li(x(3), 0x2000);
  a.vle32(v(1), x(3));
  a.vmv_v_i(v(2), 0);
  a.li(x(4), 32 + 8);               // 0x28: low 5 bits = 8
  a.vindexmac_vx(v(2), v(1), x(4));
  a.ebreak();
  SimRun r(a);
  std::vector<std::int32_t> brow(16, 2);
  r.mem.write_i32s(0x1000, brow);
  std::vector<std::int32_t> values(16, 0);
  values[0] = 5;
  r.mem.write_i32s(0x2000, values);
  r.go();
  EXPECT_EQ(r.state().v[2][0], 10u);
}

TEST(Fsim, VfindexmacFloatIndirectRead) {
  Assembler a;
  a.li(x(1), 16);
  a.vsetvli_e32m1(x(0), x(1));
  a.li(x(2), 0x1000);
  a.vle32(v(20), x(2));
  a.li(x(3), 0x2000);
  a.vle32(v(1), x(3));
  a.li(x(5), 0x3000);
  a.vle32(v(2), x(5));              // initial C values
  a.li(x(4), 20);
  a.vfindexmac_vx(v(2), v(1), x(4));
  a.ebreak();
  SimRun r(a);
  std::vector<float> brow(16), values(16, 0.0f), c0(16);
  for (int i = 0; i < 16; ++i) {
    brow[i] = 0.25f * static_cast<float>(i);
    c0[i] = 1.0f;
  }
  values[0] = -2.0f;
  r.mem.write_f32s(0x1000, brow);
  r.mem.write_f32s(0x2000, values);
  r.mem.write_f32s(0x3000, c0);
  r.go();
  for (unsigned i = 0; i < 16; ++i)
    EXPECT_FLOAT_EQ(r.state().velem_f32(2, i), 1.0f - 0.5f * static_cast<float>(i));
}

TEST(Fsim, VindexmacpPackedNibbleAddressesUpperHalf) {
  Assembler a;
  a.li(x(1), 16);
  a.vsetvli_e32m1(x(0), x(1));
  a.li(x(2), 0x1000);
  a.vle32(v(24), x(2));             // B row in the upper register-file half
  a.li(x(3), 0x2000);
  a.vle32(v(1), x(3));
  a.vmv_v_i(v(2), 0);
  a.li(x(4), 0xa8);                 // low nibble 8 -> v24; upper bits ignored
  a.vindexmacp_vx(v(2), v(1), x(4));
  a.ebreak();
  SimRun r(a);
  std::vector<std::int32_t> brow(16);
  for (int i = 0; i < 16; ++i) brow[i] = i + 1;
  r.mem.write_i32s(0x1000, brow);
  std::vector<std::int32_t> values(16, 0);
  values[0] = 3;
  r.mem.write_i32s(0x2000, values);
  r.go();
  for (unsigned i = 0; i < 16; ++i) EXPECT_EQ(r.state().v[2][i], 3u * (i + 1));
}

TEST(Fsim, Vindexmac2EqualsTwoPackedMacs) {
  // One dual-row MAC must be bit-identical to two packed MACs consuming
  // nibbles 0 and 1 with values vs2[0] and vs2[1].
  const auto build = [](bool dual) {
    Assembler a;
    a.li(x(1), 16);
    a.vsetvli_e32m1(x(0), x(1));
    a.li(x(2), 0x1000);
    a.vle32(v(20), x(2));           // rows v20 (nibble 4) and v21 (nibble 5)
    a.li(x(2), 0x1040);
    a.vle32(v(21), x(2));
    a.li(x(3), 0x2000);
    a.vle32(v(1), x(3));            // values: vs2[0], vs2[1]
    a.vmv_v_i(v(2), 0);
    a.li(x(4), 0x54);               // nibbles: slot0 -> 4 (v20), slot1 -> 5 (v21)
    if (dual) {
      a.vfindexmac2_vx(v(2), v(1), x(4));
    } else {
      a.vfindexmacp_vx(v(2), v(1), x(4));
      a.srli(x(4), x(4), 4);
      a.vslide1down_vx(v(1), v(1), x(0));
      a.vfindexmacp_vx(v(2), v(1), x(4));
    }
    a.ebreak();
    return a;
  };
  std::array<std::uint32_t, 16> lanes_dual{}, lanes_two{};
  for (const bool dual : {true, false}) {
    Assembler a = build(dual);
    SimRun r(a);
    std::vector<float> row0(16), row1(16), values(16, 0.0f);
    for (int i = 0; i < 16; ++i) {
      row0[i] = 0.5f * static_cast<float>(i) + 0.125f;
      row1[i] = -0.25f * static_cast<float>(i) + 1.0f;
    }
    values[0] = 3.5f;
    values[1] = -1.25f;
    r.mem.write_f32s(0x1000, row0);
    r.mem.write_f32s(0x1040, row1);
    r.mem.write_f32s(0x2000, values);
    r.go();
    for (unsigned i = 0; i < 16; ++i)
      (dual ? lanes_dual : lanes_two)[i] = r.state().v[2][i];
  }
  EXPECT_EQ(lanes_dual, lanes_two);
}

TEST(Fsim, SsrStreamingMacMatchesExplicitVindexmac) {
  // vindexmacs.v consuming (value, index) pairs from streams 0/1 must
  // produce the bits of the equivalent explicit vindexmac.vx sequence.
  std::array<std::uint32_t, 16> lanes_ssr{}, lanes_explicit{};
  for (const bool streaming : {true, false}) {
    Assembler a;
    a.li(x(1), 16);
    a.vsetvli_e32m1(x(0), x(1));
    a.li(x(2), 0x1000);
    a.vle32(v(8), x(2));              // B rows in v8 and v9
    a.li(x(2), 0x1040);
    a.vle32(v(9), x(2));
    a.vmv_v_i(v(2), 0);
    if (streaming) {
      a.li(x(3), 0x2000);             // A values
      a.li(x(4), 0x3000);             // VRF row indices
      a.li(x(5), 2);
      a.ssrcfg(0, x(3), x(5));
      a.ssrcfg(1, x(4), x(5));
      a.li(x(5), 0b11);
      a.ssren(x(5));
      a.vindexmacs_v(v(2));
      a.vindexmacs_v(v(2));
    } else {
      a.li(x(6), 0x2000);             // values[0] in v1[0]
      a.vle32(v(1), x(6));
      a.li(x(7), 8);                  // indices[0] -> v8
      a.vindexmac_vx(v(2), v(1), x(7));
      a.li(x(6), 0x2004);             // values[1] in v1[0]
      a.vle32(v(1), x(6));
      a.li(x(7), 9);                  // indices[1] -> v9
      a.vindexmac_vx(v(2), v(1), x(7));
    }
    a.ebreak();
    SimRun r(a);
    std::vector<std::int32_t> row8(16), row9(16);
    for (int i = 0; i < 16; ++i) {
      row8[i] = i + 1;
      row9[i] = 2 * i - 3;
    }
    r.mem.write_i32s(0x1000, row8);
    r.mem.write_i32s(0x1040, row9);
    r.mem.write_i32s(0x2000, std::vector<std::int32_t>{3, -5});
    r.mem.write_i32s(0x3000, std::vector<std::int32_t>{8, 9});
    EXPECT_EQ(r.go(), StopReason::kEbreak);
    for (unsigned i = 0; i < 16; ++i)
      (streaming ? lanes_ssr : lanes_explicit)[i] = r.state().v[2][i];
  }
  EXPECT_EQ(lanes_ssr, lanes_explicit);
}

TEST(Fsim, SsrFloatVariantAndIndexMasking) {
  // vfindexmacs.v interprets the stream-0 word as fp32 bits, and only the
  // low 5 bits of the stream-1 word select the VRF row.
  Assembler a;
  a.li(x(1), 16);
  a.vsetvli_e32m1(x(0), x(1));
  a.li(x(2), 0x1000);
  a.vle32(v(12), x(2));
  a.vmv_v_i(v(2), 0);
  a.li(x(3), 0x2000);
  a.li(x(4), 0x3000);
  a.li(x(5), 1);
  a.ssrcfg(0, x(3), x(5));
  a.ssrcfg(1, x(4), x(5));
  a.li(x(5), 0b11);
  a.ssren(x(5));
  a.vfindexmacs_v(v(2));
  a.ebreak();
  SimRun r(a);
  std::vector<float> brow(16);
  for (int i = 0; i < 16; ++i) brow[i] = 0.25f * static_cast<float>(i);
  r.mem.write_f32s(0x1000, brow);
  r.mem.write_f32(0x2000, -2.0f);
  r.mem.write_i32s(0x3000, std::vector<std::int32_t>{32 + 12});  // low 5 bits = 12
  r.go();
  for (unsigned i = 0; i < 16; ++i)
    EXPECT_FLOAT_EQ(r.state().velem_f32(2, i), -0.5f * static_cast<float>(i));
}

TEST(Fsim, SsrStreamWrapsAtConfiguredCount) {
  // A 2-word window replays (value, index) pairs: four MACs with count 2
  // accumulate each pair twice.
  Assembler a;
  a.li(x(1), 16);
  a.vsetvli_e32m1(x(0), x(1));
  a.li(x(2), 0x1000);
  a.vle32(v(8), x(2));
  a.vmv_v_i(v(2), 0);
  a.li(x(3), 0x2000);
  a.li(x(4), 0x3000);
  a.li(x(5), 2);
  a.ssrcfg(0, x(3), x(5));
  a.ssrcfg(1, x(4), x(5));
  a.li(x(5), 0b11);
  a.ssren(x(5));
  for (int i = 0; i < 4; ++i) a.vindexmacs_v(v(2));
  a.ebreak();
  SimRun r(a);
  std::vector<std::int32_t> brow(16, 1);
  r.mem.write_i32s(0x1000, brow);
  r.mem.write_i32s(0x2000, std::vector<std::int32_t>{3, 5});
  r.mem.write_i32s(0x3000, std::vector<std::int32_t>{8, 8});
  r.go();
  for (unsigned i = 0; i < 16; ++i) EXPECT_EQ(r.state().v[2][i], 2u * (3u + 5u));
}

TEST(Fsim, SsrReEnableRewindsToBase) {
  Assembler a;
  a.li(x(1), 16);
  a.vsetvli_e32m1(x(0), x(1));
  a.li(x(2), 0x1000);
  a.vle32(v(8), x(2));
  a.vmv_v_i(v(2), 0);
  a.li(x(3), 0x2000);
  a.li(x(4), 0x3000);
  a.li(x(5), 4);
  a.ssrcfg(0, x(3), x(5));
  a.ssrcfg(1, x(4), x(5));
  a.li(x(5), 0b11);
  a.ssren(x(5));
  a.vindexmacs_v(v(2));    // consumes pair 0 of the 4-word window
  a.ssren(x(5));           // re-enable: both streams rewind to base
  a.vindexmacs_v(v(2));    // consumes pair 0 again
  a.ebreak();
  SimRun r(a);
  std::vector<std::int32_t> brow(16, 1);
  r.mem.write_i32s(0x1000, brow);
  r.mem.write_i32s(0x2000, std::vector<std::int32_t>{7, 100, 100, 100});
  r.mem.write_i32s(0x3000, std::vector<std::int32_t>{8, 8, 8, 8});
  r.go();
  for (unsigned i = 0; i < 16; ++i) EXPECT_EQ(r.state().v[2][i], 14u);
}

TEST(Fsim, SsrMacWithoutEnableRaises) {
  Assembler a;
  a.li(x(1), 16);
  a.vsetvli_e32m1(x(0), x(1));
  a.li(x(3), 0x2000);
  a.li(x(5), 2);
  a.ssrcfg(0, x(3), x(5));
  a.ssrcfg(1, x(3), x(5));
  a.vindexmacs_v(v(2));    // streams configured but never enabled
  a.ebreak();
  SimRun r(a);
  EXPECT_THROW((void)r.go(), SimError);
}

TEST(Fsim, SsrDisableAllStopsStreaming) {
  Assembler a;
  a.li(x(1), 16);
  a.vsetvli_e32m1(x(0), x(1));
  a.li(x(3), 0x2000);
  a.li(x(5), 2);
  a.ssrcfg(0, x(3), x(5));
  a.ssrcfg(1, x(3), x(5));
  a.li(x(5), 0b11);
  a.ssren(x(5));
  a.ssren(x(0));           // disables every stream
  a.vindexmacs_v(v(2));
  a.ebreak();
  SimRun r(a);
  EXPECT_THROW((void)r.go(), SimError);
}

TEST(Fsim, SsrEmptyWindowRaises) {
  Assembler a;
  a.li(x(1), 16);
  a.vsetvli_e32m1(x(0), x(1));
  a.li(x(3), 0x2000);
  a.ssrcfg(0, x(3), x(0));  // count 0: configured empty
  a.ssrcfg(1, x(3), x(0));
  a.li(x(5), 0b11);
  a.ssren(x(5));
  a.vindexmacs_v(v(2));
  a.ebreak();
  SimRun r(a);
  EXPECT_THROW((void)r.go(), SimError);
}

TEST(Fsim, TextAssembledSsrKernelMatchesBuilder) {
  const Program program = assemble_text(R"(
      li t0, 16
      vsetvli zero, t0, e32m1
      li t1, 0x1000
      vle32.v v8, (t1)
      vmv.v.i v2, 0
      li t2, 0x2000
      li t3, 0x3000
      li t4, 1
      ssrcfg 0, t2, t4
      ssrcfg 1, t3, t4
      li t4, 3
      ssren t4
      vindexmacs.v v2
      ebreak
  )");
  MainMemory mem;
  std::vector<std::int32_t> brow(16);
  for (int i = 0; i < 16; ++i) brow[i] = i;
  mem.write_i32s(0x1000, brow);
  mem.write_i32s(0x2000, std::vector<std::int32_t>{7});
  mem.write_i32s(0x3000, std::vector<std::int32_t>{8});
  Machine machine(program, mem);
  EXPECT_EQ(machine.run(), StopReason::kEbreak);
  for (unsigned i = 0; i < 16; ++i) EXPECT_EQ(machine.state().v[2][i], 7u * i);
}

TEST(Fsim, TextAssembledKernelMatchesBuilder) {
  const Program program = assemble_text(R"(
      li t0, 16
      vsetvli zero, t0, e32m1
      li t1, 0x1000
      vle32.v v8, (t1)
      li t2, 0x2000
      vle32.v v1, (t2)
      vmv.v.i v2, 0
      li t3, 8
      vindexmac.vx v2, v1, t3
      ebreak
  )");
  MainMemory mem;
  std::vector<std::int32_t> brow(16);
  for (int i = 0; i < 16; ++i) brow[i] = i;
  mem.write_i32s(0x1000, brow);
  std::vector<std::int32_t> values(16, 0);
  values[0] = 7;
  mem.write_i32s(0x2000, values);
  Machine machine(program, mem);
  EXPECT_EQ(machine.run(), StopReason::kEbreak);
  for (unsigned i = 0; i < 16; ++i) EXPECT_EQ(machine.state().v[2][i], 7u * i);
}

TEST(Fsim, RetiredInstructionCount) {
  Assembler a;
  a.li(x(1), 3);
  auto loop = a.new_label();
  a.bind(loop);
  a.addi(x(1), x(1), -1);
  a.bne(x(1), x(0), loop);
  a.ebreak();
  SimRun r(a);
  r.go();
  // li(1) + 3*(addi+bne) + ebreak = 8
  EXPECT_EQ(r.machine->instructions_retired(), 8u);
}

TEST(Fsim, EveryOpExecutesThroughABoundHandler) {
  // The per-slot handler table is the only implementation of instruction
  // semantics: every op must bind at construction and retire one step.
  // Operands are benign: registers read zero, so loads/stores hit low
  // memory, vl is 0, and branches and jal target the ebreak either way.
  constexpr std::uint64_t kBase = 0x1000;
  const std::uint32_t ebreak = isa::encode(isa::Instruction{isa::Op::kEbreak});
  for (int raw = static_cast<int>(isa::Op::kLui);
       raw <= static_cast<int>(isa::Op::kVfindexmacsV); ++raw) {
    const auto op = static_cast<isa::Op>(raw);
    SCOPED_TRACE(isa::mnemonic(op));
    isa::Instruction in{op, 2, 3, 4, 0};
    if (isa::predecode(in).has(isa::kSiBranch) || op == isa::Op::kJal) in.imm = 4;
    if (op == isa::Op::kVsetvli) in.imm = isa::kVtypeE32M1;
    const Program program(kBase, {isa::encode(in), ebreak});
    MainMemory mem;
    Machine machine(program, mem);
    if (op == isa::Op::kVindexmacsV || op == isa::Op::kVfindexmacsV) {
      // Streams start disabled: the pop faults with the pc left in place.
      try {
        (void)machine.step();
        ADD_FAILURE() << "no SimError";
      } catch (const SimError& e) {
        EXPECT_EQ(std::string(e.what()),
                  "vindexmacs.v with stream 0 disabled at " + describe_pc(program, kBase));
      }
      EXPECT_EQ(machine.state().pc, kBase);
      EXPECT_EQ(machine.instructions_retired(), 0u);
      continue;
    }
    const StopReason want = op == isa::Op::kEbreak ? StopReason::kEbreak
                            : op == isa::Op::kEcall ? StopReason::kEcall
                                                    : StopReason::kRunning;
    EXPECT_EQ(machine.step(), want);
    EXPECT_EQ(machine.instructions_retired(), 1u);
  }
}

TEST(Fsim, PcOutsideProgramFaultsWithItsDescription) {
  // Below the base, and inside the range but misaligned: both fault before
  // executing anything, with the pc left where it was.
  for (const std::uint64_t target : {0x10ull, 0x1002ull}) {
    Assembler a;
    a.li(x(1), static_cast<std::int64_t>(target));
    a.jalr(x(0), x(1), 0);
    a.ebreak();
    SimRun r(a);
    char want[128];
    std::snprintf(want, sizeof want,
                  "functional execution left the program: pc 0x%llx (outside program "
                  "[0x1000, 0x%llx))",
                  static_cast<unsigned long long>(target),
                  static_cast<unsigned long long>(r.program.end()));
    try {
      (void)r.go();
      ADD_FAILURE() << "no SimError for pc 0x" << std::hex << target;
    } catch (const SimError& e) {
      EXPECT_EQ(std::string(e.what()), want);
    }
    EXPECT_EQ(r.state().pc, target);
    EXPECT_EQ(r.machine->instructions_retired(), r.program.size() - 1);  // all but ebreak
  }
}

TEST(Fsim, DebugDemoBuildsItsOperandsAndStoresC) {
  // The demo writes its own B rows with scalar stores, then runs the
  // vindexmac loop over them. Its registers at step 516 and at the ebreak
  // are pinned by the `run --dump-regs` goldens beside it.
  std::ifstream file(std::string(INDEXMAC_GOLDEN_DIR) + "/debug_demo.s");
  ASSERT_TRUE(file.good());
  std::stringstream source;
  source << file.rdbuf();
  const Program program = assemble_text(source.str());
  MainMemory mem;
  Machine machine(program, mem);
  ASSERT_EQ(machine.run(), StopReason::kEbreak);
  for (std::uint32_t j = 0; j < isa::kVlMax; ++j) {
    EXPECT_EQ(mem.read_u32(0x8000 + 4 * j), 100 + j) << "B[0][" << j << "]";
    EXPECT_EQ(mem.read_u32(0x9000 + 4 * j), 1800 + 8 * j) << "C[" << j << "]";
  }
}

// ---- the 48-bit address space ----

/// The SimError text `run` raises, or "" if it returns.
template <typename Run>
std::string fault_text(Run run) {
  try {
    run();
  } catch (const SimError& e) {
    return e.what();
  }
  return "";
}

TEST(Fsim, AccessesPastTheAddressLimitRaiseInBothSimulators) {
  // x2 holds 2^48 (MainMemory::kAddressLimit) and vl is 16. Each case ends
  // in one access, then ebreak. An access that ends at or below the limit
  // runs; one that reaches past it raises, in the functional and the
  // timing model alike, naming the access and its pc, before memory is
  // touched. A vector access at vl 0 covers no bytes and runs anywhere.
  struct Case {
    const char* body;
    std::uint64_t addr;  ///< of a faulting access; 0 when the case runs
    unsigned bytes;
  };
  constexpr std::uint64_t kLimit = MainMemory::kAddressLimit;
  static_assert(kLimit == 1ull << 48);
  const Case cases[] = {
      {"lw x3, -4(x2)", 0, 0},
      {"lw x3, -2(x2)", kLimit - 2, 4},
      {"addi x2, x2, -64\nvle32.v v1, (x2)", 0, 0},
      {"addi x2, x2, -32\nvle32.v v1, (x2)", kLimit - 32, 64},
      {"vsetvli x0, x3, e32m1\nvle32.v v1, (x2)", 0, 0},  // x3 is 0: vl 0
      {"sd x3, -8(x2)", 0, 0},
      {"sd x3, -4(x0)", ~3ull, 8},  // 2^64 - 4
      {"addi x4, x2, -2\nli x5, 0x1000\nli x6, 1\nssrcfg 0, x4, x6\nssrcfg 1, x5, x6\n"
       "li x6, 3\nssren x6\nvindexmacs.v v2",  // pops the A value at 2^48 - 2
       kLimit - 2, 4},
      {"addi x4, x2, -2\nli x5, 0x1000\nli x6, 1\nssrcfg 0, x5, x6\nssrcfg 1, x4, x6\n"
       "li x6, 3\nssren x6\nvindexmacs.v v2",  // pops the B row index at 2^48 - 2
       kLimit - 2, 4},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.body);
    const Program program = assemble_text(
        std::string("li x1, 16\nvsetvli x0, x1, e32m1\nli x2, 1\nslli x2, x2, 48\n") + c.body +
        "\nebreak\n");
    const std::uint64_t access_pc = program.end() - 8;
    char access[64];
    std::snprintf(access, sizeof access, "%u bytes at 0x%llx", c.bytes,
                  static_cast<unsigned long long>(c.addr));
    const std::string want =
        c.bytes == 0 ? "" : std::string("memory access past the 48-bit address space: ") +
                                access + ", " + describe_pc(program, access_pc);

    MainMemory fmem;
    Machine machine(program, fmem);
    EXPECT_EQ(fault_text([&] { ASSERT_EQ(machine.run(), StopReason::kEbreak); }), want);
    MainMemory tmem;
    timing::TimingSim sim(program, tmem, timing::ProcessorConfig{});
    EXPECT_EQ(fault_text([&] { (void)sim.run(); }), want);
    if (c.bytes != 0) {
      EXPECT_EQ(machine.state().pc, access_pc);
      EXPECT_EQ(fmem.page_count(), 0u);
      EXPECT_EQ(tmem.page_count(), 0u);
    }
  }
}

// ---- lane-wise vector ops at every vl ----
//
// Each case loads all 32 vector registers with distinct lanes, sets vl,
// runs one op and compares the whole register file with the state before:
// vd's lanes below vl must equal a per-lane reference, and every other lane
// of every register, vd's at or past vl included, must be unchanged. Each
// op runs with distinct registers and with the aliasing its operands allow:
// vd == vs2, and the indexed B row (either row of the dual form) == vd.

using VRegFile = std::array<std::array<std::uint32_t, isa::kVlMax>, isa::kNumVRegs>;

/// The operands of one case. The op reads its scalar from x5 (its index
/// word for the IndexMAC forms) and its fp scalar from f1; the streaming
/// MACs pop kStreamScale and then `x` from the SSR streams.
struct LaneOperands {
  unsigned vd = 0;
  unsigned vs2 = 0;
  std::uint64_t x = 0;
};

constexpr float kLaneF = 1.5f;
constexpr std::uint32_t kStreamScale = 0x40400000u;  // 3.0f; 1077936128 as an integer
constexpr std::int32_t kLaneImm = -3;                // vadd.vi and vmv.v.i
constexpr std::int32_t kSlideImm = 2;                // vslidedown.vi

float lane_f32(std::uint32_t bits) {
  float out;
  std::memcpy(&out, &bits, sizeof out);
  return out;
}
std::uint32_t lane_bits(float value) {
  std::uint32_t out;
  std::memcpy(&out, &value, sizeof out);
  return out;
}
std::uint32_t mac_lane_u(std::uint32_t acc, std::uint32_t scale, std::uint32_t b) {
  return acc + scale * b;
}
std::uint32_t mac_lane_f(std::uint32_t acc, std::uint32_t scale, std::uint32_t b) {
  return lane_bits(lane_f32(acc) + lane_f32(scale) * lane_f32(b));
}

/// Which indexed B rows an op reads, and so which aliasing cases it has.
enum class Rows { kNone, kFive, kNibble, kTwoNibbles, kStream };

struct LaneOp {
  const char* name;
  void (*emit)(Assembler&, VReg vd, VReg vs2);
  bool reads_vs2;
  Rows rows;
  std::uint64_t x;  ///< x5 for the distinct-register case
  /// Lane i (< vl) of vd after the op, from the register file before it.
  std::uint32_t (*lane)(const VRegFile& r, const LaneOperands& o, unsigned vl, unsigned i);
};

/// The dual-row MAC: the second MAC reads the first's sum when row 1 is vd.
template <std::uint32_t (*Mac)(std::uint32_t, std::uint32_t, std::uint32_t)>
std::uint32_t dual_lane(const VRegFile& r, const LaneOperands& o, unsigned, unsigned i) {
  const unsigned row0 = 16u | (o.x & 0xf);
  const unsigned row1 = 16u | ((o.x >> 4) & 0xf);
  const std::uint32_t first = Mac(r[o.vd][i], r[o.vs2][0], r[row0][i]);
  return Mac(first, r[o.vs2][1], row1 == o.vd ? first : r[row1][i]);
}

const std::vector<LaneOp>& lane_ops() {
  static const std::vector<LaneOp> ops = {
      {"vadd.vx", [](Assembler& a, VReg d, VReg s) { a.vadd_vx(d, s, x(5)); }, true, Rows::kNone,
       0x12345678,
       [](const VRegFile& r, const LaneOperands& o, unsigned, unsigned i) {
         return r[o.vs2][i] + static_cast<std::uint32_t>(o.x);
       }},
      {"vadd.vi", [](Assembler& a, VReg d, VReg s) { a.vadd_vi(d, s, kLaneImm); }, true,
       Rows::kNone, 0,
       [](const VRegFile& r, const LaneOperands& o, unsigned, unsigned i) {
         return r[o.vs2][i] + static_cast<std::uint32_t>(kLaneImm);
       }},
      {"vmv.v.i", [](Assembler& a, VReg d, VReg) { a.vmv_v_i(d, kLaneImm); }, false, Rows::kNone,
       0,
       [](const VRegFile&, const LaneOperands&, unsigned, unsigned) {
         return static_cast<std::uint32_t>(kLaneImm);
       }},
      {"vmacc.vx", [](Assembler& a, VReg d, VReg s) { a.vmacc_vx(d, x(5), s); }, true,
       Rows::kNone, 7,
       [](const VRegFile& r, const LaneOperands& o, unsigned, unsigned i) {
         return mac_lane_u(r[o.vd][i], static_cast<std::uint32_t>(o.x), r[o.vs2][i]);
       }},
      {"vfmacc.vf", [](Assembler& a, VReg d, VReg s) { a.vfmacc_vf(d, f(1), s); }, true,
       Rows::kNone, 0,
       [](const VRegFile& r, const LaneOperands& o, unsigned, unsigned i) {
         return mac_lane_f(r[o.vd][i], lane_bits(kLaneF), r[o.vs2][i]);
       }},
      {"vslide1down.vx", [](Assembler& a, VReg d, VReg s) { a.vslide1down_vx(d, s, x(5)); },
       true, Rows::kNone, 0xdeadbeef,
       [](const VRegFile& r, const LaneOperands& o, unsigned vl, unsigned i) {
         return i + 1 < vl ? r[o.vs2][i + 1] : static_cast<std::uint32_t>(o.x);
       }},
      {"vslidedown.vi", [](Assembler& a, VReg d, VReg s) { a.vslidedown_vi(d, s, kSlideImm); },
       true, Rows::kNone, 0,
       [](const VRegFile& r, const LaneOperands& o, unsigned, unsigned i) {
         return i + kSlideImm < isa::kVlMax ? r[o.vs2][i + kSlideImm] : 0u;
       }},
      {"vindexmac.vx", [](Assembler& a, VReg d, VReg s) { a.vindexmac_vx(d, s, x(5)); }, true,
       Rows::kFive, 0x29,  // bits above the low five are ignored: row v9
       [](const VRegFile& r, const LaneOperands& o, unsigned, unsigned i) {
         return mac_lane_u(r[o.vd][i], r[o.vs2][0], r[o.x & 0x1f][i]);
       }},
      {"vfindexmac.vx", [](Assembler& a, VReg d, VReg s) { a.vfindexmac_vx(d, s, x(5)); }, true,
       Rows::kFive, 0x29,
       [](const VRegFile& r, const LaneOperands& o, unsigned, unsigned i) {
         return mac_lane_f(r[o.vd][i], r[o.vs2][0], r[o.x & 0x1f][i]);
       }},
      {"vindexmacp.vx", [](Assembler& a, VReg d, VReg s) { a.vindexmacp_vx(d, s, x(5)); }, true,
       Rows::kNibble, 0x75,  // row v21
       [](const VRegFile& r, const LaneOperands& o, unsigned, unsigned i) {
         return mac_lane_u(r[o.vd][i], r[o.vs2][0], r[16u | (o.x & 0xf)][i]);
       }},
      {"vfindexmacp.vx", [](Assembler& a, VReg d, VReg s) { a.vfindexmacp_vx(d, s, x(5)); },
       true, Rows::kNibble, 0x75,
       [](const VRegFile& r, const LaneOperands& o, unsigned, unsigned i) {
         return mac_lane_f(r[o.vd][i], r[o.vs2][0], r[16u | (o.x & 0xf)][i]);
       }},
      {"vindexmac2.vx", [](Assembler& a, VReg d, VReg s) { a.vindexmac2_vx(d, s, x(5)); }, true,
       Rows::kTwoNibbles, 0x75,  // rows v21, v23
       dual_lane<mac_lane_u>},
      {"vfindexmac2.vx", [](Assembler& a, VReg d, VReg s) { a.vfindexmac2_vx(d, s, x(5)); },
       true, Rows::kTwoNibbles, 0x75, dual_lane<mac_lane_f>},
      {"vindexmacs.v", [](Assembler& a, VReg d, VReg) { a.vindexmacs_v(d); }, false,
       Rows::kStream, 9,  // the popped index word: row v9
       [](const VRegFile& r, const LaneOperands& o, unsigned, unsigned i) {
         return mac_lane_u(r[o.vd][i], kStreamScale, r[o.x & 0x1f][i]);
       }},
      {"vfindexmacs.v", [](Assembler& a, VReg d, VReg) { a.vfindexmacs_v(d); }, false,
       Rows::kStream, 9,
       [](const VRegFile& r, const LaneOperands& o, unsigned, unsigned i) {
         return mac_lane_f(r[o.vd][i], kStreamScale, r[o.x & 0x1f][i]);
       }},
  };
  return ops;
}

/// The distinct-register case, then every aliasing case the op allows.
std::vector<std::pair<std::string, LaneOperands>> lane_cases(const LaneOp& op) {
  constexpr unsigned kVd = 18;  // in the upper half, so a packed nibble (2) can name it
  std::vector<std::pair<std::string, LaneOperands>> cases = {{"distinct", {kVd, 3, op.x}}};
  if (op.reads_vs2) cases.push_back({"vd==vs2", {kVd, kVd, op.x}});
  switch (op.rows) {
    case Rows::kNone: break;
    case Rows::kFive:
    case Rows::kStream: cases.push_back({"row==vd", {kVd, 3, kVd}}); break;
    case Rows::kNibble: cases.push_back({"row==vd", {kVd, 3, kVd & 0xf}}); break;
    case Rows::kTwoNibbles:
      cases.push_back({"row0==vd", {kVd, 3, 0x70 | (kVd & 0xf)}});
      cases.push_back({"row1==vd", {kVd, 3, ((kVd & 0xf) << 4) | 0x5}});
      break;
  }
  return cases;
}

TEST(Fsim, LaneWiseOpsWriteOnlyTheLanesBelowVl) {
  constexpr std::uint64_t kRegImage = 0x10000;  // 32 x 64 B: the initial register file
  constexpr std::uint64_t kFScalar = 0x20000;
  constexpr std::uint64_t kStreams = 0x30000;   // stream 0 word, then stream 1 word
  VRegFile before{};
  for (unsigned r = 0; r < isa::kNumVRegs; ++r)
    for (unsigned i = 0; i < isa::kVlMax; ++i)  // distinct, finite fp32 lanes
      before[r][i] = lane_bits(0.25f * static_cast<float>(r * isa::kVlMax + i) - 50.0f);

  for (const LaneOp& op : lane_ops()) {
    for (const auto& [mode, o] : lane_cases(op)) {
      for (const unsigned vl : {0u, 1u, 5u, 15u, 16u}) {
        SCOPED_TRACE(std::string(op.name) + " " + mode + " vl=" + std::to_string(vl));
        Assembler a;
        a.li(x(1), isa::kVlMax);
        a.vsetvli_e32m1(x(0), x(1));
        for (unsigned r = 0; r < isa::kNumVRegs; ++r) {
          a.li(x(2), static_cast<std::int64_t>(kRegImage + 64 * r));
          a.vle32(v(r), x(2));
        }
        a.li(x(1), vl);
        a.vsetvli_e32m1(x(0), x(1));
        a.li(x(5), static_cast<std::int32_t>(o.x));  // li sign-extends 32 bits
        a.li(x(6), static_cast<std::int64_t>(kFScalar));
        a.flw(f(1), x(6), 0);
        if (op.rows == Rows::kStream) {
          a.li(x(10), static_cast<std::int64_t>(kStreams));
          a.li(x(11), static_cast<std::int64_t>(kStreams + 4));
          a.li(x(12), 1);
          a.ssrcfg(0, x(10), x(12));
          a.ssrcfg(1, x(11), x(12));
          a.li(x(12), 0b11);
          a.ssren(x(12));
        }
        op.emit(a, v(o.vd), v(o.vs2));
        a.ebreak();
        SimRun run(a);
        for (unsigned r = 0; r < isa::kNumVRegs; ++r)
          for (unsigned i = 0; i < isa::kVlMax; ++i)
            run.mem.write_u32(kRegImage + 64 * r + 4 * i, before[r][i]);
        run.mem.write_f32(kFScalar, kLaneF);
        run.mem.write_u32(kStreams, kStreamScale);
        run.mem.write_u32(kStreams + 4, static_cast<std::uint32_t>(o.x));
        ASSERT_EQ(run.go(), StopReason::kEbreak);
        ASSERT_EQ(run.state().vl, vl);

        VRegFile want = before;
        for (unsigned i = 0; i < vl; ++i) want[o.vd][i] = op.lane(before, o, vl, i);
        for (unsigned r = 0; r < isa::kNumVRegs; ++r)
          for (unsigned i = 0; i < isa::kVlMax; ++i)
            EXPECT_EQ(run.state().v[r][i], want[r][i]) << "v" << r << "[" << i << "]";
      }
    }
  }
}

}  // namespace
}  // namespace indexmac
