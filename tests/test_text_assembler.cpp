#include <gtest/gtest.h>

#include "asm/text_assembler.h"
#include "common/error.h"
#include "isa/encoding.h"
#include "isa_test_util.h"

namespace indexmac {
namespace {

using isa::Op;

TEST(TextAssembler, AssemblesSimpleProgram) {
  const Program program = assemble_text(R"(
    # compute 3 + 4
    li t0, 3
    li t1, 4
    add t2, t0, t1
    ebreak
  )");
  ASSERT_EQ(program.size(), 4u);
  EXPECT_EQ(program.decoded()[2].op, Op::kAdd);
  EXPECT_EQ(program.decoded()[2].rd, 7);  // t2 == x7
}

TEST(TextAssembler, LabelsAndBranches) {
  const Program program = assemble_text(R"(
    li t0, 10
loop:
    addi t0, t0, -1
    bne t0, zero, loop
    ebreak
  )");
  ASSERT_EQ(program.size(), 4u);
  EXPECT_EQ(program.decoded()[2].op, Op::kBne);
  EXPECT_EQ(program.decoded()[2].imm, -4);
}

TEST(TextAssembler, LabelOnSameLineAsInstruction) {
  const Program program = assemble_text("start: nop\n j start\n");
  EXPECT_EQ(program.decoded()[1].imm, -4);
}

TEST(TextAssembler, VectorAndCustomInstructions) {
  const Program program = assemble_text(R"(
    vsetvli t0, t1, e32m1
    vle32.v v4, (a0)
    vmv.x.s t2, v8
    vindexmac.vx v2, v4, t2
    vfindexmac.vx v3, v5, t2
    vslide1down.vx v4, v4, zero
    vse32.v v2, (a1)
  )");
  const auto& d = program.decoded();
  EXPECT_EQ(d[0].op, Op::kVsetvli);
  EXPECT_EQ(d[1].op, Op::kVle32);
  EXPECT_EQ(d[2].op, Op::kVmvXS);
  EXPECT_EQ(d[3].op, Op::kVindexmacVx);
  EXPECT_EQ(d[3].rd, 2);
  EXPECT_EQ(d[3].rs2, 4);
  EXPECT_EQ(d[3].rs1, 7);  // t2
  EXPECT_EQ(d[4].op, Op::kVfindexmacVx);
  EXPECT_EQ(d[5].op, Op::kVslide1downVx);
  EXPECT_EQ(d[6].op, Op::kVse32);
}

TEST(TextAssembler, MemoryOperandsWithOffsets) {
  const Program program = assemble_text(R"(
    lw t0, 16(sp)
    sd t1, -8(s0)
    flw f1, 0(a2)
    fsw f1, 4(a2)
  )");
  const auto& d = program.decoded();
  EXPECT_EQ(d[0].imm, 16);
  EXPECT_EQ(d[0].rs1, 2);  // sp
  EXPECT_EQ(d[1].imm, -8);
  EXPECT_EQ(d[2].op, Op::kFlw);
  EXPECT_EQ(d[3].op, Op::kFsw);
}

TEST(TextAssembler, HexImmediates) {
  const Program program = assemble_text("li t0, 0x100\n");
  EXPECT_EQ(program.decoded()[0].imm, 0x100);
}

TEST(TextAssembler, CommentsAndBlankLines) {
  const Program program = assemble_text(R"(
    // C++-style comment
    # hash comment

    nop  # trailing comment
  )");
  EXPECT_EQ(program.size(), 1u);
}

TEST(TextAssembler, RoundTripsDisassembly) {
  // Every disassembled instruction must re-assemble to the same word.
  const Program original = assemble_text(R"(
    addi t0, zero, 100
    vsetvli t1, t0, e32m1
    vle32.v v1, (t2)
    vmacc.vx v2, t0, v1
    vfmacc.vf v3, f1, v1
    vindexmac.vx v2, v1, t0
    marker 7
    ebreak
  )");
  std::string text;
  for (const auto& inst : original.decoded()) text += isa::disassemble(inst) + "\n";
  // Re-assembly: vsetvli prints its vtype numerically, which is accepted.
  EXPECT_EQ(assemble_text(text).words(), original.words());
}

TEST(TextAssembler, EveryOpRoundTripsThroughSource) {
  // One instruction of each table row, then ebreak: program_to_source()
  // and assemble_text() must give back the same words.
  const std::uint32_t ebreak = isa::encode(isa::Instruction{Op::kEbreak});
  for (const isa::OpRow& row : isa::op_table().subspan<1>()) {
    const Program program(0x1000, {isa::encode(isa::sample_instruction(row.op)), ebreak});
    const std::string source = program_to_source(program);
    EXPECT_EQ(assemble_text(source, program.base()).words(), program.words()) << source;
  }
}

TEST(TextAssembler, MalformedOperandsFailWithTheirLine) {
  // Each operand is malformed in a way that, read loosely, still names a
  // different valid instruction; each must fail instead.
  for (const char* line : {
           "li x1, x5",                    // a register where li takes a value
           "vle32.v v1, 8(x2)",            // RVV unit-stride forms take (rs1) only
           "vse32.v v1, 8(x2)",
           "addi x4294967297, x0, 5",      // 2^32 + 1 is not x1
           "vmv.v.i v4294967298, 3",       // 2^32 + 2 is not v2
           "li x1, 99999999999999999999",  // beyond int64
           "lw x1, 4294967300(x2)",        // beyond int32, not an offset of 4
       }) {
    SCOPED_TRACE(line);
    try {
      (void)assemble_text(std::string("nop\n") + line + "\n");
      ADD_FAILURE() << "assembled";
    } catch (const SimError& e) {
      EXPECT_EQ(std::string(e.what()).rfind("asm line 2: ", 0), 0u) << e.what();
    }
  }
}

TEST(TextAssembler, ErrorsCarryLineNumbers) {
  try {
    (void)assemble_text("nop\nbogus t0, t1\n");
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(TextAssembler, UnknownMnemonicThrows) {
  EXPECT_THROW((void)assemble_text("frobnicate x1, x2\n"), SimError);
}

TEST(TextAssembler, WrongOperandCountThrows) {
  EXPECT_THROW((void)assemble_text("add x1, x2\n"), SimError);
}

TEST(TextAssembler, WrongRegisterFileThrows) {
  EXPECT_THROW((void)assemble_text("add x1, v2, x3\n"), SimError);
  EXPECT_THROW((void)assemble_text("vindexmac.vx x1, v2, x3\n"), SimError);
}

TEST(TextAssembler, UndefinedLabelThrowsNamingIt) {
  try {
    (void)assemble_text("j nowhere\n");
    ADD_FAILURE() << "no SimError";
  } catch (const SimError& e) {
    EXPECT_STREQ(e.what(), "asm line 1: label 'nowhere' used but never defined");
  }
}

TEST(TextAssembler, DuplicateLabelThrows) {
  EXPECT_THROW((void)assemble_text("a:\nnop\na:\n"), SimError);
}

TEST(TextAssembler, UnsupportedVtypeThrows) {
  EXPECT_THROW((void)assemble_text("vsetvli t0, t1, e64m1\n"), SimError);
}

TEST(TextAssembler, AbiNamesCoverAllRegisters) {
  const Program program = assemble_text(R"(
    add zero, ra, sp
    add gp, tp, t0
    add t1, t2, s0
    add fp, s1, a0
    add a1, a2, a3
    add a4, a5, a6
    add a7, s2, s3
    add s4, s5, s6
    add s7, s8, s9
    add s10, s11, t3
    add t4, t5, t6
  )");
  const auto& d = program.decoded();
  EXPECT_EQ(d[0].rd, 0);
  EXPECT_EQ(d[0].rs1, 1);
  EXPECT_EQ(d[0].rs2, 2);
  EXPECT_EQ(d[10].rd, 29);
  EXPECT_EQ(d[10].rs1, 30);
  EXPECT_EQ(d[10].rs2, 31);
}

}  // namespace
}  // namespace indexmac
