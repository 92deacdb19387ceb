#include <gtest/gtest.h>

#include <vector>

#include "common/error.h"
#include "isa/encoding.h"
#include "isa/op_table.h"
#include "isa_test_util.h"

namespace indexmac::isa {
namespace {

/// Round-trip (encode -> decode) must reproduce the instruction exactly.
void expect_roundtrip(const Instruction& inst) {
  std::string err;
  const std::uint32_t word = encode(inst);
  const Instruction back = decode(word, &err);
  EXPECT_EQ(back, inst) << "word=0x" << std::hex << word << " err=" << err
                        << " disasm=" << disassemble(inst);
}

TEST(IsaEncoding, RoundTripScalarAluRegister) {
  for (Op op : {Op::kAdd, Op::kSub, Op::kSll, Op::kSlt, Op::kSltu, Op::kXor, Op::kSrl, Op::kSra,
                Op::kOr, Op::kAnd, Op::kMul}) {
    expect_roundtrip(Instruction{op, 1, 2, 3, 0});
    expect_roundtrip(Instruction{op, 31, 30, 29, 0});
  }
}

TEST(IsaEncoding, RoundTripScalarAluImmediate) {
  for (Op op : {Op::kAddi, Op::kSlti, Op::kSltiu, Op::kXori, Op::kOri, Op::kAndi}) {
    expect_roundtrip(Instruction{op, 5, 6, 0, 2047});
    expect_roundtrip(Instruction{op, 5, 6, 0, -2048});
    expect_roundtrip(Instruction{op, 0, 0, 0, 0});
  }
}

TEST(IsaEncoding, RoundTripShifts) {
  for (Op op : {Op::kSlli, Op::kSrli, Op::kSrai}) {
    expect_roundtrip(Instruction{op, 7, 8, 0, 0});
    expect_roundtrip(Instruction{op, 7, 8, 0, 63});
  }
}

TEST(IsaEncoding, RoundTripLoadsStores) {
  expect_roundtrip(Instruction{Op::kLw, 4, 9, 0, 128});
  expect_roundtrip(Instruction{Op::kLwu, 4, 9, 0, -4});
  expect_roundtrip(Instruction{Op::kLd, 4, 9, 0, 2040});
  expect_roundtrip(Instruction{Op::kSw, 0, 9, 4, -2048});
  expect_roundtrip(Instruction{Op::kSd, 0, 9, 4, 16});
  expect_roundtrip(Instruction{Op::kFlw, 3, 9, 0, 12});
  expect_roundtrip(Instruction{Op::kFsw, 0, 9, 3, -12});
}

TEST(IsaEncoding, RoundTripBranchesAndJumps) {
  for (Op op : {Op::kBeq, Op::kBne, Op::kBlt, Op::kBge, Op::kBltu, Op::kBgeu}) {
    expect_roundtrip(Instruction{op, 0, 1, 2, 4094});
    expect_roundtrip(Instruction{op, 0, 1, 2, -4096});
    expect_roundtrip(Instruction{op, 0, 1, 2, -4});
  }
  expect_roundtrip(Instruction{Op::kJal, 1, 0, 0, 1048574});
  expect_roundtrip(Instruction{Op::kJal, 1, 0, 0, -1048576});
  expect_roundtrip(Instruction{Op::kJalr, 1, 2, 0, -2});
  expect_roundtrip(Instruction{Op::kLui, 10, 0, 0, 0x7ffff});
  expect_roundtrip(Instruction{Op::kLui, 10, 0, 0, -0x80000});
  expect_roundtrip(Instruction{Op::kAuipc, 10, 0, 0, 1});
}

TEST(IsaEncoding, RoundTripSystemAndMarker) {
  expect_roundtrip(Instruction{Op::kEcall, 0, 0, 0, 0});
  expect_roundtrip(Instruction{Op::kEbreak, 0, 0, 0, 0});
  expect_roundtrip(Instruction{Op::kMarker, 0, 0, 0, 0});
  expect_roundtrip(Instruction{Op::kMarker, 0, 0, 0, 4095});
}

TEST(IsaEncoding, RoundTripVectorConfigAndMemory) {
  expect_roundtrip(Instruction{Op::kVsetvli, 5, 6, 0, kVtypeE32M1});
  expect_roundtrip(Instruction{Op::kVle32, 8, 11, 0, 0});
  expect_roundtrip(Instruction{Op::kVse32, 9, 12, 0, 0});
}

TEST(IsaEncoding, RoundTripVectorArithmetic) {
  expect_roundtrip(Instruction{Op::kVaddVx, 1, 2, 3, 0});
  expect_roundtrip(Instruction{Op::kVaddVi, 1, 0, 3, -16});
  expect_roundtrip(Instruction{Op::kVaddVi, 1, 0, 3, 15});
  expect_roundtrip(Instruction{Op::kVmaccVx, 4, 5, 6, 0});
  expect_roundtrip(Instruction{Op::kVfmaccVf, 4, 5, 6, 0});
  expect_roundtrip(Instruction{Op::kVmvVI, 7, 0, 0, -1});
  expect_roundtrip(Instruction{Op::kVmvXS, 9, 0, 10, 0});
  expect_roundtrip(Instruction{Op::kVfmvFS, 9, 0, 10, 0});
  expect_roundtrip(Instruction{Op::kVslidedownVi, 13, 0, 15, 7});
  expect_roundtrip(Instruction{Op::kVslide1downVx, 13, 14, 15, 0});
}

TEST(IsaEncoding, RoundTripCustomIndexmac) {
  expect_roundtrip(Instruction{Op::kVindexmacVx, 1, 7, 4, 0});
  expect_roundtrip(Instruction{Op::kVfindexmacVx, 2, 8, 5, 0});
  expect_roundtrip(Instruction{Op::kVindexmacVx, 31, 31, 31, 0});
}

TEST(IsaEncoding, CustomIndexmacUsesReservedOpivxSpace) {
  // funct6 0b110000 / 0b110001, OPIVX funct3 (0b100), OP-V major opcode.
  const std::uint32_t w = encode(Instruction{Op::kVindexmacVx, 3, 9, 20, 0});
  EXPECT_EQ(w & 0x7f, 0b1010111u);          // OP-V
  EXPECT_EQ((w >> 12) & 0x7, 0b100u);       // OPIVX
  EXPECT_EQ(w >> 26, 0b110000u);            // funct6
  EXPECT_EQ((w >> 25) & 1, 1u);             // unmasked
  EXPECT_EQ((w >> 20) & 0x1f, 20u);         // vs2
  EXPECT_EQ((w >> 15) & 0x1f, 9u);          // rs1 (x register)
  EXPECT_EQ((w >> 7) & 0x1f, 3u);           // vd
}

TEST(IsaEncoding, FollowUpVariantsUseReservedOpivxSpace) {
  // The packed-index and dual-row variants extend the custom block:
  // funct6 0b110010/0b110011 (vindexmacp/vfindexmacp) and
  // 0b110100/0b110101 (vindexmac2/vfindexmac2), all OPIVX.
  const struct {
    Op op;
    std::uint32_t funct6;
  } cases[] = {
      {Op::kVindexmacpVx, 0b110010u},
      {Op::kVfindexmacpVx, 0b110011u},
      {Op::kVindexmac2Vx, 0b110100u},
      {Op::kVfindexmac2Vx, 0b110101u},
  };
  for (const auto& c : cases) {
    const std::uint32_t w = encode(Instruction{c.op, 3, 9, 20, 0});
    EXPECT_EQ(w & 0x7f, 0b1010111u) << mnemonic(c.op);   // OP-V
    EXPECT_EQ((w >> 12) & 0x7, 0b100u) << mnemonic(c.op);  // OPIVX
    EXPECT_EQ(w >> 26, c.funct6) << mnemonic(c.op);
    EXPECT_EQ((w >> 25) & 1, 1u) << mnemonic(c.op);      // unmasked
    EXPECT_EQ((w >> 20) & 0x1f, 20u) << mnemonic(c.op);  // vs2
    EXPECT_EQ((w >> 15) & 0x1f, 9u) << mnemonic(c.op);   // rs1 (x register)
    EXPECT_EQ((w >> 7) & 0x1f, 3u) << mnemonic(c.op);    // vd
  }
}

TEST(IsaEncoding, RoundTripSsrOps) {
  for (std::uint8_t sid = 0; sid < 4; ++sid)
    expect_roundtrip(Instruction{Op::kSsrCfg, sid, 5, 6, 0});
  expect_roundtrip(Instruction{Op::kSsrEn, 0, 7, 0, 0});
  expect_roundtrip(Instruction{Op::kSsrEn, 0, 0, 0, 0});
  expect_roundtrip(Instruction{Op::kVindexmacsV, 2, 0, 0, 0});
  expect_roundtrip(Instruction{Op::kVfindexmacsV, 31, 0, 0, 0});
}

TEST(IsaEncoding, SsrControlUsesCustom0MinorOpcodes) {
  // ssrcfg/ssren share the custom-0 major opcode with the marker,
  // distinguished by funct3 (001/010 vs the marker's 000).
  const std::uint32_t cfg = encode(Instruction{Op::kSsrCfg, 2, 5, 6, 0});
  EXPECT_EQ(cfg & 0x7f, 0b0001011u);        // custom-0
  EXPECT_EQ((cfg >> 12) & 0x7, 0b001u);     // ssrcfg minor opcode
  EXPECT_EQ((cfg >> 7) & 0x1f, 2u);         // stream id in rd
  EXPECT_EQ((cfg >> 15) & 0x1f, 5u);        // rs1 = base
  EXPECT_EQ((cfg >> 20) & 0x1f, 6u);        // rs2 = wrap count
  const std::uint32_t en = encode(Instruction{Op::kSsrEn, 0, 7, 0, 0});
  EXPECT_EQ(en & 0x7f, 0b0001011u);
  EXPECT_EQ((en >> 12) & 0x7, 0b010u);      // ssren minor opcode
  EXPECT_EQ((en >> 15) & 0x1f, 7u);
}

TEST(IsaEncoding, StreamingMacUsesReservedOpivxSpace) {
  // vindexmacs/vfindexmacs extend the custom OPIVX block at funct6
  // 0b110110/0b110111 with rs1 and vs2 hard-wired to zero.
  const struct {
    Op op;
    std::uint32_t funct6;
  } cases[] = {{Op::kVindexmacsV, 0b110110u}, {Op::kVfindexmacsV, 0b110111u}};
  for (const auto& c : cases) {
    const std::uint32_t w = encode(Instruction{c.op, 3, 0, 0, 0});
    EXPECT_EQ(w & 0x7f, 0b1010111u) << mnemonic(c.op);     // OP-V
    EXPECT_EQ((w >> 12) & 0x7, 0b100u) << mnemonic(c.op);  // OPIVX
    EXPECT_EQ(w >> 26, c.funct6) << mnemonic(c.op);
    EXPECT_EQ((w >> 25) & 1, 1u) << mnemonic(c.op);        // unmasked
    EXPECT_EQ((w >> 20) & 0x1f, 0u) << mnemonic(c.op);     // vs2 == 0
    EXPECT_EQ((w >> 15) & 0x1f, 0u) << mnemonic(c.op);     // rs1 == 0
    EXPECT_EQ((w >> 7) & 0x1f, 3u) << mnemonic(c.op);      // vd
  }
}

TEST(IsaEncoding, MalformedSsrWordsAreRejected) {
  EXPECT_THROW((void)encode(Instruction{Op::kSsrCfg, 4, 5, 6, 0}), SimError);  // sid > 3
  std::string err;
  // ssrcfg with a stream id outside 0..3 in the rd field.
  const std::uint32_t cfg = encode(Instruction{Op::kSsrCfg, 3, 5, 6, 0});
  EXPECT_EQ(decode(cfg | (0x10u << 7), &err).op, Op::kIllegal);
  // ssren with non-zero rd or rs2 fields.
  const std::uint32_t en = encode(Instruction{Op::kSsrEn, 0, 7, 0, 0});
  EXPECT_EQ(decode(en | (1u << 7), &err).op, Op::kIllegal);
  EXPECT_EQ(decode(en | (1u << 20), &err).op, Op::kIllegal);
  // Streaming MACs with explicit rs1/vs2 operands do not decode.
  const std::uint32_t mac = encode(Instruction{Op::kVindexmacsV, 3, 0, 0, 0});
  EXPECT_EQ(decode(mac | (1u << 15), &err).op, Op::kIllegal);
  EXPECT_EQ(decode(mac | (1u << 20), &err).op, Op::kIllegal);
}

TEST(IsaEncoding, ImmediateRangeChecksThrow) {
  EXPECT_THROW((void)encode(Instruction{Op::kAddi, 1, 1, 0, 2048}), SimError);
  EXPECT_THROW((void)encode(Instruction{Op::kAddi, 1, 1, 0, -2049}), SimError);
  EXPECT_THROW((void)encode(Instruction{Op::kBeq, 0, 1, 2, 3}), SimError);  // odd offset
  EXPECT_THROW((void)encode(Instruction{Op::kMarker, 0, 0, 0, 4096}), SimError);
  EXPECT_THROW((void)encode(Instruction{Op::kVaddVi, 1, 0, 3, 16}), SimError);
  EXPECT_THROW((void)encode(Instruction{Op::kVslidedownVi, 1, 0, 3, 32}), SimError);
}

TEST(IsaEncoding, DecodeRejectsUnknownWords) {
  std::string err;
  EXPECT_EQ(decode(0x00000000, &err).op, Op::kIllegal);
  EXPECT_FALSE(err.empty());
  EXPECT_EQ(decode(0xffffffff, &err).op, Op::kIllegal);
  // Masked vector op (vm=0) is rejected.
  const std::uint32_t vadd = encode(Instruction{Op::kVaddVx, 1, 2, 3, 0});
  EXPECT_EQ(decode(vadd & ~(1u << 25), &err).op, Op::kIllegal);
  // funct7 0100000 on OP: RV64I gives it only to sub and sra. These are Zbb
  // andn, orn and xnor x1, x1, x2, and a reserved sll.
  for (const std::uint32_t w : {0x4020f0b3u, 0x4020e0b3u, 0x4020c0b3u, 0x402090b3u})
    EXPECT_EQ(decode(w, &err).op, Op::kIllegal) << std::hex << w;
  // RVV indexed-unordered memory ops (mop 01) are outside the subset:
  // vse32.v v1, (x2) with its mop flipped, and the indexed load of v1 from
  // (x2) at the offsets in v3.
  for (const std::uint32_t w : {0x060160a7u, 0x06316087u})
    EXPECT_EQ(decode(w, &err).op, Op::kIllegal) << std::hex << w;
}

TEST(IsaEncoding, DecodeRejectsUnsupportedWidths) {
  std::string err;
  // lb: LOAD with funct3=000.
  EXPECT_EQ(decode(0x00000003, &err).op, Op::kIllegal);
  // 8-bit vector load (width=000 with vector mask bit set is lb actually);
  // craft vle8-like: LOAD-FP, width=000.
  const std::uint32_t vle8 = (1u << 25) | (5u << 15) | (0b000u << 12) | (3u << 7) | 0b0000111u;
  EXPECT_EQ(decode(vle8, &err).op, Op::kIllegal);
}

TEST(IsaEncoding, DisassembleProducesExpectedText) {
  EXPECT_EQ(disassemble(Instruction{Op::kVindexmacVx, 2, 7, 4, 0}), "vindexmac.vx v2, v4, x7");
  EXPECT_EQ(disassemble(Instruction{Op::kVfindexmacVx, 2, 7, 4, 0}), "vfindexmac.vx v2, v4, x7");
  EXPECT_EQ(disassemble(Instruction{Op::kVindexmacpVx, 2, 7, 4, 0}), "vindexmacp.vx v2, v4, x7");
  EXPECT_EQ(disassemble(Instruction{Op::kVindexmac2Vx, 2, 7, 4, 0}), "vindexmac2.vx v2, v4, x7");
  EXPECT_EQ(disassemble(Instruction{Op::kVfindexmac2Vx, 2, 7, 4, 0}),
            "vfindexmac2.vx v2, v4, x7");
  EXPECT_EQ(disassemble(Instruction{Op::kLw, 5, 6, 0, 16}), "lw x5, 16(x6)");
  EXPECT_EQ(disassemble(Instruction{Op::kSw, 0, 6, 5, -4}), "sw x5, -4(x6)");
  EXPECT_EQ(disassemble(Instruction{Op::kVle32, 8, 11, 0, 0}), "vle32.v v8, (x11)");
  EXPECT_EQ(disassemble(Instruction{Op::kVfmaccVf, 1, 2, 3, 0}), "vfmacc.vf v1, f2, v3");
  EXPECT_EQ(disassemble(Instruction{Op::kVmvXS, 9, 0, 10, 0}), "vmv.x.s x9, v10");
  EXPECT_EQ(disassemble(Instruction{Op::kMarker, 0, 0, 0, 42}), "marker 42");
  EXPECT_EQ(disassemble(Instruction{Op::kSsrCfg, 2, 5, 6, 0}), "ssrcfg 2, x5, x6");
  EXPECT_EQ(disassemble(Instruction{Op::kSsrEn, 0, 7, 0, 0}), "ssren x7");
  EXPECT_EQ(disassemble(Instruction{Op::kVindexmacsV, 3, 0, 0, 0}), "vindexmacs.v v3");
  EXPECT_EQ(disassemble(Instruction{Op::kVfindexmacsV, 3, 0, 0, 0}), "vfindexmacs.v v3");
}

TEST(OpTable, RowsAreIndexedByOpAndAcceptDisjointWords) {
  const auto rows = op_table();
  for (std::size_t i = 0; i < rows.size(); ++i)
    EXPECT_EQ(static_cast<std::size_t>(rows[i].op), i) << rows[i].mnemonic;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    const OpRow& a = rows[i];
    SCOPED_TRACE(std::string(a.mnemonic));
    EXPECT_EQ(a.mask & 0x7f, 0x7fu);  // decode scans the rows of one major opcode
    EXPECT_EQ(a.match & ~a.mask, 0u);
    EXPECT_EQ(decode(a.match).op, a.op);  // the canonical word: every operand zero
    EXPECT_EQ(op_named(a.mnemonic), a.op);
    for (std::size_t j = i + 1; j < rows.size(); ++j) {
      const OpRow& b = rows[j];
      EXPECT_NE((a.match ^ b.match) & a.mask & b.mask, 0u)
          << a.mnemonic << " and " << b.mnemonic << " accept the same word";
    }
  }
}

TEST(OpTable, PredecodeMatchesPinnedDigest) {
  // Every op's StaticInstInfo, with rd = x0 and rd != x0, as one digest.
  Fnv1a digest;
  for (std::size_t op = 1; op < kNumOps; ++op) {
    for (std::uint8_t rd = 0; rd < 32; ++rd) {
      const StaticInstInfo s = predecode(Instruction{static_cast<Op>(op), rd, 2, 2, 0});
      digest.u64(std::uint64_t{op} << 8 | rd);
      digest.u64(std::uint64_t{s.flags} << 24 | std::uint64_t{s.scalar_mem_bytes} << 16 |
                 std::uint64_t{s.vreg_reads} << 8 | static_cast<std::uint64_t>(s.vlat));
    }
  }
  EXPECT_EQ(digest.hash, 0xc54d97fecd83d3e5ull);
}

class AllOpsRoundTrip : public ::testing::TestWithParam<Op> {};

TEST_P(AllOpsRoundTrip, EncodeDecodeIdentity) {
  const Instruction inst = sample_instruction(GetParam());
  std::string err;
  EXPECT_EQ(decode(encode(inst), &err), inst) << mnemonic(inst.op) << ": " << err;
}

std::vector<Op> table_ops() {
  std::vector<Op> ops;
  for (const OpRow& row : op_table().subspan<1>()) ops.push_back(row.op);
  return ops;
}

INSTANTIATE_TEST_SUITE_P(EverySupportedOp, AllOpsRoundTrip, ::testing::ValuesIn(table_ops()),
                         [](const ::testing::TestParamInfo<Op>& info) {
                           std::string name = mnemonic(info.param);
                           for (char& c : name)
                             if (c == '.') c = '_';
                           return name;
                         });

StaticInstInfo info_of(Op op) { return predecode(Instruction{op, 1, 2, 3, 0}); }

TEST(IsaClassification, VectorQueries) {
  EXPECT_TRUE(info_of(Op::kVindexmacVx).has(kSiVector));
  EXPECT_TRUE(info_of(Op::kVle32).has(kSiVector));
  EXPECT_FALSE(info_of(Op::kVsetvli).has(kSiVector));  // executes on the scalar core
  EXPECT_FALSE(info_of(Op::kAdd).has(kSiVector));
  EXPECT_TRUE(info_of(Op::kVle32).has(kSiVectorLoad));
  EXPECT_TRUE(info_of(Op::kVse32).has(kSiVectorStore));
  EXPECT_TRUE(info_of(Op::kVmvXS).has(kSiVectorToScalar));
  EXPECT_TRUE(info_of(Op::kVfmvFS).has(kSiVectorToScalar));
  EXPECT_FALSE(info_of(Op::kVmvVI).has(kSiVectorToScalar));
}

TEST(IsaClassification, RegisterFileWrites) {
  EXPECT_TRUE(predecode(Instruction{Op::kAdd, 1, 2, 3, 0}).has(kSiWritesX));
  EXPECT_FALSE(predecode(Instruction{Op::kAdd, 0, 2, 3, 0}).has(kSiWritesX));  // rd == x0
  EXPECT_TRUE(predecode(Instruction{Op::kVmvXS, 1, 0, 3, 0}).has(kSiWritesX));
  EXPECT_TRUE(predecode(Instruction{Op::kVfmvFS, 1, 0, 3, 0}).has(kSiWritesF));
  EXPECT_TRUE(predecode(Instruction{Op::kVindexmacVx, 1, 2, 3, 0}).has(kSiWritesV));
  EXPECT_FALSE(predecode(Instruction{Op::kVse32, 1, 2, 0, 0}).has(kSiWritesV));
  EXPECT_TRUE(predecode(Instruction{Op::kVsetvli, 1, 2, 0, kVtypeE32M1}).has(kSiWritesX));
}

TEST(IsaClassification, RegisterFileReads) {
  EXPECT_TRUE(predecode(Instruction{Op::kVindexmacVx, 1, 2, 3, 0}).has(kSiReadsXRs1));
  EXPECT_TRUE(predecode(Instruction{Op::kVle32, 1, 2, 0, 0}).has(kSiReadsXRs1));
  EXPECT_FALSE(predecode(Instruction{Op::kVmvXS, 1, 0, 3, 0}).has(kSiReadsXRs1));
  EXPECT_TRUE(predecode(Instruction{Op::kSw, 0, 2, 3, 0}).has(kSiReadsXRs2));
  EXPECT_TRUE(predecode(Instruction{Op::kVfmaccVf, 1, 2, 3, 0}).has(kSiReadsFRs1));
}

}  // namespace
}  // namespace indexmac::isa
