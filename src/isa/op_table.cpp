#include "isa/op_table.h"

#include <string>

#include "common/error.h"

namespace indexmac::isa {
namespace {

// Major opcodes (bits 6:0).
constexpr std::uint32_t kOpLoad = 0b0000011;
constexpr std::uint32_t kOpLoadFp = 0b0000111;
constexpr std::uint32_t kOpCustom0 = 0b0001011;  // marker and the SSR control ops
constexpr std::uint32_t kOpImm = 0b0010011;
constexpr std::uint32_t kOpAuipc = 0b0010111;
constexpr std::uint32_t kOpStore = 0b0100011;
constexpr std::uint32_t kOpStoreFp = 0b0100111;
constexpr std::uint32_t kOpOp = 0b0110011;
constexpr std::uint32_t kOpLui = 0b0110111;
constexpr std::uint32_t kOpVec = 0b1010111;
constexpr std::uint32_t kOpBranch = 0b1100011;
constexpr std::uint32_t kOpJalr = 0b1100111;
constexpr std::uint32_t kOpJal = 0b1101111;
constexpr std::uint32_t kOpSystem = 0b1110011;

// OP-V funct3 minor opcodes.
constexpr std::uint32_t kFvv = 0b001;
constexpr std::uint32_t kMvv = 0b010;
constexpr std::uint32_t kIvi = 0b011;
constexpr std::uint32_t kIvx = 0b100;
constexpr std::uint32_t kFvf = 0b101;
constexpr std::uint32_t kMvx = 0b110;
constexpr std::uint32_t kCfg = 0b111;

// Masks.
constexpr std::uint32_t kOpcodeBits = 0x7f;
constexpr std::uint32_t kF3Bits = kOpcodeBits | (0b111u << 12);
constexpr std::uint32_t kF7Bits = kF3Bits | (0x7fu << 25);  // OP-V: funct6 and vm
constexpr std::uint32_t kShiftBits = kF3Bits | (0x3fu << 26);  // bit 25 is shamt[5]
constexpr std::uint32_t kRdBits = 0x1fu << 7;
constexpr std::uint32_t kRs1Bits = 0x1fu << 15;
constexpr std::uint32_t kRs2Bits = 0x1fu << 20;

// Match values.
constexpr std::uint32_t rv(std::uint32_t opcode, std::uint32_t funct3 = 0,
                           std::uint32_t funct7 = 0) {
  return (funct7 << 25) | (funct3 << 12) | opcode;
}
// OP-V arithmetic; vm=1, since this subset is unmasked.
constexpr std::uint32_t vop(std::uint32_t funct6, std::uint32_t funct3) {
  return (funct6 << 26) | (1u << 25) | (funct3 << 12) | kOpVec;
}
// 32-bit unit-stride vector loads/stores: nf=0, mew=0, mop=00, vm=1,
// width=110.
constexpr std::uint32_t vmem(std::uint32_t opcode) {
  return (1u << 25) | (0b110u << 12) | opcode;
}

namespace fmt {
constexpr Format kNone{};
constexpr Format kU{Arg::kXd, Arg::kImmU};                   // lui x1, 5
constexpr Format kJ{Arg::kXd, Arg::kJump};                   // jal x1, L
constexpr Format kB{Arg::kXs1, Arg::kXs2, Arg::kBranch};     // beq x1, x2, L
constexpr Format kLoad{Arg::kXd, Arg::kMemI};                // lw x1, 8(x2)
constexpr Format kLoadF{Arg::kFd, Arg::kMemI};               // flw f1, 8(x2)
constexpr Format kStore{Arg::kXs2, Arg::kMemS};              // sw x1, 8(x2)
constexpr Format kStoreF{Arg::kFs2, Arg::kMemS};             // fsw f1, 8(x2)
constexpr Format kI{Arg::kXd, Arg::kXs1, Arg::kImmI};        // addi x1, x2, 5
constexpr Format kShift{Arg::kXd, Arg::kXs1, Arg::kShamt};   // slli x1, x2, 5
constexpr Format kR{Arg::kXd, Arg::kXs1, Arg::kXs2};         // add x1, x2, x3
constexpr Format kMarker{Arg::kUimm12};                      // marker 7
constexpr Format kVsetvli{Arg::kXd, Arg::kXs1, Arg::kVtype};  // vsetvli x1, x2, e32m1
constexpr Format kVMem{Arg::kVd, Arg::kMemV};                // vle32.v v1, (x2)
constexpr Format kVX{Arg::kVd, Arg::kVs2, Arg::kXs1};        // vadd.vx v1, v2, x3
constexpr Format kVI{Arg::kVd, Arg::kVs2, Arg::kSimm5};      // vadd.vi v1, v2, -5
constexpr Format kVUI{Arg::kVd, Arg::kVs2, Arg::kUimm5};     // vslidedown.vi v1, v2, 5
constexpr Format kVMaccX{Arg::kVd, Arg::kXs1, Arg::kVs2};    // vmacc.vx v1, x2, v3
constexpr Format kVMaccF{Arg::kVd, Arg::kFs1, Arg::kVs2};    // vfmacc.vf v1, f2, v3
constexpr Format kVMvI{Arg::kVd, Arg::kSimm5};               // vmv.v.i v1, 5
constexpr Format kXMvS{Arg::kXd, Arg::kVs2};                 // vmv.x.s x1, v2
constexpr Format kFMvS{Arg::kFd, Arg::kVs2};                 // vfmv.f.s f1, v2
constexpr Format kSsrCfg{Arg::kSid, Arg::kXs1, Arg::kXs2};   // ssrcfg 1, x2, x3
constexpr Format kXs1{Arg::kXs1};                            // ssren x1
constexpr Format kVd{Arg::kVd};                              // vindexmacs.v v1
}  // namespace fmt

constexpr StaticInstInfo scalar(std::uint32_t flags, std::uint8_t mem_bytes = 0) {
  return StaticInstInfo{flags, mem_bytes};
}
constexpr StaticInstInfo vec(std::uint32_t flags, std::uint8_t vreg_reads,
                             VLatClass vlat = VLatClass::kNone) {
  return StaticInstInfo{kSiVector | flags, 0, vreg_reads, vlat};
}

// Register-use sets shared by several rows.
constexpr std::uint32_t kXI = kSiReadsXRs1 | kSiWritesX;                 // x[rd] from x[rs1]
constexpr std::uint32_t kXX = kSiReadsXRs1 | kSiReadsXRs2 | kSiWritesX;  // from x[rs1], x[rs2]
constexpr std::uint32_t kBr = kSiBranch | kSiReadsXRs1 | kSiReadsXRs2;
constexpr std::uint32_t kVx = kSiReadsXRs1 | kSiWritesV;  // v[rd] from x[rs1] and vectors
constexpr std::uint32_t kIndexMac = kVx | kSiIndirectVreg | kSiVectorMac;
constexpr std::uint8_t kVdVs2 = kVReadRd | kVReadRs2;  // accumulates vs2 products into vd

using L = VLatClass;

constexpr OpRow kRows[] = {
    {Op::kIllegal, "illegal", 0, 0, fmt::kNone, {}},
    {Op::kLui, "lui", kOpcodeBits, rv(kOpLui), fmt::kU, scalar(kSiWritesX)},
    {Op::kAuipc, "auipc", kOpcodeBits, rv(kOpAuipc), fmt::kU, scalar(kSiWritesX)},
    {Op::kJal, "jal", kOpcodeBits, rv(kOpJal), fmt::kJ, scalar(kSiJump | kSiWritesX)},
    {Op::kJalr, "jalr", kF3Bits, rv(kOpJalr), fmt::kLoad, scalar(kSiJump | kXI)},
    {Op::kBeq, "beq", kF3Bits, rv(kOpBranch, 0b000), fmt::kB, scalar(kBr)},
    {Op::kBne, "bne", kF3Bits, rv(kOpBranch, 0b001), fmt::kB, scalar(kBr)},
    {Op::kBlt, "blt", kF3Bits, rv(kOpBranch, 0b100), fmt::kB, scalar(kBr)},
    {Op::kBge, "bge", kF3Bits, rv(kOpBranch, 0b101), fmt::kB, scalar(kBr)},
    {Op::kBltu, "bltu", kF3Bits, rv(kOpBranch, 0b110), fmt::kB, scalar(kBr)},
    {Op::kBgeu, "bgeu", kF3Bits, rv(kOpBranch, 0b111), fmt::kB, scalar(kBr)},
    {Op::kLw, "lw", kF3Bits, rv(kOpLoad, 0b010), fmt::kLoad, scalar(kSiScalarLoad | kXI, 4)},
    {Op::kLwu, "lwu", kF3Bits, rv(kOpLoad, 0b110), fmt::kLoad, scalar(kSiScalarLoad | kXI, 4)},
    {Op::kLd, "ld", kF3Bits, rv(kOpLoad, 0b011), fmt::kLoad, scalar(kSiScalarLoad | kXI, 8)},
    {Op::kSw, "sw", kF3Bits, rv(kOpStore, 0b010), fmt::kStore,
     scalar(kSiScalarStore | kSiReadsXRs1 | kSiReadsXRs2, 4)},
    {Op::kSd, "sd", kF3Bits, rv(kOpStore, 0b011), fmt::kStore,
     scalar(kSiScalarStore | kSiReadsXRs1 | kSiReadsXRs2, 8)},
    {Op::kFlw, "flw", kF3Bits, rv(kOpLoadFp, 0b010), fmt::kLoadF,
     scalar(kSiScalarLoad | kSiReadsXRs1 | kSiWritesF, 4)},
    {Op::kFsw, "fsw", kF3Bits, rv(kOpStoreFp, 0b010), fmt::kStoreF,
     scalar(kSiScalarStore | kSiReadsXRs1 | kSiReadsFRs2, 4)},
    {Op::kAddi, "addi", kF3Bits, rv(kOpImm, 0b000), fmt::kI, scalar(kXI)},
    {Op::kSlti, "slti", kF3Bits, rv(kOpImm, 0b010), fmt::kI, scalar(kXI)},
    {Op::kSltiu, "sltiu", kF3Bits, rv(kOpImm, 0b011), fmt::kI, scalar(kXI)},
    {Op::kXori, "xori", kF3Bits, rv(kOpImm, 0b100), fmt::kI, scalar(kXI)},
    {Op::kOri, "ori", kF3Bits, rv(kOpImm, 0b110), fmt::kI, scalar(kXI)},
    {Op::kAndi, "andi", kF3Bits, rv(kOpImm, 0b111), fmt::kI, scalar(kXI)},
    {Op::kSlli, "slli", kShiftBits, rv(kOpImm, 0b001), fmt::kShift, scalar(kXI)},
    {Op::kSrli, "srli", kShiftBits, rv(kOpImm, 0b101), fmt::kShift, scalar(kXI)},
    {Op::kSrai, "srai", kShiftBits, rv(kOpImm, 0b101, 0b0100000), fmt::kShift, scalar(kXI)},
    {Op::kAdd, "add", kF7Bits, rv(kOpOp, 0b000), fmt::kR, scalar(kXX)},
    {Op::kSub, "sub", kF7Bits, rv(kOpOp, 0b000, 0b0100000), fmt::kR, scalar(kXX)},
    {Op::kSll, "sll", kF7Bits, rv(kOpOp, 0b001), fmt::kR, scalar(kXX)},
    {Op::kSlt, "slt", kF7Bits, rv(kOpOp, 0b010), fmt::kR, scalar(kXX)},
    {Op::kSltu, "sltu", kF7Bits, rv(kOpOp, 0b011), fmt::kR, scalar(kXX)},
    {Op::kXor, "xor", kF7Bits, rv(kOpOp, 0b100), fmt::kR, scalar(kXX)},
    {Op::kSrl, "srl", kF7Bits, rv(kOpOp, 0b101), fmt::kR, scalar(kXX)},
    {Op::kSra, "sra", kF7Bits, rv(kOpOp, 0b101, 0b0100000), fmt::kR, scalar(kXX)},
    {Op::kOr, "or", kF7Bits, rv(kOpOp, 0b110), fmt::kR, scalar(kXX)},
    {Op::kAnd, "and", kF7Bits, rv(kOpOp, 0b111), fmt::kR, scalar(kXX)},
    {Op::kMul, "mul", kF7Bits, rv(kOpOp, 0b000, 0b0000001), fmt::kR, scalar(kXX)},
    {Op::kEcall, "ecall", ~0u, rv(kOpSystem), fmt::kNone, scalar(kSiHalt)},
    {Op::kEbreak, "ebreak", ~0u, rv(kOpSystem) | (1u << 20), fmt::kNone, scalar(kSiHalt)},
    {Op::kMarker, "marker", kF3Bits | kRdBits | kRs1Bits, rv(kOpCustom0), fmt::kMarker,
     scalar(kSiMarker)},
    {Op::kVsetvli, "vsetvli", kF3Bits | (1u << 31), rv(kOpVec, kCfg), fmt::kVsetvli,
     scalar(kXI)},
    {Op::kVle32, "vle32.v", kF7Bits | kRs2Bits, vmem(kOpLoadFp), fmt::kVMem,
     vec(kSiVectorLoad | kVx, 0)},
    {Op::kVse32, "vse32.v", kF7Bits | kRs2Bits, vmem(kOpStoreFp), fmt::kVMem,
     vec(kSiVectorStore | kSiReadsXRs1, kVReadRd)},  // vs3 sits in the rd slot
    {Op::kVaddVx, "vadd.vx", kF7Bits, vop(0b000000, kIvx), fmt::kVX,
     vec(kVx, kVReadRs2, L::kAlu)},
    {Op::kVaddVi, "vadd.vi", kF7Bits, vop(0b000000, kIvi), fmt::kVI,
     vec(kSiWritesV, kVReadRs2, L::kAlu)},
    {Op::kVmaccVx, "vmacc.vx", kF7Bits, vop(0b101101, kMvx), fmt::kVMaccX,
     vec(kVx | kSiVectorMac, kVdVs2, L::kMac)},
    {Op::kVfmaccVf, "vfmacc.vf", kF7Bits, vop(0b101100, kFvf), fmt::kVMaccF,
     vec(kSiReadsFRs1 | kSiWritesV | kSiVectorMac, kVdVs2, L::kMac)},
    {Op::kVmvVI, "vmv.v.i", kF7Bits | kRs2Bits, vop(0b010111, kIvi), fmt::kVMvI,
     vec(kSiWritesV, 0, L::kMove)},
    {Op::kVmvXS, "vmv.x.s", kF7Bits | kRs1Bits, vop(0b010000, kMvv), fmt::kXMvS,
     vec(kSiVectorToScalar | kSiWritesX, kVReadRs2, L::kMove)},
    {Op::kVfmvFS, "vfmv.f.s", kF7Bits | kRs1Bits, vop(0b010000, kFvv), fmt::kFMvS,
     vec(kSiVectorToScalar | kSiWritesF, kVReadRs2, L::kMove)},
    {Op::kVslidedownVi, "vslidedown.vi", kF7Bits, vop(0b001111, kIvi), fmt::kVUI,
     vec(kSiWritesV, kVReadRs2, L::kSlide)},
    {Op::kVslide1downVx, "vslide1down.vx", kF7Bits, vop(0b001111, kMvx), fmt::kVX,
     vec(kVx, kVReadRs2, L::kSlide)},
    // The custom MACs take funct6 values RVV reserves in the OPIVX space.
    {Op::kVindexmacVx, "vindexmac.vx", kF7Bits, vop(0b110000, kIvx), fmt::kVX,
     vec(kIndexMac, kVdVs2, L::kMac)},
    {Op::kVfindexmacVx, "vfindexmac.vx", kF7Bits, vop(0b110001, kIvx), fmt::kVX,
     vec(kIndexMac, kVdVs2, L::kMac)},
    {Op::kVindexmacpVx, "vindexmacp.vx", kF7Bits, vop(0b110010, kIvx), fmt::kVX,
     vec(kIndexMac | kSiPackedIndex, kVdVs2, L::kMac)},
    {Op::kVfindexmacpVx, "vfindexmacp.vx", kF7Bits, vop(0b110011, kIvx), fmt::kVX,
     vec(kIndexMac | kSiPackedIndex, kVdVs2, L::kMac)},
    {Op::kVindexmac2Vx, "vindexmac2.vx", kF7Bits, vop(0b110100, kIvx), fmt::kVX,
     vec(kIndexMac | kSiPackedIndex | kSiDualMac, kVdVs2, L::kMac)},
    {Op::kVfindexmac2Vx, "vfindexmac2.vx", kF7Bits, vop(0b110101, kIvx), fmt::kVX,
     vec(kIndexMac | kSiPackedIndex | kSiDualMac, kVdVs2, L::kMac)},
    // rd bits 11:9 are zero, so the stream id is 0..3.
    {Op::kSsrCfg, "ssrcfg", kF7Bits | (0b111u << 9), rv(kOpCustom0, 0b001), fmt::kSsrCfg,
     scalar(kSiSsrCtl | kSiReadsXRs1 | kSiReadsXRs2)},
    {Op::kSsrEn, "ssren", kF7Bits | kRdBits | kRs2Bits, rv(kOpCustom0, 0b010), fmt::kXs1,
     scalar(kSiSsrCtl | kSiReadsXRs1)},
    // The A value and the B row index pop from SSR streams 0 and 1.
    {Op::kVindexmacsV, "vindexmacs.v", kF7Bits | kRs1Bits | kRs2Bits, vop(0b110110, kIvx),
     fmt::kVd, vec(kSiWritesV | kSiSsrMac | kSiVectorMac, kVReadRd, L::kMac)},
    {Op::kVfindexmacsV, "vfindexmacs.v", kF7Bits | kRs1Bits | kRs2Bits, vop(0b110111, kIvx),
     fmt::kVd, vec(kSiWritesV | kSiSsrMac | kSiVectorMac, kVReadRd, L::kMac)},
};
static_assert(std::size(kRows) == kNumOps, "one row per isa::Op");

}  // namespace

std::span<const OpRow, kNumOps> op_table() { return kRows; }

const OpRow& op_row(Op op) {
  const auto i = static_cast<std::size_t>(op);
  IMAC_CHECK(i < kNumOps, "unknown op " + std::to_string(i));
  return kRows[i];
}

std::optional<Op> op_named(std::string_view name) {
  for (const OpRow& row : op_table().subspan<1>())
    if (row.mnemonic == name) return row.op;
  return std::nullopt;
}

std::string mnemonic(Op op) { return std::string(op_row(op).mnemonic); }

StaticInstInfo predecode(const Instruction& inst) {
  StaticInstInfo s = op_row(inst.op).info;
  if (inst.rd == 0) s.flags &= ~kSiWritesX;  // x0 discards the write
  return s;
}

}  // namespace indexmac::isa
