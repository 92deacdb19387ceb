// Every 32-bit word through decode, encode and disassemble, in one pass,
// pinned by FNV-1a 64 digests. The pass takes under a minute in Release,
// too long for tier-1, so this binary is built but not registered with
// ctest; the CI isa-exhaustive job runs it.
//
// Adding or removing an op changes the constants below. Derive the new ones
// from the old table with the op's words skipped (or added) and the ops
// after it renumbered, so that they show only that op's words moved: the
// legal-word count changes by exactly the words its row accepts.
#include <gtest/gtest.h>

#include <cstdint>

#include "isa/encoding.h"
#include "isa_test_util.h"

namespace indexmac::isa {
namespace {

TEST(IsaExhaustive, EveryWordDecodesReencodesAndDisassemblesAsPinned) {
  // Decode digest: per legal word, the word, then op<<24 | rd<<16 | rs1<<8
  // | rs2, then uint32(imm), each as 8 little-endian bytes. Disassembly
  // digest: per legal word, its text and '\n'.
  Fnv1a decoded;
  Fnv1a listing;
  std::uint64_t legal = 0;
  std::uint64_t not_reencoded = 0;
  for (std::uint64_t w64 = 0; w64 <= UINT32_MAX; ++w64) {
    const auto w = static_cast<std::uint32_t>(w64);
    const Instruction in = decode(w);
    if (in.op == Op::kIllegal) continue;
    ++legal;
    decoded.u64(w);
    decoded.u64(static_cast<std::uint64_t>(in.op) << 24 | std::uint64_t{in.rd} << 16 |
                std::uint64_t{in.rs1} << 8 | in.rs2);
    decoded.u64(static_cast<std::uint32_t>(in.imm));
    if (const std::uint32_t back = encode(in); back != w && ++not_reencoded <= 5)
      ADD_FAILURE() << std::hex << "encode(decode(0x" << w << ")) = 0x" << back;
    listing.text(disassemble(in));
    listing.byte('\n');
  }
  EXPECT_EQ(legal, 187610210u);
  EXPECT_EQ(not_reencoded, 0u);
  EXPECT_EQ(decoded.hash, 0x2f36d92be5b5837aull);
  EXPECT_EQ(listing.hash, 0xf08b629b3b912a22ull);
}

}  // namespace
}  // namespace indexmac::isa
