#include <gtest/gtest.h>

#include <bit>
#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <random>
#include <vector>

#include "sparse/dense_matrix.h"
#include "sparse/nm_matrix.h"
#include "sparse/packing.h"
#include "sparse/random.h"

namespace indexmac::sparse {
namespace {

// ---------- DenseMatrix ----------

TEST(DenseMatrix, BasicAccess) {
  DenseMatrix<float> m(2, 3, 1.5f);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_FLOAT_EQ(m.at(1, 2), 1.5f);
  m.at(0, 0) = -2.0f;
  EXPECT_FLOAT_EQ(m.row(0)[0], -2.0f);
  EXPECT_THROW((void)m.at(2, 0), SimError);
  EXPECT_THROW((void)m.at(0, 3), SimError);
}

TEST(DenseMatrix, RandomIsDeterministic) {
  const auto a = random_matrix<float>(4, 4, 42, -1.0f, 1.0f);
  const auto b = random_matrix<float>(4, 4, 42, -1.0f, 1.0f);
  const auto c = random_matrix<float>(4, 4, 43, -1.0f, 1.0f);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(DenseMatrix, ReferenceMatmulSmallKnownResult) {
  DenseMatrix<std::int32_t> a(2, 2);
  a.at(0, 0) = 1; a.at(0, 1) = 2;
  a.at(1, 0) = 3; a.at(1, 1) = 4;
  DenseMatrix<std::int32_t> b(2, 2);
  b.at(0, 0) = 5; b.at(0, 1) = 6;
  b.at(1, 0) = 7; b.at(1, 1) = 8;
  const auto c = matmul_reference(a, b);
  EXPECT_EQ(c.at(0, 0), 19);
  EXPECT_EQ(c.at(0, 1), 22);
  EXPECT_EQ(c.at(1, 0), 43);
  EXPECT_EQ(c.at(1, 1), 50);
}

TEST(DenseMatrix, MatmulDimensionMismatchThrows) {
  DenseMatrix<float> a(2, 3), b(4, 2);
  EXPECT_THROW((void)matmul_reference(a, b), SimError);
}

// ---------- N:M validation ----------

TEST(NmValidation, AcceptsCompliantMatrix) {
  DenseMatrix<float> m(1, 8);
  m.at(0, 1) = 1.0f;  // block 0: one non-zero
  m.at(0, 4) = 2.0f;
  m.at(0, 7) = 3.0f;  // block 1: two non-zeros
  EXPECT_TRUE(is_valid_nm(m, kSparsity24));
  EXPECT_FALSE(is_valid_nm(m, kSparsity14));  // block 1 has 2 > 1
}

TEST(NmValidation, RejectsMisalignedColumns) {
  DenseMatrix<float> m(1, 6);
  EXPECT_FALSE(is_valid_nm(m, kSparsity24));
}

// ---------- NmMatrix ----------

TEST(NmMatrix, FromDenseRoundTrips) {
  DenseMatrix<float> m(3, 8);
  m.at(0, 1) = 1.0f;
  m.at(1, 4) = 2.0f;
  m.at(1, 6) = -3.0f;
  m.at(2, 0) = 4.0f;
  const auto nm = NmMatrix<float>::from_dense(m, kSparsity24);
  EXPECT_EQ(nm.to_dense(), m);
  EXPECT_EQ(nm.nnz(), 4u);
  EXPECT_EQ(nm.blocks_per_row(), 2u);
  EXPECT_EQ(nm.slots_per_row(), 4u);
}

TEST(NmMatrix, FromDenseRejectsViolation) {
  DenseMatrix<float> m(1, 4);
  m.at(0, 0) = m.at(0, 1) = m.at(0, 2) = 1.0f;  // 3 nnz in one 4-block
  EXPECT_THROW((void)NmMatrix<float>::from_dense(m, kSparsity24), SimError);
  EXPECT_NO_THROW((void)NmMatrix<float>::from_dense(m, Sparsity{3, 4}));
}

TEST(NmMatrix, PadsColumnsToMultipleOfM) {
  DenseMatrix<float> m(1, 6);
  m.at(0, 5) = 9.0f;
  const auto nm = NmMatrix<float>::from_dense(m, kSparsity24);
  EXPECT_EQ(nm.cols(), 6u);
  EXPECT_EQ(nm.padded_cols(), 8u);
  EXPECT_EQ(nm.to_dense(), m);
}

TEST(NmMatrix, PruneKeepsLargestMagnitudes) {
  DenseMatrix<float> m(1, 4);
  m.at(0, 0) = 0.1f;
  m.at(0, 1) = -5.0f;
  m.at(0, 2) = 3.0f;
  m.at(0, 3) = 0.2f;
  const auto nm = NmMatrix<float>::prune_from_dense(m, kSparsity24);
  const auto d = nm.to_dense();
  EXPECT_FLOAT_EQ(d.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(d.at(0, 1), -5.0f);
  EXPECT_FLOAT_EQ(d.at(0, 2), 3.0f);
  EXPECT_FLOAT_EQ(d.at(0, 3), 0.0f);
}

TEST(NmMatrix, PruneProducesValidNm) {
  const auto dense = random_matrix<float>(16, 64, 7, -1.0f, 1.0f);
  for (const Sparsity sp : {kSparsity14, kSparsity24, Sparsity{1, 2}, Sparsity{2, 8}}) {
    const auto nm = NmMatrix<float>::prune_from_dense(dense, sp);
    EXPECT_TRUE(is_valid_nm(nm.to_dense(), sp)) << sp.n << ":" << sp.m;
    EXPECT_LE(nm.nnz(), dense.rows() * (dense.cols() / sp.m) * sp.n);
  }
}

TEST(NmMatrix, PruneOfSparserInputKeepsEverything) {
  DenseMatrix<float> m(1, 8);
  m.at(0, 2) = 1.0f;
  m.at(0, 5) = 2.0f;
  const auto nm = NmMatrix<float>::prune_from_dense(m, kSparsity24);
  EXPECT_EQ(nm.to_dense(), m);
}

TEST(NmMatrix, IndicesAreLocalToBlock) {
  DenseMatrix<float> m(1, 8);
  m.at(0, 6) = 1.0f;  // block 1, local index 2
  const auto nm = NmMatrix<float>::from_dense(m, kSparsity24);
  EXPECT_EQ(nm.index_at(0, 1, 0), 2);
  EXPECT_FLOAT_EQ(nm.value_at(0, 1, 0), 1.0f);
  // Padding slot uses index m-1 with zero value.
  EXPECT_EQ(nm.index_at(0, 1, 1), 3);
  EXPECT_FLOAT_EQ(nm.value_at(0, 1, 1), 0.0f);
}

TEST(NmMatrix, SparsityInvariantChecked) {
  // M = 0 must raise before anything divides by it, not die with SIGFPE.
  const DenseMatrix<float> m(1, 4);
  for (const Sparsity sp : {Sparsity{1, 0}, Sparsity{0, 4}, Sparsity{5, 4}}) {
    SCOPED_TRACE(std::to_string(sp.n) + ":" + std::to_string(sp.m));
    EXPECT_THROW((void)checked(sp), SimError);
    EXPECT_THROW((void)NmMatrix<float>::from_dense(m, sp), SimError);
    EXPECT_THROW((void)NmMatrix<float>::prune_from_dense(m, sp), SimError);
    EXPECT_THROW((void)NmMatrix<float>::random(1, 4, sp, 1, -1.0f, 1.0f), SimError);
    EXPECT_THROW((void)NmDraw(4, sp, 1, -1.0f, 1.0f), SimError);
  }
}

TEST(NmMatrix, PruneTieKeepsTheEarliest) {
  DenseMatrix<float> m(1, 8);
  for (std::size_t c = 0; c < 4; ++c) m.at(0, c) = c % 2 == 0 ? 1.0f : -1.0f;
  m.at(0, 4) = 0.5f;  // block 1: the tied 2.0s at 5 and 7 beat 0.5
  m.at(0, 5) = 2.0f;
  m.at(0, 7) = -2.0f;
  const auto nm = NmMatrix<float>::prune_from_dense(m, kSparsity24);
  EXPECT_EQ(nm.index_at(0, 0, 0), 0);
  EXPECT_EQ(nm.index_at(0, 0, 1), 1);
  EXPECT_EQ(nm.index_at(0, 1, 0), 1);
  EXPECT_EQ(nm.index_at(0, 1, 1), 3);
  EXPECT_FLOAT_EQ(nm.value_at(0, 1, 1), -2.0f);
}

TEST(NmMatrix, PruneStoresAKeptZeroAsPadding) {
  DenseMatrix<float> m(1, 4);
  m.at(0, 2) = 0.25f;  // the other kept value is the zero at column 0
  const auto nm = NmMatrix<float>::prune_from_dense(m, kSparsity24);
  EXPECT_EQ(nm.index_at(0, 0, 0), 2);
  EXPECT_FLOAT_EQ(nm.value_at(0, 0, 0), 0.25f);
  EXPECT_EQ(nm.index_at(0, 0, 1), 3);
  EXPECT_FLOAT_EQ(nm.value_at(0, 0, 1), 0.0f);
}

// ---------- the draw ----------

/// The std draw that UniformFloats replaces, as the reference.
std::vector<float> std_draw(std::uint32_t seed, float lo, float hi, std::size_t count) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(lo, hi);
  std::vector<float> out(count);
  for (float& v : out) v = dist(rng);
  return out;
}

/// Bit patterns, so that every value, -0.0 included, compares exactly.
std::vector<std::uint32_t> bits_of(const std::vector<float>& values) {
  std::vector<std::uint32_t> out(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) out[i] = std::bit_cast<std::uint32_t>(values[i]);
  return out;
}

TEST(UniformFloats, EqualsTheStdDistributionBitForBit) {
  // A count that is no multiple of the 624-word state, drawn in uneven
  // pieces, so refills land inside a piece.
  constexpr std::size_t kCount = 1'000'003;
  for (const std::uint32_t seed : {0u, 1u, 5489u, 12345u, 12346u, 4294967295u})
    for (const auto& [lo, hi] : {std::pair{-1.0f, 1.0f}, std::pair{-3.5f, 10.25f}}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " [" + std::to_string(lo) + ", " +
                   std::to_string(hi) + "]");
      UniformFloats draw(seed, lo, hi);
      std::vector<float> got(kCount);
      for (std::size_t at = 0, piece = 1; at < kCount; at += piece, piece = piece % 997 + 3)
        draw.fill(std::span(got).subspan(at, std::min(piece, kCount - at)));
      ASSERT_EQ(bits_of(got), bits_of(std_draw(seed, lo, hi, kCount)));
    }
}

/// An engine that returns one chosen word, with mt19937's range, so the
/// std distribution maps exactly that word.
struct OneWord {
  using result_type = std::uint32_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return 0xffff'ffffu; }
  result_type operator()() const { return word; }
  result_type word = 0;
};

TEST(UniformFloats, MapsEachWordAsTheStdDistributionDoes) {
  // Every word from 2^32 - 65536 up, where float(x) * 2^-32 rounds to 1 and
  // is clamped for the top 128, and a strided sweep of all the others.
  const auto same = [](std::uint32_t word, float lo, float hi) {
    OneWord engine{word};
    std::uniform_real_distribution<float> dist(lo, hi);
    return std::bit_cast<std::uint32_t>(uniform_float(word, lo, hi)) ==
           std::bit_cast<std::uint32_t>(dist(engine));
  };
  for (const auto& [lo, hi] : {std::pair{-1.0f, 1.0f}, std::pair{-3.5f, 10.25f}}) {
    for (std::uint64_t word = 0xffff'0000u; word <= 0xffff'ffffu; ++word)
      ASSERT_TRUE(same(static_cast<std::uint32_t>(word), lo, hi)) << "word " << word;
    for (std::uint64_t word = 0; word < 0xffff'0000u; word += 4099)
      ASSERT_TRUE(same(static_cast<std::uint32_t>(word), lo, hi)) << "word " << word;
  }
  EXPECT_EQ(uniform_float(0xffff'ffffu, 0.0f, 1.0f), std::nextafter(1.0f, 0.0f));
}

/// Magnitude pruning's rule as N rounds, each keeping the largest value not
/// yet kept, the earliest on a tie: the reference for keep_largest.
std::vector<std::uint8_t> kept_by_rounds(const std::vector<float>& block, unsigned n) {
  std::vector<std::uint8_t> kept(block.size(), 0);
  for (unsigned round = 0; round < n; ++round) {
    std::size_t best = block.size();
    for (std::size_t j = 0; j < block.size(); ++j)
      if (kept[j] == 0 && (best == block.size() || std::abs(block[j]) > std::abs(block[best])))
        best = j;
    if (best < block.size()) kept[best] = 1;
  }
  return kept;
}

TEST(KeepRule, EqualsTheRoundRule) {
  // Random blocks, blocks whose magnitudes tie (a few values, both signs)
  // and blocks with zeros, at every N:M with M = 4, 8, 16, and at every
  // width up to M (a partial last block).
  std::mt19937 rng(7);
  std::uniform_real_distribution<float> any(-1.0f, 1.0f);
  const std::vector<float> tied = {0.5f, -0.5f, 0.25f, -0.25f, 1.0f, 0.0f, -0.0f};
  std::uniform_int_distribution<std::size_t> pick(0, tied.size() - 1);
  std::bernoulli_distribution zero(0.3);
  const std::array<std::function<float()>, 3> kinds = {
      [&] { return any(rng); }, [&] { return tied[pick(rng)]; },
      [&] { return zero(rng) ? 0.0f : any(rng); }};
  for (const unsigned m : {4u, 8u, 16u})
    for (unsigned n = 1; n <= m; ++n)
      for (unsigned width = 1; width <= m; ++width)
        for (std::size_t kind = 0; kind < kinds.size(); ++kind)
          for (int trial = 0; trial < 50; ++trial) {
            std::vector<float> block(width);
            for (float& v : block) v = kinds[kind]();
            std::vector<std::uint8_t> kept(m, 9);
            keep_largest<float>(block, n, kept);
            kept.resize(width);
            ASSERT_EQ(kept, kept_by_rounds(block, n))
                << n << ":" << m << " width " << width << " kind " << kind;
          }
}

/// NmMatrix::random draws and prunes block by block exactly what pruning
/// the dense random matrix would: same values, indices and padding slots, bit
/// for bit, including partial last blocks.
TEST(NmMatrix, RandomEqualsPruningTheDenseRandomMatrix) {
  for (const Sparsity sp : {kSparsity14, kSparsity24, Sparsity{2, 8}, Sparsity{1, 8},
                            Sparsity{3, 8}, Sparsity{2, 16}})
    for (const std::size_t rows : {1u, 5u, 16u})
      for (const std::size_t cols : {1u, 3u, 27u, 64u, 4097u})
        for (const std::uint32_t seed : {1u, 12345u, 4294967295u}) {
          const auto built = NmMatrix<float>::random(rows, cols, sp, seed, -1.0f, 1.0f);
          const auto want = NmMatrix<float>::prune_from_dense(
              random_matrix<float>(rows, cols, seed, -1.0f, 1.0f), sp);
          ASSERT_EQ(built.rows(), rows);
          ASSERT_EQ(built.cols(), cols);
          ASSERT_EQ(built.blocks_per_row(), want.blocks_per_row());
          for (std::size_t r = 0; r < rows; ++r)
            for (std::size_t b = 0; b < built.blocks_per_row(); ++b)
              for (unsigned s = 0; s < sp.n; ++s) {
                ASSERT_EQ(std::bit_cast<std::uint32_t>(built.value_at(r, b, s)),
                          std::bit_cast<std::uint32_t>(want.value_at(r, b, s)))
                    << sp.n << ":" << sp.m << " " << rows << "x" << cols << " seed " << seed
                    << " at (" << r << ", " << b << ", " << s << ")";
                ASSERT_EQ(built.index_at(r, b, s), want.index_at(r, b, s))
                    << sp.n << ":" << sp.m << " " << rows << "x" << cols << " seed " << seed
                    << " at (" << r << ", " << b << ", " << s << ")";
              }
        }
}

TEST(NmMatrix, SpmmReferenceMatchesDenseGemm) {
  const auto dense_a = random_matrix<float>(8, 32, 11, -1.0f, 1.0f);
  const auto b = random_matrix<float>(32, 12, 13, -1.0f, 1.0f);
  const auto nm = NmMatrix<float>::prune_from_dense(dense_a, kSparsity24);
  const auto via_sparse = spmm_reference(nm, b);
  const auto via_dense = matmul_reference(nm.to_dense(), b);
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t j = 0; j < 12; ++j)
      EXPECT_FLOAT_EQ(via_sparse.at(i, j), via_dense.at(i, j));
}

// ---------- Packing ----------

TEST(Packing, VrfIndexModeProducesRegisterNumbers) {
  DenseMatrix<float> m(1, 16);
  m.at(0, 2) = 1.0f;    // ktile 0, block 0, local 2 -> vreg 16+2
  m.at(0, 13) = 2.0f;   // ktile 0, block 3, local 1 -> vreg 16+13
  const auto nm = NmMatrix<float>::from_dense(m, kSparsity14);
  const auto packed = pack_a(nm, PackConfig{.tile_rows = 16, .mode = IndexMode::kVrfIndex});
  EXPECT_EQ(packed.num_ktiles, 1u);
  EXPECT_EQ(packed.slots_per_tile, 4u);
  EXPECT_EQ(packed.indices[0], 16 + 2);
  EXPECT_EQ(packed.indices[3], 16 + 13);
  EXPECT_FLOAT_EQ(packed.values[0], 1.0f);
  EXPECT_FLOAT_EQ(packed.values[3], 2.0f);
}

TEST(Packing, ByteOffsetModeProducesGlobalOffsets) {
  DenseMatrix<float> m(1, 32);
  m.at(0, 18) = 5.0f;  // ktile 1 (rows 16..31), row-in-tile 2, global row 18
  const auto nm = NmMatrix<float>::from_dense(m, kSparsity14);
  const auto packed = pack_a(
      nm, PackConfig{.tile_rows = 16, .mode = IndexMode::kByteOffset, .b_pitch_bytes = 256});
  EXPECT_EQ(packed.num_ktiles, 2u);
  const std::size_t base = packed.slot_offset(1, 0);
  EXPECT_EQ(packed.indices[base + 0], 18 * 256);
  EXPECT_FLOAT_EQ(packed.values[base + 0], 5.0f);
}

TEST(Packing, PadsKtilesToTileRows) {
  DenseMatrix<float> m(2, 20);  // 20 cols -> padded to 32 with L=16
  m.at(0, 19) = 1.0f;
  const auto nm = NmMatrix<float>::from_dense(m, kSparsity24);
  const auto packed = pack_a(nm, PackConfig{.tile_rows = 16, .mode = IndexMode::kVrfIndex});
  EXPECT_EQ(packed.k_padded, 32u);
  EXPECT_EQ(packed.num_ktiles, 2u);
  // All padding slots must carry zero values and in-range vreg indices.
  for (std::size_t i = 0; i < packed.indices.size(); ++i) {
    EXPECT_GE(packed.indices[i], 16);
    EXPECT_LT(packed.indices[i], 32);
  }
}

TEST(Packing, TileRowsMustBeMultipleOfM) {
  DenseMatrix<float> m(1, 8);
  const auto nm = NmMatrix<float>::from_dense(m, kSparsity24);
  EXPECT_THROW((void)pack_a(nm, PackConfig{.tile_rows = 6}), SimError);
}

TEST(Packing, ByteOffsetRequiresPitch) {
  DenseMatrix<float> m(1, 8);
  const auto nm = NmMatrix<float>::from_dense(m, kSparsity24);
  EXPECT_THROW(
      (void)pack_a(nm, PackConfig{.tile_rows = 8, .mode = IndexMode::kByteOffset}),
      SimError);
}

TEST(Packing, PaddedRowImageLayout) {
  DenseMatrix<float> m(2, 3);
  m.at(0, 0) = 1.0f;
  m.at(1, 2) = 2.0f;
  const auto image = to_padded_rows(m, 16, 4);
  EXPECT_EQ(image.size(), 64u);
  EXPECT_FLOAT_EQ(image[0], 1.0f);
  EXPECT_FLOAT_EQ(image[16 + 2], 2.0f);
  EXPECT_FLOAT_EQ(image[32], 0.0f);  // padded row
  EXPECT_THROW((void)to_padded_rows(m, 2, 4), SimError);
  EXPECT_THROW((void)to_padded_rows(m, 16, 1), SimError);
}

/// Property: for random matrices and all sparsities, applying the packed
/// operands (as the kernels would) reproduces the reference SpMM exactly.
class PackedSpmmProperty
    : public ::testing::TestWithParam<std::tuple<Sparsity, int /*rows*/, int /*k*/, int /*bcols*/>> {};

TEST_P(PackedSpmmProperty, PackedStreamsReproduceReference) {
  const auto [sp, rows, k, bcols] = GetParam();
  const auto dense_a =
      random_matrix<float>(static_cast<std::size_t>(rows), static_cast<std::size_t>(k),
                           777u + sp.n * 13 + sp.m, -2.0f, 2.0f);
  const auto nm = NmMatrix<float>::prune_from_dense(dense_a, sp);
  const auto b = random_matrix<float>(static_cast<std::size_t>(k), static_cast<std::size_t>(bcols),
                                      999u, -1.0f, 1.0f);
  const auto reference = spmm_reference(nm, b);

  const unsigned l = 16;
  const std::size_t k_padded = round_up(round_up(k, sp.m), l);
  const std::size_t pitch = 16;  // elements
  const auto b_image = to_padded_rows(b, pitch, k_padded);

  // VRF mode.
  const auto packed_v = pack_a(nm, PackConfig{.tile_rows = l, .mode = IndexMode::kVrfIndex});
  const auto c_v = packed_spmm_reference(packed_v, b_image, pitch, b.cols());
  // Byte-offset mode.
  const auto packed_b = pack_a(nm, PackConfig{.tile_rows = l,
                                              .mode = IndexMode::kByteOffset,
                                              .b_pitch_bytes = pitch * 4});
  const auto c_b = packed_spmm_reference(packed_b, b_image, pitch, b.cols());

  for (std::size_t i = 0; i < reference.rows(); ++i)
    for (std::size_t j = 0; j < reference.cols(); ++j) {
      EXPECT_NEAR(c_v.at(i, j), reference.at(i, j), 1e-3) << i << "," << j;
      EXPECT_NEAR(c_b.at(i, j), reference.at(i, j), 1e-3) << i << "," << j;
    }
}

INSTANTIATE_TEST_SUITE_P(
    SparsitiesAndShapes, PackedSpmmProperty,
    ::testing::Values(std::make_tuple(kSparsity14, 4, 16, 8),
                      std::make_tuple(kSparsity24, 4, 16, 8),
                      std::make_tuple(kSparsity14, 7, 35, 5),   // ragged shapes
                      std::make_tuple(kSparsity24, 7, 35, 5),
                      std::make_tuple(Sparsity{1, 2}, 3, 24, 10),
                      std::make_tuple(Sparsity{2, 8}, 5, 40, 12),
                      std::make_tuple(kSparsity24, 1, 64, 16),
                      std::make_tuple(kSparsity14, 16, 16, 1)));

}  // namespace
}  // namespace indexmac::sparse
