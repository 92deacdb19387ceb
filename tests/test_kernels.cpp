// Functional correctness of the generated kernels: every algorithm,
// dataflow, unroll factor, sparsity and shape (including ragged tails) must
// reproduce the scalar reference SpMM bit-for-bit-close on the functional
// simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/error.h"
#include "core/spmm_problem.h"
#include "fsim/machine.h"

namespace indexmac::core {
namespace {

using kernels::Dataflow;
using kernels::GemmDims;
using sparse::kSparsity14;
using sparse::kSparsity24;
using sparse::Sparsity;

/// Runs `config` on the functional simulator and compares against the
/// reference result.
void expect_correct(const SpmmProblem& problem, const RunConfig& config,
                    double tolerance = 2e-3) {
  MainMemory mem;
  const PreparedRun run = prepare(problem, config, mem);
  Machine machine(run.program, mem);
  const StopReason stop = machine.run(200'000'000);
  ASSERT_EQ(stop, StopReason::kEbreak) << "kernel did not halt";
  const auto c = read_c(run, mem);
  const auto ref = problem.reference();
  ASSERT_EQ(c.rows(), ref.rows());
  ASSERT_EQ(c.cols(), ref.cols());
  for (std::size_t i = 0; i < ref.rows(); ++i)
    for (std::size_t j = 0; j < ref.cols(); ++j)
      ASSERT_NEAR(c.at(i, j), ref.at(i, j), tolerance)
          << algorithm_name(config.algorithm) << " mismatch at (" << i << "," << j << ")";
}

TEST(Kernels, IndexmacSmallest) {
  const auto problem = SpmmProblem::random({1, 16, 16}, kSparsity14, 3);
  expect_correct(problem, RunConfig{.algorithm = Algorithm::kIndexmac,
                                    .kernel = {.unroll = 1}});
}

TEST(Kernels, IndexmacSingleColumnOfB) {
  const auto problem = SpmmProblem::random({5, 32, 1}, kSparsity24, 4);
  expect_correct(problem, RunConfig{.algorithm = Algorithm::kIndexmac,
                                    .kernel = {.unroll = 2}});
}

TEST(Kernels, IndexmacRowsNotMultipleOfUnroll) {
  const auto problem = SpmmProblem::random({7, 32, 20}, kSparsity24, 5);
  expect_correct(problem, RunConfig{.algorithm = Algorithm::kIndexmac,
                                    .kernel = {.unroll = 4}});
}

TEST(Kernels, IndexmacKNotMultipleOfTile) {
  const auto problem = SpmmProblem::random({4, 23, 16}, kSparsity14, 6);
  expect_correct(problem, RunConfig{.algorithm = Algorithm::kIndexmac,
                                    .kernel = {.unroll = 2}});
}

TEST(Kernels, Algorithm4Smallest) {
  const auto problem = SpmmProblem::random({1, 16, 16}, kSparsity14, 3);
  expect_correct(problem, RunConfig{.algorithm = Algorithm::kIndexmac4,
                                    .kernel = {.unroll = 1}});
}

TEST(Kernels, Algorithm4RowsNotMultipleOfUnroll) {
  const auto problem = SpmmProblem::random({7, 32, 20}, kSparsity24, 5);
  expect_correct(problem, RunConfig{.algorithm = Algorithm::kIndexmac4,
                                    .kernel = {.unroll = 4}});
}

TEST(Kernels, Algorithm4OddSlotCountUsesPackedTail) {
  // 3:8 with L=8 gives 3 slots per (row, k-tile): one dual-row MAC plus a
  // trailing single packed MAC.
  const auto problem = SpmmProblem::random({5, 48, 17}, Sparsity{3, 8}, 12);
  expect_correct(problem, RunConfig{.algorithm = Algorithm::kIndexmac4,
                                    .kernel = {.unroll = 2},
                                    .tile_rows = 8});
}

TEST(Kernels, Algorithm4SingleSlotPerTile) {
  // L=4 at 1:4 leaves one slot per (row, k-tile): no dual-row MAC at all.
  const auto problem = SpmmProblem::random({3, 16, 16}, kSparsity14, 10);
  expect_correct(problem, RunConfig{.algorithm = Algorithm::kIndexmac4,
                                    .kernel = {.unroll = 1},
                                    .tile_rows = 4});
}

TEST(Kernels, Algorithm4SmallerTile) {
  // L=8: the tile sits in v24..v31; packed nibbles must land there.
  const auto problem = SpmmProblem::random({6, 40, 24}, kSparsity24, 9);
  expect_correct(problem, RunConfig{.algorithm = Algorithm::kIndexmac4,
                                    .kernel = {.unroll = 4},
                                    .tile_rows = 8});
}

TEST(Kernels, Algorithm4MarkersDoNotPerturbResults) {
  const auto problem = SpmmProblem::random({5, 32, 18}, kSparsity24, 11);
  expect_correct(problem, RunConfig{.algorithm = Algorithm::kIndexmac4,
                                    .kernel = {.unroll = 4, .emit_markers = true}});
}

TEST(Kernels, Algorithm4IsBStationaryOnly) {
  kernels::SpmmLayout layout;  // never used: the check fires first
  EXPECT_THROW((void)kernels::emit_algorithm4(
                   layout, kernels::KernelOptions{.dataflow = Dataflow::kCStationary}),
               SimError);
}

TEST(Kernels, Algorithm4FootprintDropsIndexStripLoads) {
  AddressAllocator alloc;
  const auto layout = kernels::make_layout({8, 64, 32}, kSparsity14, 16, alloc);
  const auto fp3 = kernels::predict_indexmac_footprint(layout);
  const auto fp4 = kernels::predict_algorithm4_footprint(layout);
  EXPECT_EQ(fp4.macs, fp3.macs);
  EXPECT_EQ(fp4.vector_stores, fp3.vector_stores);
  // Alg4 replaces the per-row index strip vle32 with one scalar ld.
  const std::uint64_t strips = 2, ktiles = 4, rows = 8;
  EXPECT_EQ(fp3.vector_loads - fp4.vector_loads, strips * ktiles * rows);
  EXPECT_EQ(fp4.scalar_loads, strips * ktiles * rows);
  EXPECT_EQ(fp3.scalar_loads, 0u);
}

TEST(Kernels, SsrSmallest) {
  const auto problem = SpmmProblem::random({1, 16, 16}, kSparsity14, 3);
  expect_correct(problem, RunConfig{.algorithm = Algorithm::kSsr, .kernel = {.unroll = 1}});
}

TEST(Kernels, SsrRaggedShape) {
  const auto problem = SpmmProblem::random({9, 50, 33}, kSparsity24, 21);
  expect_correct(problem, RunConfig{.algorithm = Algorithm::kSsr, .kernel = {.unroll = 1}});
}

TEST(Kernels, SsrSmallerTile) {
  const auto problem = SpmmProblem::random({6, 40, 24}, kSparsity24, 9);
  expect_correct(problem, RunConfig{.algorithm = Algorithm::kSsr,
                                    .kernel = {.unroll = 1},
                                    .tile_rows = 8});
}

TEST(Kernels, SsrMarkersDoNotPerturbResults) {
  const auto problem = SpmmProblem::random({5, 32, 18}, kSparsity24, 11);
  expect_correct(problem, RunConfig{.algorithm = Algorithm::kSsr,
                                    .kernel = {.unroll = 1, .emit_markers = true}});
}

TEST(Kernels, SsrRejectsUnrollAboveOne) {
  // Streams deliver A strictly sequentially; row-group unrolling would
  // need the [ktile][row][slot] order interleaved, so the generator
  // documents unroll=1 only.
  const auto problem = SpmmProblem::random({2, 16, 16}, kSparsity14, 13);
  MainMemory mem;
  EXPECT_THROW(
      (void)prepare(problem,
                    RunConfig{.algorithm = Algorithm::kSsr, .kernel = {.unroll = 2}}, mem),
      SimError);
}

TEST(Kernels, SsrKernelIsBStationaryOnly) {
  kernels::SpmmLayout layout;  // never used: the check fires first
  EXPECT_THROW((void)kernels::emit_algorithm_ssr(
                   layout, kernels::KernelOptions{.dataflow = Dataflow::kCStationary}),
               SimError);
}

TEST(Kernels, SsrFootprintReplacesAStripLoadsWithStreamLines) {
  AddressAllocator alloc;
  const auto layout = kernels::make_layout({8, 64, 32}, kSparsity14, 16, alloc);
  const auto fp3 = kernels::predict_indexmac_footprint(layout);
  const auto fps = kernels::predict_ssr_footprint(layout);
  EXPECT_EQ(fps.macs, fp3.macs);
  EXPECT_EQ(fps.vector_stores, fp3.vector_stores);
  EXPECT_EQ(fps.scalar_loads, 0u);
  // Alg3 loads a value strip and an index strip per (strip, ktile, row);
  // the SSR kernel fetches each stream's 64-byte lines instead, re-walking
  // the window once per strip.
  const std::uint64_t strips = 2, ktiles = 4, rows = 8;
  const std::uint64_t words = layout.a_stream_words();
  const std::uint64_t lines_per_stream = (4 * words + 63) / 64;  // 64B-aligned base
  EXPECT_EQ(fp3.vector_loads - fps.vector_loads,
            2 * strips * ktiles * rows - 2 * strips * lines_per_stream);
}

TEST(Kernels, RowwiseSmallest) {
  const auto problem = SpmmProblem::random({1, 16, 16}, kSparsity14, 7);
  expect_correct(problem, RunConfig{.algorithm = Algorithm::kRowwiseSpmm,
                                    .kernel = {.unroll = 1}});
}

TEST(Kernels, DenseRowwiseMatchesReference) {
  const auto problem = SpmmProblem::random({6, 40, 33}, kSparsity24, 8);
  expect_correct(problem, RunConfig{.algorithm = Algorithm::kDenseRowwise,
                                    .kernel = {.unroll = 1}});
}

TEST(Kernels, IndexmacSmallerTile) {
  // L=8: B tile occupies v24..v31; packing must target the same registers.
  const auto problem = SpmmProblem::random({6, 40, 24}, kSparsity24, 9);
  expect_correct(problem, RunConfig{.algorithm = Algorithm::kIndexmac,
                                    .kernel = {.unroll = 4},
                                    .tile_rows = 8});
}

TEST(Kernels, IndexmacTileRowsFour) {
  const auto problem = SpmmProblem::random({3, 16, 16}, kSparsity14, 10);
  expect_correct(problem, RunConfig{.algorithm = Algorithm::kIndexmac,
                                    .kernel = {.unroll = 1},
                                    .tile_rows = 4});
}

TEST(Kernels, MarkersDoNotPerturbResults) {
  const auto problem = SpmmProblem::random({5, 32, 18}, kSparsity24, 11);
  expect_correct(problem, RunConfig{.algorithm = Algorithm::kIndexmac,
                                    .kernel = {.unroll = 4, .emit_markers = true}});
  expect_correct(problem, RunConfig{.algorithm = Algorithm::kRowwiseSpmm,
                                    .kernel = {.unroll = 4, .emit_markers = true}});
}

TEST(Kernels, Sparsity12And28) {
  for (const Sparsity sp : {Sparsity{1, 2}, Sparsity{2, 8}}) {
    const auto problem = SpmmProblem::random({5, 48, 17}, sp, 12);
    expect_correct(problem, RunConfig{.algorithm = Algorithm::kIndexmac,
                                      .kernel = {.unroll = 2}});
    expect_correct(problem, RunConfig{.algorithm = Algorithm::kRowwiseSpmm,
                                      .kernel = {.unroll = 2}});
  }
}

TEST(Kernels, DenseAlgorithmRejectsUnrollAboveOne) {
  const auto problem = SpmmProblem::random({2, 16, 16}, kSparsity14, 13);
  MainMemory mem;
  EXPECT_THROW((void)prepare(problem,
                             RunConfig{.algorithm = Algorithm::kDenseRowwise,
                                       .kernel = {.unroll = 2}},
                             mem),
               SimError);
}

TEST(Kernels, IndexmacKernelIsBStationaryOnly) {
  kernels::SpmmLayout layout;  // never used: the check fires first
  EXPECT_THROW((void)kernels::emit_indexmac_kernel(
                   layout, kernels::KernelOptions{.dataflow = Dataflow::kCStationary}),
               SimError);
}

TEST(Kernels, FootprintPredictionsDifferByBLoads) {
  AddressAllocator alloc;
  const auto layout = kernels::make_layout({8, 64, 32}, kSparsity14, 16, alloc);
  const auto fp3 = kernels::predict_indexmac_footprint(layout);
  const auto fp2 = kernels::predict_rowwise_footprint(layout);
  EXPECT_EQ(fp3.macs, fp2.macs);
  EXPECT_EQ(fp3.vector_stores, fp2.vector_stores);
  // Alg2 loads one B row per non-zero slot; Alg3 preloads L rows per tile.
  const std::uint64_t strips = 2, ktiles = 4, rows = 8, slots = 4;
  EXPECT_EQ(fp2.vector_loads - strips * ktiles * rows * slots + strips * ktiles * 16,
            fp3.vector_loads);
}

/// prepare() writes each operand row by row or k-tile by k-tile. Read back
/// through MainMemory, the image must equal the whole-matrix forms: packed A
/// equals pack_a, B equals problem.b at its pitch, dense A equals
/// to_padded_rows(to_dense()), and every padding element reads zero. The
/// shapes have k off every multiple of M and L, several k-tiles, and a
/// column count off a multiple of 16.
TEST(OperandImage, EveryFamilyMatchesTheWholeMatrixForms) {
  for (const GemmDims dims : {GemmDims{7, 27, 21}, GemmDims{5, 45, 3}})
    for (const Sparsity sp : {kSparsity14, kSparsity24, Sparsity{2, 8}})
      for (const AlgorithmRow& family : algorithm_table()) {
        SCOPED_TRACE(std::string(family.id) + " " + std::to_string(sp.n) + ":" +
                     std::to_string(sp.m) + " k " + std::to_string(dims.k));
        const auto problem = SpmmProblem::random(dims, sp, 9);
        MainMemory mem;
        const RunConfig config{.algorithm = family.algorithm, .kernel = {.unroll = 1}};
        const PreparedRun run = prepare(problem, config, mem);
        const kernels::SpmmLayout& l = run.layout;

        for (std::size_t r = 0; r < l.k_padded; ++r) {
          const auto row = mem.read_f32s(l.b_base + r * l.b_pitch_elems * 4, l.b_pitch_elems);
          for (std::size_t c = 0; c < l.b_pitch_elems; ++c)
            ASSERT_EQ(row[c], r < dims.k && c < dims.cols_b ? problem.b.at(r, c) : 0.0f)
                << "B at (" << r << ", " << c << ")";
        }

        if (family.dense_operands) {
          // The dense A follows the layout's operands, at a pitch of whole
          // vectors.
          AddressAllocator alloc;
          (void)kernels::make_layout(dims, sp, config.tile_rows, alloc);
          const std::size_t pitch = round_up(dims.k, isa::kVlMax);
          const std::uint64_t a_base = alloc.alloc(dims.rows_a * pitch * 4);
          const auto want = sparse::to_padded_rows(problem.a.to_dense(), pitch, dims.rows_a);
          ASSERT_EQ(mem.read_f32s(a_base, want.size()), want);
          continue;
        }
        const auto packed = sparse::pack_a(
            problem.a, sparse::PackConfig{
                           .tile_rows = config.tile_rows,
                           .mode = family.index_mode,
                           .b_pitch_bytes = static_cast<std::uint32_t>(l.b_pitch_elems * 4),
                           .base_vreg = kernels::b_tile_base_vreg(config.tile_rows)});
        ASSERT_GT(packed.num_ktiles, 1u);
        ASSERT_EQ(packed.values.size(), l.a_stream_words());
        ASSERT_EQ(mem.read_f32s(l.a_values, packed.values.size()), packed.values);
        const auto indices = mem.read_i32s(l.a_indices, l.a_index_bytes() / 4);
        for (std::size_t w = 0; w < indices.size(); ++w)
          ASSERT_EQ(indices[w], w < packed.indices.size() ? packed.indices[w] : 0)
              << "index word " << w;
      }
}

/// Every byte of two images from the first operand up to `end`, compared
/// page by page.
void expect_same_image(const MainMemory& got, const MainMemory& want, std::uint64_t end) {
  constexpr std::size_t kWords = MainMemory::kPageBytes / 4;
  std::vector<std::uint32_t> got_page(kWords);
  std::vector<std::uint32_t> want_page(kWords);
  for (std::uint64_t page = AddressAllocator::kStart; page < end; page += MainMemory::kPageBytes) {
    got.read_u32_block(page, got_page.data(), kWords);
    want.read_u32_block(page, want_page.data(), kWords);
    ASSERT_EQ(got_page, want_page) << "page 0x" << std::hex << page;
  }
}

/// Past every operand a prepared run placed: C, and the dense A after it.
std::uint64_t image_end(const kernels::SpmmLayout& l) {
  return l.c_base + l.dims.rows_a * (l.c_pitch_elems + round_up(l.dims.k, isa::kVlMax)) * 4 +
         MainMemory::kPageBytes;
}

TEST(OperandImage, SeedPathEqualsPreparingTheDrawnProblem) {
  // k is no multiple of M or L and cols no multiple of 16; 130 rows take
  // three draw groups, the last one partial; seed 2^32 - 1 draws B from
  // seed 0.
  for (const GemmDims dims : {GemmDims{7, 27, 21}, GemmDims{5, 45, 3}, GemmDims{130, 37, 50}})
    for (const Sparsity sp :
         {kSparsity14, kSparsity24, Sparsity{1, 8}, Sparsity{2, 8}, Sparsity{3, 8}})
      for (const std::uint32_t seed : {1u, 12345u, 4294967295u})
        for (const AlgorithmRow& family : algorithm_table()) {
          SCOPED_TRACE(std::string(family.id) + " " + std::to_string(sp.n) + ":" +
                       std::to_string(sp.m) + " " + std::to_string(dims.rows_a) + "x" +
                       std::to_string(dims.k) + "x" + std::to_string(dims.cols_b) + " seed " +
                       std::to_string(seed));
          const RunConfig config{.algorithm = family.algorithm, .kernel = {.unroll = 1}};
          MainMemory drawn;
          const PreparedRun run = prepare(dims, sp, seed, config, drawn);
          MainMemory want;
          const PreparedRun want_run = prepare(SpmmProblem::random(dims, sp, seed), config, want);
          EXPECT_EQ(run.program.base(), want_run.program.base());
          EXPECT_EQ(run.program.words(), want_run.program.words());
          EXPECT_EQ(drawn.page_count(), want.page_count());
          expect_same_image(drawn, want, image_end(run.layout));
        }
}

TEST(OperandImage, SampledKernelsStoreOnlyToC) {
  // What lets a thread reuse a miniature's image: after a run, zeroing C
  // leaves the image as prepare drew it.
  const GemmDims dims{16, 96, 56};  // three full strips and a tail
  for (const AlgorithmRow& family : algorithm_table()) {
    if (!family.supports_sampled) continue;
    SCOPED_TRACE(family.id);
    const RunConfig config{
        .algorithm = family.algorithm,
        .kernel = {.unroll = family.algorithm == Algorithm::kSsr ? 1u : 4u, .emit_markers = true}};
    MainMemory used;
    const PreparedRun run = prepare(dims, kSparsity24, 12345, config, used);
    Machine machine(run.program, used);
    ASSERT_EQ(machine.run(200'000'000), StopReason::kEbreak);
    const kernels::SpmmLayout& l = run.layout;
    const auto c = read_c(run, used);
    EXPECT_NE(std::count(c.data().begin(), c.data().end(), 0.0f), std::ptrdiff_t(c.data().size()));
    used.write_f32s(l.c_base, std::vector<float>(l.dims.rows_a * l.c_pitch_elems));

    MainMemory fresh;
    (void)prepare(dims, kSparsity24, 12345, config, fresh);
    expect_same_image(used, fresh, image_end(l));
  }
}

TEST(OperandImage, BadSparsityRaisesBeforeDividing) {
  for (const Sparsity sp : {Sparsity{1, 0}, Sparsity{0, 4}, Sparsity{5, 4}}) {
    SCOPED_TRACE(std::to_string(sp.n) + ":" + std::to_string(sp.m));
    EXPECT_THROW((void)SpmmProblem::random({4, 8, 16}, sp, 1), SimError);
    MainMemory mem;
    EXPECT_THROW((void)prepare({4, 8, 16}, sp, 1, RunConfig{}, mem), SimError);
  }
}

/// The main correctness sweep: algorithm x dataflow x unroll x sparsity
/// on a shape with ragged rows, k and columns (tail strip width 1).
struct SweepCase {
  Algorithm algorithm;
  Dataflow dataflow;
  unsigned unroll;
  Sparsity sp;
};

class KernelSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(KernelSweep, MatchesReferenceOnRaggedShape) {
  const SweepCase& c = GetParam();
  const auto problem = SpmmProblem::random({9, 50, 33}, c.sp, 21);
  expect_correct(problem, RunConfig{.algorithm = c.algorithm,
                                    .kernel = {.unroll = c.unroll, .dataflow = c.dataflow}});
}

std::vector<SweepCase> sweep_cases() {
  std::vector<SweepCase> cases;
  for (const Sparsity sp : {kSparsity14, kSparsity24})
    for (const unsigned unroll : {1u, 2u, 4u}) {
      cases.push_back({Algorithm::kIndexmac, Dataflow::kBStationary, unroll, sp});
      cases.push_back({Algorithm::kIndexmac4, Dataflow::kBStationary, unroll, sp});
      for (const Dataflow df :
           {Dataflow::kAStationary, Dataflow::kBStationary, Dataflow::kCStationary})
        cases.push_back({Algorithm::kRowwiseSpmm, df, unroll, sp});
    }
  return cases;
}

std::string sweep_name(const ::testing::TestParamInfo<SweepCase>& info) {
  const SweepCase& c = info.param;
  std::string name = c.algorithm == Algorithm::kIndexmac    ? "indexmac"
                     : c.algorithm == Algorithm::kIndexmac4 ? "indexmac4"
                                                            : "rowwise";
  name += c.dataflow == Dataflow::kAStationary   ? "_Astat"
          : c.dataflow == Dataflow::kBStationary ? "_Bstat"
                                                 : "_Cstat";
  name += "_u" + std::to_string(c.unroll);
  name += "_" + std::to_string(c.sp.n) + "of" + std::to_string(c.sp.m);
  return name;
}

INSTANTIATE_TEST_SUITE_P(AlgorithmsDataflowsUnrolls, KernelSweep,
                         ::testing::ValuesIn(sweep_cases()), sweep_name);

/// Shape sweep for the proposed kernel: exercises every tail combination.
class IndexmacShapes
    : public ::testing::TestWithParam<std::tuple<int /*rows*/, int /*k*/, int /*cols*/>> {};

TEST_P(IndexmacShapes, MatchesReference) {
  const auto [rows, k, cols] = GetParam();
  const auto problem = SpmmProblem::random(
      {static_cast<std::size_t>(rows), static_cast<std::size_t>(k),
       static_cast<std::size_t>(cols)},
      kSparsity24, 31);
  expect_correct(problem, RunConfig{.algorithm = Algorithm::kIndexmac, .kernel = {.unroll = 4}});
  expect_correct(problem,
                 RunConfig{.algorithm = Algorithm::kRowwiseSpmm, .kernel = {.unroll = 4}});
  expect_correct(problem, RunConfig{.algorithm = Algorithm::kIndexmac4, .kernel = {.unroll = 4}});
}

INSTANTIATE_TEST_SUITE_P(
    TailCombinations, IndexmacShapes,
    ::testing::Values(std::make_tuple(8, 32, 32),    // everything aligned
                      std::make_tuple(8, 32, 31),    // column tail 15
                      std::make_tuple(8, 32, 17),    // column tail 1
                      std::make_tuple(8, 30, 32),    // k tail
                      std::make_tuple(9, 32, 32),    // row remainder 1
                      std::make_tuple(11, 32, 32),   // row remainder 3
                      std::make_tuple(3, 18, 19),    // everything ragged
                      std::make_tuple(1, 160, 16),   // many k-tiles
                      std::make_tuple(32, 16, 100)), // many strips
    [](const auto& info) {
      return "r" + std::to_string(std::get<0>(info.param)) + "_k" +
             std::to_string(std::get<1>(info.param)) + "_c" +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace indexmac::core
