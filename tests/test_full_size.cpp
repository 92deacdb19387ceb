// Exact runs at full layer size must fit in memory. The largest layer in
// the tree is llm-decode's lm_head (128256 x 4096 x 8). Its problem at
// 2:4 holds about 1.3 GB of A slots, and its packed image about 2.1 GB.
// Building and preparing it must peak below 4 GiB of resident memory, so
// nothing full-size exists beside those two. The test needs about 3.3 GB
// and half a minute, so it is built but not registered with ctest; CI's
// full-size job runs it.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <vector>

#include "core/spmm_problem.h"

namespace indexmac::core {
namespace {

constexpr double kPeakBoundGiB = 4.0;

/// Peak resident set of this process so far, in GiB (ru_maxrss is in KiB).
double peak_rss_gib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / (1 << 20);
}

TEST(FullSize, LmHeadPreparesUnderTheMemoryBound) {
  const kernels::GemmDims dims{128256, 4096, 8};
  const auto problem = SpmmProblem::random(dims, sparse::kSparsity24, 1);
  MainMemory mem;
  const RunConfig config{.algorithm = Algorithm::kIndexmac, .kernel = {.unroll = 4}};
  const PreparedRun run = prepare(problem, config, mem);
  const double peak = peak_rss_gib();
  EXPECT_LT(peak, kPeakBoundGiB) << "peak RSS " << peak << " GiB";

  // The image is the real one: the last k-tile of the value and index
  // streams and B's last row read back as packed and drawn.
  const kernels::SpmmLayout& l = run.layout;
  const sparse::PackConfig pack_config{.tile_rows = config.tile_rows,
                                       .mode = sparse::IndexMode::kVrfIndex,
                                       .base_vreg = kernels::b_tile_base_vreg(config.tile_rows)};
  const sparse::PackShape shape = sparse::pack_shape(problem.a, pack_config);
  std::vector<float> values(shape.tile_values());
  std::vector<std::int32_t> indices(shape.tile_index_words());
  const std::size_t last = shape.num_ktiles - 1;
  sparse::pack_ktile(problem.a, shape, pack_config, last, std::span(values), std::span(indices));
  EXPECT_EQ(mem.read_f32s(l.a_values + last * values.size() * 4, values.size()), values);
  EXPECT_EQ(mem.read_i32s(l.a_indices + last * indices.size() * 4, indices.size()), indices);
  const auto b_row = problem.b.row(dims.k - 1);
  EXPECT_EQ(mem.read_f32s(l.b_base + (dims.k - 1) * l.b_pitch_elems * 4, dims.cols_b),
            std::vector<float>(b_row.begin(), b_row.end()));
}

}  // namespace
}  // namespace indexmac::core
