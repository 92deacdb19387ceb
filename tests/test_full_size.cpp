// Exact runs at full layer size must fit in memory and compute the right C.
// The largest layer in the tree is llm-decode's lm_head (128256 x 4096 x 8).
// At 2:4 its image holds about 2.1 GB (A's packed streams and B), and its
// problem about 1.3 GB of A slots. The problem exists here only to compute
// the reference C row by row, and is freed before any image is built; each
// image is then drawn from the seed straight into memory. So the process
// must peak below 2.25 GiB of resident memory: nothing full-size exists
// beside the image. Each family's kernel then runs on the functional model,
// and its C must equal the reference. The test needs about 2.1 GB and a few
// minutes, so it is built but not registered with ctest; CI's full-size job
// runs it.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <vector>

#include "core/spmm_problem.h"
#include "fsim/machine.h"

namespace indexmac::core {
namespace {

constexpr double kPeakBoundGiB = 2.25;
constexpr kernels::GemmDims kDims{128256, 4096, 8};
constexpr sparse::Sparsity kSp = sparse::kSparsity24;
constexpr std::uint32_t kSeed = 1;

/// Peak resident set of this process so far, in GiB (ru_maxrss is in KiB).
double peak_rss_gib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / (1 << 20);
}

/// C of the problem drawn from kSeed, computed as spmm_reference computes it
/// but one dense row of A at a time: the dense A would add 2.1 GB.
sparse::DenseMatrix<float> reference_c() {
  const auto problem = SpmmProblem::random(kDims, kSp, kSeed);
  sparse::DenseMatrix<float> c(kDims.rows_a, kDims.cols_b);
  std::vector<float> a_row(kDims.k);
  for (std::size_t i = 0; i < kDims.rows_a; ++i) {
    problem.a.dense_row(i, a_row);
    for (std::size_t k = 0; k < kDims.k; ++k) {
      if (a_row[k] == 0.0f) continue;
      for (std::size_t j = 0; j < kDims.cols_b; ++j) c.at(i, j) += a_row[k] * problem.b.at(k, j);
    }
  }
  return c;
}

TEST(FullSize, LmHeadRunsUnderTheMemoryBound) {
  const sparse::DenseMatrix<float> want = reference_c();
  for (const Algorithm algorithm :
       {Algorithm::kRowwiseSpmm, Algorithm::kIndexmac, Algorithm::kIndexmac4}) {
    SCOPED_TRACE(algorithm_name(algorithm));
    MainMemory mem;
    const PreparedRun run =
        prepare(kDims, kSp, kSeed, {.algorithm = algorithm, .kernel = {.unroll = 4}}, mem);
    const double peak = peak_rss_gib();
    EXPECT_LT(peak, kPeakBoundGiB) << "peak RSS " << peak << " GiB";

    Machine machine(run.program, mem);
    ASSERT_EQ(machine.run(/*max_steps=*/10'000'000'000), StopReason::kEbreak);
    const sparse::DenseMatrix<float> got = read_c(run, mem);
    std::size_t differing = 0;
    for (std::size_t i = 0; i < kDims.rows_a; ++i)
      for (std::size_t j = 0; j < kDims.cols_b; ++j) differing += got.at(i, j) != want.at(i, j);
    EXPECT_EQ(differing, 0u) << "of " << kDims.rows_a * kDims.cols_b << " C elements";
  }
}

}  // namespace
}  // namespace indexmac::core
