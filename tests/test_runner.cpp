// Experiment-runner tests: exact measurements behave sensibly (the
// headline speedup exists), the sampled estimator tracks exact runs, and
// memory-access accounting matches the analytic footprints.
#include <gtest/gtest.h>

#include <future>
#include <vector>

#include "core/runner.h"
#include "core/spmm_problem.h"
#include "kernels/kernels.h"

namespace indexmac::core {
namespace {

using kernels::GemmDims;
using sparse::kSparsity14;
using sparse::kSparsity24;

const timing::ProcessorConfig kProc{};

RunConfig cfg(Algorithm alg, unsigned unroll = 4) {
  return RunConfig{.algorithm = alg, .kernel = {.unroll = unroll}};
}

TEST(Runner, ProposedBeatsRowwiseOnRepresentativeLayer) {
  // A mid-size layer-like GEMM; the paper reports 1.6x-2.15x.
  const GemmDims dims{32, 128, 64};
  for (const auto sp : {kSparsity14, kSparsity24}) {
    const auto problem = SpmmProblem::random(dims, sp, 5);
    const auto rowwise = run_exact(problem, cfg(Algorithm::kRowwiseSpmm), kProc);
    const auto proposed = run_exact(problem, cfg(Algorithm::kIndexmac), kProc);
    const double speedup = static_cast<double>(rowwise.stats.cycles) /
                           static_cast<double>(proposed.stats.cycles);
    EXPECT_GT(speedup, 1.2) << sp.n << ":" << sp.m;
    EXPECT_LT(speedup, 3.0) << sp.n << ":" << sp.m;
  }
}

TEST(Runner, ProposedEliminatesPerNonzeroLoads) {
  const GemmDims dims{16, 64, 32};
  const auto problem = SpmmProblem::random(dims, kSparsity14, 6);
  const auto rowwise = run_exact(problem, cfg(Algorithm::kRowwiseSpmm), kProc);
  const auto proposed = run_exact(problem, cfg(Algorithm::kIndexmac), kProc);
  EXPECT_LT(proposed.data_accesses(), rowwise.data_accesses());
  // Same multiply-accumulate work in both.
  EXPECT_EQ(proposed.stats.vector_macs, rowwise.stats.vector_macs);
}

TEST(Runner, DynamicCountsMatchAnalyticFootprints) {
  const GemmDims dims{12, 80, 40};
  for (const auto sp : {kSparsity14, kSparsity24}) {
    const auto problem = SpmmProblem::random(dims, sp, 7);
    AddressAllocator alloc;
    const auto layout = kernels::make_layout(dims, sp, 16, alloc);

    const auto proposed = run_exact(problem, cfg(Algorithm::kIndexmac), kProc);
    const auto fp3 = kernels::predict_indexmac_footprint(layout);
    EXPECT_EQ(proposed.stats.vector_loads, fp3.vector_loads);
    EXPECT_EQ(proposed.stats.vector_stores, fp3.vector_stores);
    EXPECT_EQ(proposed.stats.vector_macs, fp3.macs);

    const auto rowwise = run_exact(problem, cfg(Algorithm::kRowwiseSpmm), kProc);
    const auto fp2 = kernels::predict_rowwise_footprint(layout);
    EXPECT_EQ(rowwise.stats.vector_loads, fp2.vector_loads);
    EXPECT_EQ(rowwise.stats.vector_stores, fp2.vector_stores);
    EXPECT_EQ(rowwise.stats.vector_macs, fp2.macs);
  }
}

TEST(Runner, MemoryAccessReductionMatchesPaperArithmetic) {
  // Per row-strip visit: Row-Wise-SpMM makes 4+nnz accesses vs 4 for the
  // proposed kernel (plus amortized preload). For L=16: 1:4 -> ~50% fewer,
  // 2:4 -> ~65% fewer (paper Fig. 6 reports 48% and 65%).
  const GemmDims dims{64, 256, 64};
  for (const auto sp : {kSparsity14, kSparsity24}) {
    const auto problem = SpmmProblem::random(dims, sp, 8);
    const auto rowwise = run_exact(problem, cfg(Algorithm::kRowwiseSpmm), kProc);
    const auto proposed = run_exact(problem, cfg(Algorithm::kIndexmac), kProc);
    const double ratio = static_cast<double>(proposed.data_accesses()) /
                         static_cast<double>(rowwise.data_accesses());
    if (sp.n == 1)
      EXPECT_NEAR(ratio, 0.53, 0.06);  // ~50% reduction + preload overhead
    else
      EXPECT_NEAR(ratio, 0.37, 0.06);  // ~65% reduction
  }
}

TEST(Runner, SampledTracksExactOnModerateProblem) {
  // Cross-validation: the sampled estimator must stay within ~12% of the
  // exact simulation for both algorithms.
  const GemmDims dims{48, 96, 80};
  for (const auto sp : {kSparsity14, kSparsity24}) {
    for (const auto alg : {Algorithm::kIndexmac, Algorithm::kRowwiseSpmm}) {
      const auto problem = SpmmProblem::random(dims, sp, 9);
      const auto exact = run_exact(problem, cfg(alg), kProc);
      const auto sampled = run_sampled(dims, sp, cfg(alg), kProc);
      const double err = std::abs(sampled.cycles - static_cast<double>(exact.stats.cycles)) /
                         static_cast<double>(exact.stats.cycles);
      EXPECT_LT(err, 0.12) << algorithm_name(alg) << " " << sp.n << ":" << sp.m
                           << " sampled=" << sampled.cycles
                           << " exact=" << exact.stats.cycles;
      EXPECT_EQ(sampled.data_accesses, exact.data_accesses());
    }
  }
}

TEST(Runner, SampledSpeedupTracksExactSpeedup) {
  const GemmDims dims{40, 160, 49};  // ragged columns like late CNN layers
  const auto problem = SpmmProblem::random(dims, kSparsity14, 10);
  const auto exact2 = run_exact(problem, cfg(Algorithm::kRowwiseSpmm), kProc);
  const auto exact3 = run_exact(problem, cfg(Algorithm::kIndexmac), kProc);
  const auto samp2 = run_sampled(dims, kSparsity14, cfg(Algorithm::kRowwiseSpmm), kProc);
  const auto samp3 = run_sampled(dims, kSparsity14, cfg(Algorithm::kIndexmac), kProc);
  const double exact_speedup =
      static_cast<double>(exact2.stats.cycles) / static_cast<double>(exact3.stats.cycles);
  const double sampled_speedup = samp2.cycles / samp3.cycles;
  EXPECT_NEAR(sampled_speedup, exact_speedup, 0.18 * exact_speedup);
}

TEST(Runner, SampledRejectsUnsupportedConfigs) {
  RunConfig bad = cfg(Algorithm::kRowwiseSpmm);
  bad.kernel.dataflow = kernels::Dataflow::kCStationary;
  EXPECT_THROW((void)run_sampled({16, 32, 16}, kSparsity14, bad, kProc), SimError);
  EXPECT_THROW((void)run_sampled({16, 32, 16}, kSparsity14, cfg(Algorithm::kDenseRowwise), kProc),
               SimError);
}

TEST(Runner, SampledHandlesTailOnlyProblem) {
  // cols_b < 16: no full strips at all.
  const auto r = run_sampled({24, 64, 7}, kSparsity24, cfg(Algorithm::kIndexmac), kProc);
  EXPECT_GT(r.cycles, 0);
  EXPECT_GT(r.rowgroup_cycles_per_row, 0);
}

TEST(Runner, SampledResultIndependentOfPreviousPoint) {
  // A worker thread reuses its last miniature problem when the next point's
  // miniature has the same dims and sparsity. Each point must measure here
  // exactly what it measures on a fresh thread, whatever ran before it.
  struct Point {
    GemmDims dims;
    sparse::Sparsity sp;
    RunConfig config;
  };
  const GemmDims x{40, 96, 80};
  const std::vector<Point> sequence = {
      {{24, 64, 7}, kSparsity14, cfg(Algorithm::kRowwiseSpmm)},
      {x, kSparsity14, cfg(Algorithm::kIndexmac)},         // after another shape
      {x, kSparsity14, cfg(Algorithm::kIndexmac)},         // after itself
      {x, kSparsity14, cfg(Algorithm::kRowwiseSpmm, 1)},   // same miniature
      {x, kSparsity24, cfg(Algorithm::kIndexmac)},         // after another sparsity
      {x, kSparsity14, cfg(Algorithm::kIndexmac)},         // and back
  };
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    const Point& p = sequence[i];
    const auto run = [&] { return run_sampled(p.dims, p.sp, p.config, kProc); };
    const SampledResult here = run();
    const SampledResult fresh = std::async(std::launch::async, run).get();
    EXPECT_EQ(here.cycles, fresh.cycles) << "point " << i;
    EXPECT_TRUE(here.sample_stats == fresh.sample_stats) << "point " << i;
    EXPECT_EQ(here.data_accesses, fresh.data_accesses) << "point " << i;
  }
}

TEST(Runner, UnrollFourBeatsUnrollOne) {
  // The paper applies 4-way unrolling [17] to both kernels; it must help.
  const GemmDims dims{32, 96, 48};
  const auto problem = SpmmProblem::random(dims, kSparsity14, 11);
  for (const auto alg : {Algorithm::kIndexmac, Algorithm::kRowwiseSpmm}) {
    const auto u1 = run_exact(problem, cfg(alg, 1), kProc);
    const auto u4 = run_exact(problem, cfg(alg, 4), kProc);
    EXPECT_LT(u4.stats.cycles, u1.stats.cycles) << algorithm_name(alg);
  }
}

}  // namespace
}  // namespace indexmac::core
