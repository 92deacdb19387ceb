// Experiment-runner tests: exact measurements behave sensibly (the
// headline speedup exists), the sampled estimator tracks exact runs, the
// miniature memo never changes a result, and memory-access accounting
// matches the analytic footprints.
#include <gtest/gtest.h>

#include <functional>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <utility>
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

/// What run_sampled returns, measured without the memo: the uncached
/// miniature measurement plus extrapolation.
SampledResult uncached_sampled(const GemmDims& dims, sparse::Sparsity sp, const RunConfig& config) {
  const MiniatureSpec spec = miniature_spec(dims, sp, config, kProc);
  return extrapolate(spec, measure_miniature(spec), dims);
}

void expect_same_estimate(const SampledResult& got, const SampledResult& want) {
  EXPECT_EQ(got.cycles, want.cycles);  // bit-identical, no tolerance
  EXPECT_TRUE(got.sample_stats == want.sample_stats);
  EXPECT_EQ(got.data_accesses, want.data_accesses);
  EXPECT_EQ(got.preload_cycles_per_ktile, want.preload_cycles_per_ktile);
  EXPECT_EQ(got.rowgroup_cycles_per_row, want.rowgroup_cycles_per_row);
}

/// A miniature measurement, or the message of the SimError it threw.
struct Outcome {
  std::optional<Miniature> miniature;
  std::string error;

  friend bool operator==(const Outcome&, const Outcome&) = default;
};

Outcome outcome(const std::function<Miniature()>& measure) {
  try {
    return {measure(), ""};
  } catch (const SimError& e) {
    return {std::nullopt, e.what()};
  }
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
  // miniature has the same dims and sparsity, and every thread shares the
  // miniature memo. Each point must measure here exactly what the uncached
  // measurement gives on a fresh thread, whatever ran before it.
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
      {x, kSparsity14, cfg(Algorithm::kRowwiseSpmm, 1)},   // same miniature problem
      {x, kSparsity24, cfg(Algorithm::kIndexmac)},         // after another sparsity
      {x, kSparsity14, cfg(Algorithm::kIndexmac)},         // and back
      {{56, 96, 112}, kSparsity14, cfg(Algorithm::kIndexmac)},  // x's miniature
  };
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    SCOPED_TRACE("point " + std::to_string(i));
    const Point& p = sequence[i];
    const SampledResult here = run_sampled(p.dims, p.sp, p.config, kProc);
    const SampledResult fresh =
        std::async(std::launch::async, [&] { return uncached_sampled(p.dims, p.sp, p.config); })
            .get();
    expect_same_estimate(here, fresh);
  }
}

TEST(Runner, MiniatureMemoKeyCoversEveryInput) {
  // Each variant changes one input of a base miniature's simulation. The
  // base is memoized first, so a key that missed the changed field would
  // hand the variant the base's measurement instead of its own. Two bases:
  // only Algorithm 4 makes scalar loads, so only it reads the L1D.
  struct Variant {
    const char* field;
    std::function<void(MiniatureSpec&)> change;
    bool moved = false;  ///< changed the measurement of some base
  };
  std::vector<Variant> variants = {
      {"dims.rows_a", [](MiniatureSpec& s) { s.dims.rows_a = 8; }},
      {"dims.k", [](MiniatureSpec& s) { s.dims.k = 112; }},
      {"dims.cols_b", [](MiniatureSpec& s) { s.dims.cols_b = 52; }},
      {"sp", [](MiniatureSpec& s) { s.sp = kSparsity24; }},
      {"config.algorithm", [](MiniatureSpec& s) { s.config.algorithm = Algorithm::kIndexmac; }},
      {"config.kernel.unroll", [](MiniatureSpec& s) { s.config.kernel.unroll = 4; }},
      {"config.kernel.dataflow",
       [](MiniatureSpec& s) { s.config.kernel.dataflow = kernels::Dataflow::kCStationary; }},
      {"config.kernel.elem",
       [](MiniatureSpec& s) { s.config.kernel.elem = kernels::ElemType::kI32; }},
      {"config.tile_rows", [](MiniatureSpec& s) { s.config.tile_rows = 8; }},
      {"max_instructions", [](MiniatureSpec& s) { s.max_instructions = 1000; }},
      {"processor.scalar", [](MiniatureSpec& s) { s.processor.scalar.issue_width = 2; }},
      {"processor.vector", [](MiniatureSpec& s) { s.processor.vector.mac_latency = 9; }},
      {"processor.memory.l1d", [](MiniatureSpec& s) { s.processor.memory.l1d.size_bytes = 256; }},
      {"processor.memory.l2",
       [](MiniatureSpec& s) { s.processor.memory.l2.size_bytes = 16 * 1024; }},
      {"processor.memory", [](MiniatureSpec& s) { s.processor.memory.dram_latency = 300; }},
  };
  for (const Algorithm alg : {Algorithm::kRowwiseSpmm, Algorithm::kIndexmac4}) {
    SCOPED_TRACE(algorithm_name(alg));
    const MiniatureSpec base = miniature_spec({40, 96, 80}, kSparsity14, cfg(alg, 2), kProc);
    const Outcome base_uncached = outcome([&] { return measure_miniature(base); });
    ASSERT_TRUE(base_uncached.miniature.has_value()) << base_uncached.error;
    for (Variant& v : variants) {
      SCOPED_TRACE(v.field);
      MiniatureSpec variant = base;
      v.change(variant);
      ASSERT_FALSE(variant == base);
      const Outcome uncached = outcome([&] { return measure_miniature(variant); });
      v.moved = v.moved || !(uncached == base_uncached);
      EXPECT_TRUE(outcome([&] { return memoized_miniature(base); }) == base_uncached);
      EXPECT_TRUE(outcome([&] { return memoized_miniature(variant); }) == uncached);
    }
  }
  // Every field but elem moves a measurement, so a key without it would
  // show above. The f32 and i32 kernels differ only in vfmacc and vmacc,
  // which share a latency class: elem is keyed all the same.
  for (const Variant& v : variants)
    EXPECT_EQ(v.moved, std::string(v.field) != "config.kernel.elem") << v.field;
}

TEST(Runner, ReusedMiniatureImageMeasuresLikeAFreshOne) {
  // Each thread keeps the image of its last miniature. A new thread has
  // none, so a spec measured on a new thread is measured on a fresh image:
  // the reference. One thread then measures every unroll of every sampled
  // family in a row: each family's unrolls share one image, and ssr reuses
  // indexmac's, since both pack VRF indices. A run that exhausts its budget
  // drops the image midway.
  std::vector<MiniatureSpec> specs;
  for (const Algorithm alg :
       {Algorithm::kRowwiseSpmm, Algorithm::kIndexmac, Algorithm::kSsr, Algorithm::kIndexmac4})
    for (const unsigned unroll : {1u, 2u, 4u}) {
      if (alg == Algorithm::kSsr && unroll != 1) continue;
      specs.push_back(miniature_spec({40, 96, 80}, kSparsity14, cfg(alg, unroll), kProc));
      if (alg == Algorithm::kIndexmac4 && unroll == 2) {
        specs.push_back(specs.back());
        specs.back().max_instructions = 1000;
      }
    }
  std::vector<Outcome> reused;
  std::thread([&] {
    for (const MiniatureSpec& spec : specs)
      reused.push_back(outcome([&] { return measure_miniature(spec); }));
  }).join();
  ASSERT_EQ(reused.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE(std::string(algorithm_name(specs[i].config.algorithm)) + " unroll " +
                 std::to_string(specs[i].config.kernel.unroll));
    Outcome fresh;
    std::thread([&] { fresh = outcome([&] { return measure_miniature(specs[i]); }); }).join();
    EXPECT_EQ(reused[i].miniature.has_value(), specs[i].max_instructions != 1000);
    EXPECT_TRUE(reused[i] == fresh) << reused[i].error << " / " << fresh.error;
  }
}

TEST(Runner, ExhaustedBudgetThrowsOnEveryCall) {
  // A failed miniature is never memoized: every call simulates again and
  // throws, and calls that waited on another thread's failing simulation
  // get its error.
  const auto run = [] {
    return run_sampled({40, 96, 80}, kSparsity24, cfg(Algorithm::kIndexmac4), kProc,
                       {.max_instructions = 1000});
  };
  const MiniatureCounts before = miniature_counts();
  EXPECT_THROW((void)run(), SimError);
  EXPECT_THROW((void)run(), SimError);
  std::vector<std::future<SampledResult>> concurrent;
  for (int i = 0; i < 4; ++i) concurrent.push_back(std::async(std::launch::async, run));
  for (auto& call : concurrent) EXPECT_THROW((void)call.get(), SimError);
  EXPECT_THROW((void)run(), SimError);
  const MiniatureCounts after = miniature_counts();
  EXPECT_EQ(after.lookups - before.lookups, 7u);
  EXPECT_GE(after.simulations - before.simulations, 4u);  // both serial calls, >= 1 concurrent, last
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
