// Experiment runners: measure one SpMM execution on the timing model.
//
//  * run_exact     — simulates the whole multiplication cycle by cycle.
//  * run_sampled   — simulates a row/strip-reduced replica of the problem
//    (full k depth, so cache behaviour along the k dimension is real) with
//    marker instrumentation, then extrapolates per-phase steady-state costs
//    to the full problem size. This is what makes whole-CNN sweeps
//    tractable; tests cross-validate it against run_exact.
//
// Memory-access counts (the Fig. 6 metric) are exact in both modes: the
// kernels' data accesses are fully determined by the layout (see
// kernels::predict_*_footprint), which tests verify dynamically.
#pragma once

#include <cstdint>

#include "core/spmm_problem.h"
#include "timing/timing_sim.h"

namespace indexmac::core {

/// Result of an exact (full-program) timing run.
struct ExactResult {
  timing::TimingStats stats;
  /// Total data-side memory accesses (vector + scalar instructions).
  [[nodiscard]] std::uint64_t data_accesses() const { return stats.mem.data_accesses(); }
};

/// Runs the full problem on the timing model. The problem's data content is
/// irrelevant to timing (kernels are data-independent), so callers usually
/// construct problems via SpmmProblem::random.
[[nodiscard]] ExactResult run_exact(const SpmmProblem& problem, const RunConfig& config,
                                    const timing::ProcessorConfig& processor);

/// Controls for the sampled estimator.
struct SampleParams {
  unsigned sample_rows = 16;       ///< rows of A simulated (rounded to unroll)
  unsigned sample_full_strips = 3; ///< full column strips simulated
  std::uint64_t max_instructions = 500'000'000;
};

/// Extrapolated measurement for a full problem.
struct SampledResult {
  double cycles = 0;                 ///< estimated total execution cycles
  std::uint64_t data_accesses = 0;   ///< exact (analytic) memory accesses
  timing::TimingStats sample_stats;  ///< raw stats of the miniature run
  double preload_cycles_per_ktile = 0;
  double rowgroup_cycles_per_row = 0;
};

/// Estimates cycles for (dims, sp, config) from a miniature instrumented
/// run. Only B-stationary kernels (both algorithms) are supported; the
/// dataflow ablations use run_exact on smaller layers. Each thread keeps
/// the miniature problem it built last and reuses it when the next call's
/// miniature has the same dims and sparsity; results never depend on it.
[[nodiscard]] SampledResult run_sampled(const kernels::GemmDims& dims, sparse::Sparsity sp,
                                        const RunConfig& config,
                                        const timing::ProcessorConfig& processor,
                                        const SampleParams& params = SampleParams{});

}  // namespace indexmac::core
