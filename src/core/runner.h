// Experiment runners: measure one SpMM execution on the timing model.
//
//  * run_exact     — simulates the whole multiplication cycle by cycle.
//  * run_sampled   — simulates a row/strip-reduced replica of the problem
//    (full k depth, so cache behaviour along the k dimension is real) with
//    marker instrumentation, then extrapolates per-phase steady-state costs
//    to the full problem size. This is what makes whole-CNN sweeps
//    tractable; tests cross-validate it against run_exact.
//
// run_sampled has two stages. measure_miniature simulates the replica and
// reads nothing but its MiniatureSpec; extrapolate scales that measurement
// to the full dims. The replica depends on k, the tail columns, the
// sparsity, the kernel config and the processor, not on the layer's rows or
// full width, so many points of a sweep share one: run_sampled simulates
// each distinct MiniatureSpec once per process (memoized_miniature).
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

/// run_exact on SpmmProblem::random(dims, sp, seed), whose operands are
/// drawn straight into the image instead (prepare from the seed).
[[nodiscard]] ExactResult run_exact(const kernels::GemmDims& dims, sparse::Sparsity sp,
                                    std::uint32_t seed, const RunConfig& config,
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

/// Everything a sampled miniature's simulation reads. Its operands come
/// from a fixed seed, so equal specs measure equal results, and the memo
/// is keyed on the whole value: a field added to any member type joins the
/// key by construction. An estimator change that alters the miniature
/// must therefore be expressed here.
struct MiniatureSpec {
  kernels::GemmDims dims;  ///< miniature dims: cut rows and strips, full k
  sparse::Sparsity sp;
  RunConfig config;        ///< markers on
  timing::ProcessorConfig processor;
  std::uint64_t max_instructions = 0;

  friend auto operator<=>(const MiniatureSpec&, const MiniatureSpec&) = default;
};

/// Per-phase averages recovered from a miniature's marker event stream
/// (see kernels::MarkerId for the event protocol). The first row groups of
/// each k-tile are tracked separately: they absorb the cold B-row /
/// engine-backlog cost that later groups of the same tile do not pay, so
/// they must not be averaged into the steady per-group cost.
struct PhaseCosts {
  struct StripType {
    double preload = 0;       ///< per-ktile preload/loop overhead
    double head_total = 0;    ///< total cost of the head groups of each k-tile
    double steady_group = 0;  ///< per-group cost past the head

    friend bool operator==(const StripType&, const StripType&) = default;
  };
  StripType full;
  StripType tail;
  double head_groups = 0;  ///< how many leading groups the head covers
  double startup = 0;      ///< prologue before the first strip

  friend bool operator==(const PhaseCosts&, const PhaseCosts&) = default;
};

/// What a miniature's simulation measured.
struct Miniature {
  timing::TimingStats stats;  ///< raw stats of the instrumented run
  PhaseCosts costs;
  std::size_t ktiles = 0;     ///< k-tiles per strip (full k: the full layer's too)

  friend bool operator==(const Miniature&, const Miniature&) = default;
};

/// The miniature run_sampled simulates for (dims, sp, config): rows cut to
/// a multiple of the unroll (at least sample_rows), full column strips cut
/// to sample_full_strips, the tail strip and k kept, markers on.
[[nodiscard]] MiniatureSpec miniature_spec(const kernels::GemmDims& dims, sparse::Sparsity sp,
                                           const RunConfig& config,
                                           const timing::ProcessorConfig& processor,
                                           const SampleParams& params = SampleParams{});

/// First stage of run_sampled, uncached: simulates `spec`'s miniature.
/// Each thread keeps the memory image it built last and emits the next
/// spec's program onto it when that spec has the same dims, sparsity, tile
/// rows and index form: the unroll and the other kernel options do not
/// change the image. A sampled kernel stores only to C, which is zeroed
/// after each run, so results never depend on the reuse. Throws SimError
/// when the budget runs out, and then drops the image.
[[nodiscard]] Miniature measure_miniature(const MiniatureSpec& spec);

/// measure_miniature through one process-wide memo that every thread
/// shares: each distinct spec is simulated once, and a thread that needs a
/// spec another thread is simulating waits for that result. A failed
/// simulation is never stored; every caller waiting on it gets its error.
/// The memo is cleared when it reaches a fixed entry cap.
[[nodiscard]] Miniature memoized_miniature(const MiniatureSpec& spec);

/// Second stage of run_sampled: scales `miniature`, measured for `spec`,
/// to the full `dims`. Memory accesses come from the full layout.
[[nodiscard]] SampledResult extrapolate(const MiniatureSpec& spec, const Miniature& miniature,
                                        const kernels::GemmDims& dims);

/// Estimates cycles for (dims, sp, config): extrapolate over
/// memoized_miniature. Only B-stationary sparse kernels are supported; the
/// dataflow ablations use run_exact on smaller layers.
[[nodiscard]] SampledResult run_sampled(const kernels::GemmDims& dims, sparse::Sparsity sp,
                                        const RunConfig& config,
                                        const timing::ProcessorConfig& processor,
                                        const SampleParams& params = SampleParams{});

/// Process-wide totals of memoized_miniature since start-up.
struct MiniatureCounts {
  std::uint64_t lookups = 0;      ///< calls, one per sampled point measured
  std::uint64_t simulations = 0;  ///< of those, the ones that simulated
};
[[nodiscard]] MiniatureCounts miniature_counts();

}  // namespace indexmac::core
