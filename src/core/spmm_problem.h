// Problem construction and operand placement: builds a structured-sparse
// SpMM problem (A sparse N:M, B dense), lays its operands out in simulated
// memory, and emits the kernel program for a chosen algorithm.
//
// This is the top of the public API: quickstart example usage is
//
//   auto problem = SpmmProblem::random({64, 128, 48}, sparse::kSparsity14, 1);
//   MainMemory mem;
//   auto run = prepare(problem, RunConfig{.algorithm = Algorithm::kIndexmac}, mem);
//   Machine machine(run.program, mem);
//   machine.run();
//   auto c = read_c(run, mem);
#pragma once

#include <cstdint>

#include "asm/program.h"
#include "core/algorithm_table.h"
#include "kernels/kernels.h"
#include "kernels/layout.h"
#include "mem/main_memory.h"
#include "sparse/dense_matrix.h"
#include "sparse/nm_matrix.h"
#include "sparse/packing.h"

namespace indexmac::core {

/// One structured-sparse multiplication problem (data only).
struct SpmmProblem {
  kernels::GemmDims dims;
  sparse::Sparsity sp;
  sparse::NmMatrix<float> a;
  sparse::DenseMatrix<float> b;

  /// Random problem: A is magnitude-pruned to N:M from a dense random
  /// matrix (the paper's TensorFlow pruning substitute), B is dense random.
  /// A comes from std::mt19937(seed) and B from std::mt19937(seed + 1),
  /// uniform in [-1, 1] (sparse::NmDraw, sparse::UniformFloats).
  [[nodiscard]] static SpmmProblem random(const kernels::GemmDims& dims, sparse::Sparsity sp,
                                          std::uint32_t seed);

  /// Golden result via the reference (scalar) implementation.
  [[nodiscard]] sparse::DenseMatrix<float> reference() const;
};

/// Execution configuration for one prepared run.
struct RunConfig {
  Algorithm algorithm = Algorithm::kIndexmac;
  kernels::KernelOptions kernel;
  unsigned tile_rows = 16;  ///< L (paper uses 16)

  friend auto operator<=>(const RunConfig&, const RunConfig&) = default;
};

/// A program plus the layout needed to read results back.
struct PreparedRun {
  RunConfig config;
  kernels::SpmmLayout layout;
  Program program;
};

/// Lays out operands in `mem` and emits the kernel program. `mem` must be
/// untouched: C is not written, so it starts as the image's zeros.
[[nodiscard]] PreparedRun prepare(const SpmmProblem& problem, const RunConfig& config,
                                  MainMemory& mem);

/// Rows of A that prepare(dims, sp, seed, ...) draws before it writes them
/// to the image: its draw buffers hold one such group.
inline constexpr std::size_t kDrawGroupRows = 64;

/// prepare(SpmmProblem::random(dims, sp, seed), config, mem), byte for byte,
/// without the problem: A and B are drawn from the seed straight into the
/// image, kDrawGroupRows rows of A at a time, so the image is the only
/// full-size copy of them.
[[nodiscard]] PreparedRun prepare(const kernels::GemmDims& dims, sparse::Sparsity sp,
                                  std::uint32_t seed, const RunConfig& config, MainMemory& mem);

/// Reads the result matrix C back out of simulated memory.
[[nodiscard]] sparse::DenseMatrix<float> read_c(const PreparedRun& run, const MainMemory& mem);

}  // namespace indexmac::core
