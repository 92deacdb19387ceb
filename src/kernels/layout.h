// Memory layout of one sparse x dense matrix multiplication in the
// simulated address space, shared between operand placement (core) and
// kernel code generation (kernels).
#pragma once

#include <algorithm>
#include <compare>
#include <cstdint>

#include "common/bitutil.h"
#include "common/error.h"
#include "isa/isa.h"
#include "mem/main_memory.h"
#include "sparse/nm_matrix.h"

namespace indexmac::kernels {

/// Logical GEMM dimensions: C[rows_a x cols_b] = A[rows_a x k] * B[k x cols_b].
struct GemmDims {
  std::size_t rows_a = 0;
  std::size_t k = 0;
  std::size_t cols_b = 0;

  friend auto operator<=>(const GemmDims&, const GemmDims&) = default;
};

/// Placement and derived geometry of all operands.
///
/// B and C rows are padded to a multiple of the vector length (16 fp32
/// elements = 64 bytes) so every column strip of every row stays inside the
/// row's own allocation, and k is padded to a multiple of the B-tile height
/// L so every k-tile is complete (padding rows are zero).
struct SpmmLayout {
  GemmDims dims;
  sparse::Sparsity sp;
  unsigned tile_rows = 16;       ///< L
  std::size_t k_padded = 0;      ///< k rounded up to a multiple of L
  std::size_t num_ktiles = 0;
  unsigned slots_per_tile = 0;   ///< A (value,index) slots per row per k-tile
  std::size_t b_pitch_elems = 0; ///< elements per stored B row
  std::size_t c_pitch_elems = 0;
  std::uint64_t a_values = 0;    ///< base addresses in simulated memory
  std::uint64_t a_indices = 0;
  std::uint64_t b_base = 0;
  std::uint64_t c_base = 0;

  [[nodiscard]] std::size_t full_strips() const { return dims.cols_b / isa::kVlMax; }
  [[nodiscard]] unsigned tail_cols() const {
    return static_cast<unsigned>(dims.cols_b % isa::kVlMax);
  }
  [[nodiscard]] std::size_t a_stream_words() const {
    return num_ktiles * dims.rows_a * slots_per_tile;
  }
  /// Bytes reserved for the A index stream. Sized for both index layouts —
  /// one 32-bit word per slot (Algorithms 2/3) and one packed 64-bit nibble
  /// word per (row, k-tile) (Algorithm 4) — so a single layout serves every
  /// kernel; the forms only differ when slots_per_tile < 2.
  [[nodiscard]] std::size_t a_index_bytes() const {
    return std::max<std::size_t>(a_stream_words() * 4, num_ktiles * dims.rows_a * 8);
  }
};

/// Computes the layout for `dims` under `sp` sparsity with an L-row B tile,
/// reserving space via `alloc`.
[[nodiscard]] inline SpmmLayout make_layout(const GemmDims& dims, sparse::Sparsity sp,
                                            unsigned tile_rows, AddressAllocator& alloc) {
  IMAC_CHECK(dims.rows_a > 0 && dims.k > 0 && dims.cols_b > 0, "GEMM dims must be positive");
  IMAC_CHECK(tile_rows > 0 && tile_rows % sparse::checked(sp).m == 0,
             "tile_rows (L) must be a multiple of M");
  IMAC_CHECK(tile_rows <= isa::kNumVRegs, "tile_rows cannot exceed the register file");

  SpmmLayout out;
  out.dims = dims;
  out.sp = sp;
  out.tile_rows = tile_rows;
  out.k_padded = round_up(round_up(dims.k, sp.m), tile_rows);
  out.num_ktiles = out.k_padded / tile_rows;
  out.slots_per_tile = tile_rows / sp.m * sp.n;
  out.b_pitch_elems = round_up(dims.cols_b, isa::kVlMax);
  out.c_pitch_elems = out.b_pitch_elems;
  out.a_values = alloc.alloc(out.a_stream_words() * 4);
  out.a_indices = alloc.alloc(out.a_index_bytes());
  out.b_base = alloc.alloc(out.k_padded * out.b_pitch_elems * 4);
  out.c_base = alloc.alloc(dims.rows_a * out.c_pitch_elems * 4);
  return out;
}

}  // namespace indexmac::kernels
