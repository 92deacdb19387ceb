// N:M structured-sparse matrix format (Fig. 1(b) of the paper).
//
// The logical matrix is split row-wise into blocks of M consecutive
// columns; each block holds at most N non-zero elements. Storage keeps
// exactly N (value, local-index) slots per block — real non-zeros first,
// zero-valued padding after — giving the fixed-stride values / col_idx
// vectors the paper's kernels rely on.
#pragma once

#include <algorithm>
#include <cmath>    // std::abs(float) in keep_largest
#include <compare>
#include <concepts>
#include <cstdint>
#include <cstdlib>  // std::abs(int) for integral instantiations
#include <span>
#include <vector>

#include "common/bitutil.h"
#include "common/error.h"
#include "sparse/dense_matrix.h"
#include "sparse/random.h"

namespace indexmac::sparse {

/// An N:M sparsity pattern ("up to N non-zeros in every M consecutive
/// elements"). The paper evaluates 1:4 and 2:4.
struct Sparsity {
  unsigned n = 2;
  unsigned m = 4;

  [[nodiscard]] double density() const { return static_cast<double>(n) / m; }
  friend auto operator<=>(const Sparsity&, const Sparsity&) = default;
};

inline constexpr Sparsity kSparsity14{1, 4};
inline constexpr Sparsity kSparsity24{2, 4};

/// True if `dense` already satisfies the N:M constraint (every aligned
/// M-block of every row has at most N non-zeros). The column count must be
/// a multiple of M.
template <typename T>
[[nodiscard]] bool is_valid_nm(const DenseMatrix<T>& dense, Sparsity sp) {
  if (dense.cols() % sp.m != 0) return false;
  for (std::size_t r = 0; r < dense.rows(); ++r)
    for (std::size_t b = 0; b < dense.cols() / sp.m; ++b) {
      unsigned nnz = 0;
      for (unsigned j = 0; j < sp.m; ++j)
        if (dense.at(r, b * sp.m + j) != T{}) ++nnz;
      if (nnz > sp.n) return false;
    }
  return true;
}

/// `sp`, checked: throws SimError unless 1 <= N <= M. Whatever divides by M
/// calls it first.
[[nodiscard]] inline Sparsity checked(Sparsity sp) {
  IMAC_CHECK(sp.n >= 1 && sp.m >= sp.n, "sparsity must satisfy 1 <= N <= M");
  return sp;
}

/// Magnitude pruning's keep rule for one block of at most M values: flags
/// in `kept` the N largest magnitudes. A value is kept when fewer than N
/// others outrank it, where a larger magnitude, or an equal one at an
/// earlier index, outranks. That equals N rounds that each keep the largest
/// value not yet kept, the earliest on a tie, with no branch on a value.
template <typename T>
void keep_largest(std::span<const T> block, unsigned n, std::span<std::uint8_t> kept) {
  const std::size_t width = block.size();
  for (std::size_t j = 0; j < width; ++j) {
    const T magnitude = std::abs(block[j]);
    unsigned above = 0;
    for (std::size_t i = 0; i < j; ++i) above += std::abs(block[i]) >= magnitude;
    for (std::size_t i = j + 1; i < width; ++i) above += std::abs(block[i]) > magnitude;
    kept[j] = above < n;
  }
}

/// The slot-fill rule for one block of at most M logical values: its kept
/// non-zeros, in column order, go to the N `values` slots with their
/// in-block column in `indices`. So a kept exact 0.0 becomes padding. The
/// slots left over are padding: value 0 and index m-1, a harmless in-block
/// position whose zero contributes nothing (mirrors fixed-stride kernels).
/// `kept` flags the values to store, and is overwritten with their columns;
/// `block` is compacted in place. Returns how many values it stored: more
/// than N breaks N:M.
template <typename T>
unsigned fill_block(std::span<T> block, std::span<std::uint8_t> kept, unsigned m,
                    std::span<T> values, std::span<std::uint8_t> indices) {
  unsigned count = 0;
  for (std::size_t j = 0; j < block.size(); ++j) {
    const T v = block[j];
    const bool store = kept[j] != 0 && v != T{};
    block[count] = v;
    kept[count] = static_cast<std::uint8_t>(j);
    count += store;
  }
  for (unsigned s = 0; s < values.size(); ++s) {
    const bool stored = s < count;
    values[s] = stored ? block[s] : T{};
    indices[s] = stored ? kept[s] : static_cast<std::uint8_t>(m - 1);
  }
  return count;
}

/// Writes one row's slots, `values`/`indices` (N per block), densely into
/// `out`, which holds the row's logical columns.
template <typename T>
void slots_to_dense(std::span<const T> values, std::span<const std::uint8_t> indices,
                    Sparsity sp, std::span<T> out) {
  std::fill(out.begin(), out.end(), T{});
  for (std::size_t s = 0; s < values.size(); ++s) {
    if (values[s] == T{}) continue;
    const std::size_t c = s / sp.n * sp.m + indices[s];
    IMAC_ASSERT(c < out.size(), "stored non-zero lands in padding");
    out[c] += values[s];
  }
}

/// The draw of a random N:M matrix, row by row: each row draws M values at a
/// time from UniformFloats(seed, lo, hi), in row-major order (a partial last
/// block draws only its own columns), keeps the N largest (keep_largest)
/// and stores them as N slots (fill_block). It equals
/// prune_from_dense(random_matrix(rows, cols, seed, lo, hi), sp) without the
/// dense matrix, and hands out each row's slots so the caller can keep them
/// anywhere: NmMatrix::random, or a memory image.
class NmDraw {
 public:
  NmDraw(std::size_t cols, Sparsity sp, std::uint32_t seed, float lo, float hi)
      : cols_(cols), sp_(checked(sp)), uniform_(seed, lo, hi), block_(sp.m), kept_(sp.m) {}

  /// Stored slots per row: N per block, padding included.
  [[nodiscard]] std::size_t slots_per_row() const { return ceil_div(cols_, sp_.m) * sp_.n; }

  /// Draws the next row into its slots.
  void next_row(std::span<float> values, std::span<std::uint8_t> indices) {
    IMAC_CHECK(values.size() == slots_per_row() && indices.size() == values.size(),
               "a drawn row fills slots_per_row() slots");
    for (std::size_t c = 0, s = 0; c < cols_; c += sp_.m, s += sp_.n) {
      const std::span<float> block(block_.data(), std::min<std::size_t>(sp_.m, cols_ - c));
      uniform_.fill(block);
      keep_largest<float>(block, sp_.n, std::span(kept_));
      (void)fill_block(block, std::span(kept_), sp_.m, values.subspan(s, sp_.n),
                       indices.subspan(s, sp_.n));
    }
  }

 private:
  std::size_t cols_;
  Sparsity sp_;
  UniformFloats uniform_;
  std::vector<float> block_;         ///< one block's values
  std::vector<std::uint8_t> kept_;  ///< one block's keep flags, then columns
};

/// Structured-sparse matrix in padded block storage.
template <typename T>
class NmMatrix {
 public:
  /// Builds from a dense matrix that must already satisfy N:M. Columns are
  /// padded up to a multiple of M with zeros.
  static NmMatrix from_dense(const DenseMatrix<T>& dense, Sparsity sp) {
    return stored(dense, sp, /*prune=*/false);
  }

  /// Magnitude-based pruning: keeps the N largest-|value| elements of each
  /// M-block (keep_largest). This reproduces the *structure* of the paper's
  /// TensorFlow-pruned CNN weights (see docs/architecture.md, "Deliberate
  /// simplifications and substitutions").
  static NmMatrix prune_from_dense(const DenseMatrix<T>& dense, Sparsity sp) {
    return stored(dense, sp, /*prune=*/true);
  }

  /// Equals prune_from_dense(random_matrix(rows, cols, seed, lo, hi), sp),
  /// drawn row by row (NmDraw) without the dense matrix.
  static NmMatrix random(std::size_t rows, std::size_t cols, Sparsity sp, std::uint32_t seed,
                         T lo, T hi)
    requires std::same_as<T, float>
  {
    NmMatrix out(rows, cols, sp);
    NmDraw draw(cols, sp, seed, lo, hi);
    for (std::size_t r = 0; r < rows; ++r) draw.next_row(out.row_values(r), out.row_indices(r));
    return out;
  }

  [[nodiscard]] std::size_t rows() const { return rows_; }
  /// Logical (unpadded) column count.
  [[nodiscard]] std::size_t cols() const { return cols_; }
  /// Column count padded to a multiple of M.
  [[nodiscard]] std::size_t padded_cols() const { return blocks_ * sp_.m; }
  [[nodiscard]] Sparsity sparsity() const { return sp_; }
  [[nodiscard]] std::size_t blocks_per_row() const { return blocks_; }
  /// Stored slots per row (N per block, padding included).
  [[nodiscard]] std::size_t slots_per_row() const { return blocks_ * sp_.n; }

  /// Every row's slot values and in-block indices, row-major: row r's slots
  /// are [r * slots_per_row(), (r + 1) * slots_per_row()), N per block.
  [[nodiscard]] std::span<const T> values() const { return values_; }
  [[nodiscard]] std::span<const std::uint8_t> indices() const { return indices_; }

  [[nodiscard]] const T& value_at(std::size_t r, std::size_t block, unsigned slot) const {
    return values_[offset(r, block, slot)];
  }
  /// Local column index within the block, in [0, M).
  [[nodiscard]] std::uint8_t index_at(std::size_t r, std::size_t block, unsigned slot) const {
    return indices_[offset(r, block, slot)];
  }

  /// Writes row `r` densely into `out`, which holds cols() elements.
  void dense_row(std::size_t r, std::span<T> out) const {
    IMAC_CHECK(out.size() == cols_, "dense row must hold cols() elements");
    slots_to_dense(values().subspan(r * slots_per_row(), slots_per_row()),
                   indices().subspan(r * slots_per_row(), slots_per_row()), sp_, out);
  }

  /// Reconstructs the dense equivalent (logical size, padding dropped).
  [[nodiscard]] DenseMatrix<T> to_dense() const {
    DenseMatrix<T> out(rows_, cols_);
    for (std::size_t r = 0; r < rows_; ++r) dense_row(r, out.row(r));
    return out;
  }

  /// Number of stored non-zero values (excluding padding slots).
  [[nodiscard]] std::size_t nnz() const {
    std::size_t count = 0;
    for (const T& v : values_)
      if (v != T{}) ++count;
    return count;
  }

 private:
  NmMatrix(std::size_t rows, std::size_t cols, Sparsity sp)
      : rows_(rows), cols_(cols), sp_(checked(sp)), blocks_(ceil_div(cols, sp.m)) {
    values_.assign(rows_ * blocks_ * sp_.n, T{});
    indices_.assign(rows_ * blocks_ * sp_.n, 0);
  }

  [[nodiscard]] std::span<T> row_values(std::size_t r) {
    return std::span(values_).subspan(r * slots_per_row(), slots_per_row());
  }
  [[nodiscard]] std::span<std::uint8_t> row_indices(std::size_t r) {
    return std::span(indices_).subspan(r * slots_per_row(), slots_per_row());
  }

  /// Stores `dense` block by block: with `prune`, keep_largest first keeps
  /// each block's N largest; fill_block stores the block. Only one block of
  /// values and column bytes exists beside the matrix.
  static NmMatrix stored(const DenseMatrix<T>& dense, Sparsity sp, bool prune) {
    NmMatrix out(dense.rows(), dense.cols(), sp);
    std::vector<T> values(sp.m);
    std::vector<std::uint8_t> kept(sp.m);
    for (std::size_t r = 0; r < out.rows_; ++r) {
      const std::span<T> row_values = out.row_values(r);
      const std::span<std::uint8_t> row_indices = out.row_indices(r);
      for (std::size_t b = 0; b < out.blocks_; ++b) {
        const auto from = dense.row(r).subspan(b * sp.m, out.block_width(b));
        const std::span<T> block(values.data(), from.size());
        std::copy(from.begin(), from.end(), block.begin());
        if (prune)
          keep_largest<T>(block, sp.n, std::span(kept));
        else
          std::fill(kept.begin(), kept.end(), std::uint8_t{1});
        IMAC_CHECK(fill_block(block, std::span(kept), sp.m, row_values.subspan(b * sp.n, sp.n),
                              row_indices.subspan(b * sp.n, sp.n)) <= sp.n,
                   "matrix violates the N:M constraint");
      }
    }
    return out;
  }

  /// Columns of block `b` inside the logical matrix: M, or fewer for a
  /// partial last block.
  [[nodiscard]] std::size_t block_width(std::size_t b) const {
    return std::min<std::size_t>(sp_.m, cols_ - b * sp_.m);
  }

  [[nodiscard]] std::size_t offset(std::size_t r, std::size_t block, unsigned slot) const {
    IMAC_CHECK(r < rows_ && block < blocks_ && slot < sp_.n, "NmMatrix index out of range");
    return (r * blocks_ + block) * sp_.n + slot;
  }

  std::size_t rows_;
  std::size_t cols_;
  Sparsity sp_;
  std::size_t blocks_;
  std::vector<T> values_;
  std::vector<std::uint8_t> indices_;
};

/// Reference sparse x dense product via densification (golden model).
template <typename T>
[[nodiscard]] DenseMatrix<T> spmm_reference(const NmMatrix<T>& a, const DenseMatrix<T>& b) {
  return matmul_reference(a.to_dense(), b);
}

}  // namespace indexmac::sparse
