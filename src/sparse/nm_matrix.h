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
#include <cstdint>
#include <cstdlib>  // std::abs(int) for integral instantiations
#include <random>
#include <span>
#include <vector>

#include "common/bitutil.h"
#include "common/error.h"
#include "sparse/dense_matrix.h"

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

/// Structured-sparse matrix in padded block storage.
template <typename T>
class NmMatrix {
 public:
  /// Builds from a dense matrix that must already satisfy N:M. Columns are
  /// padded up to a multiple of M with zeros.
  static NmMatrix from_dense(const DenseMatrix<T>& dense, Sparsity sp) {
    NmMatrix out(dense.rows(), dense.cols(), sp);
    for (std::size_t r = 0; r < dense.rows(); ++r)
      for (std::size_t b = 0; b < out.blocks_; ++b)
        out.fill_block(r, b, dense.row(r).subspan(b * sp.m, out.block_width(b)));
    return out;
  }

  /// Magnitude-based pruning: keeps the N largest-|value| elements of each
  /// M-block (keep_largest). This reproduces the *structure* of the paper's
  /// TensorFlow-pruned CNN weights (see docs/architecture.md, "Deliberate
  /// simplifications and substitutions").
  static NmMatrix prune_from_dense(const DenseMatrix<T>& dense, Sparsity sp) {
    return pruned_blocks(dense.rows(), dense.cols(), sp,
                         [&](std::size_t r, std::size_t b, std::span<T> block) {
                           const auto from = dense.row(r).subspan(b * sp.m, block.size());
                           std::copy(from.begin(), from.end(), block.begin());
                         });
  }

  /// Equals prune_from_dense(random_matrix(rows, cols, seed, lo, hi), sp)
  /// without the dense matrix: it draws each row M values at a time, in
  /// random_matrix's order, and prunes each block as it is drawn.
  static NmMatrix random(std::size_t rows, std::size_t cols, Sparsity sp, std::uint32_t seed,
                         T lo, T hi) {
    std::mt19937 rng(seed);
    UniformDist<T> dist(lo, hi);
    return pruned_blocks(rows, cols, sp, [&](std::size_t, std::size_t, std::span<T> block) {
      for (T& v : block) v = dist(rng);
    });
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

  [[nodiscard]] T& value_at(std::size_t r, std::size_t block, unsigned slot) {
    return values_[offset(r, block, slot)];
  }
  [[nodiscard]] const T& value_at(std::size_t r, std::size_t block, unsigned slot) const {
    return values_[offset(r, block, slot)];
  }
  /// Local column index within the block, in [0, M).
  [[nodiscard]] std::uint8_t& index_at(std::size_t r, std::size_t block, unsigned slot) {
    return indices_[offset(r, block, slot)];
  }
  [[nodiscard]] std::uint8_t index_at(std::size_t r, std::size_t block, unsigned slot) const {
    return indices_[offset(r, block, slot)];
  }

  /// Writes row `r` densely into `out`, which holds cols() elements.
  void dense_row(std::size_t r, std::span<T> out) const {
    IMAC_CHECK(out.size() == cols_, "dense row must hold cols() elements");
    std::fill(out.begin(), out.end(), T{});
    for (std::size_t b = 0; b < blocks_; ++b)
      for (unsigned s = 0; s < sp_.n; ++s) {
        const T v = value_at(r, b, s);
        if (v == T{}) continue;
        const std::size_t c = b * sp_.m + index_at(r, b, s);
        IMAC_ASSERT(c < cols_, "stored non-zero lands in padding");
        out[c] += v;
      }
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
      : rows_(rows), cols_(cols), sp_(sp), blocks_(ceil_div(cols, sp.m)) {
    IMAC_CHECK(sp.n >= 1 && sp.m >= sp.n, "sparsity must satisfy 1 <= N <= M");
    values_.assign(rows_ * blocks_ * sp_.n, T{});
    indices_.assign(rows_ * blocks_ * sp_.n, 0);
  }

  /// Builds a matrix block by block in row-major order: `draw(r, b, block)`
  /// fills block b of row r, keep_largest prunes it and fill_block stores
  /// it. Only one block of values and keep flags exists at a time.
  template <typename Draw>
  static NmMatrix pruned_blocks(std::size_t rows, std::size_t cols, Sparsity sp, Draw draw) {
    NmMatrix out(rows, cols, sp);
    std::vector<T> values(sp.m);
    std::vector<std::uint8_t> kept(sp.m);
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t b = 0; b < out.blocks_; ++b) {
        const std::span<T> block(values.data(), out.block_width(b));
        draw(r, b, block);
        keep_largest(block, sp.n, kept);
        out.fill_block(r, b, block);
      }
    return out;
  }

  /// Magnitude pruning's keep rule for one block of at most M values: zeroes
  /// all but the N largest magnitudes, in place. Each of N rounds keeps the
  /// largest value not yet kept, so on a tie the earliest wins. `kept` holds
  /// a flag per value.
  static void keep_largest(std::span<T> block, unsigned n, std::span<std::uint8_t> kept) {
    std::fill_n(kept.begin(), block.size(), std::uint8_t{0});
    for (unsigned round = 0; round < n; ++round) {
      std::size_t best = block.size();
      for (std::size_t j = 0; j < block.size(); ++j)
        if (kept[j] == 0 && (best == block.size() || std::abs(block[j]) > std::abs(block[best])))
          best = j;
      if (best < block.size()) kept[best] = 1;
    }
    for (std::size_t j = 0; j < block.size(); ++j)
      if (kept[j] == 0) block[j] = T{};
  }

  /// Columns of block `b` inside the logical matrix: M, or fewer for a
  /// partial last block.
  [[nodiscard]] std::size_t block_width(std::size_t b) const {
    return std::min<std::size_t>(sp_.m, cols_ - b * sp_.m);
  }

  /// The slot-fill rule: stores block `b` of row `r` from its logical
  /// values, non-zeros first in column order. A zero is not stored, so a
  /// kept exact 0.0 becomes padding. Padding slots keep index m-1: a
  /// harmless in-block position whose zero value contributes nothing
  /// (mirrors fixed-stride kernels).
  void fill_block(std::size_t r, std::size_t b, std::span<const T> block) {
    unsigned slot = 0;
    for (std::size_t j = 0; j < block.size(); ++j) {
      if (block[j] == T{}) continue;
      IMAC_CHECK(slot < sp_.n, "matrix violates the N:M constraint");
      value_at(r, b, slot) = block[j];
      index_at(r, b, slot) = static_cast<std::uint8_t>(j);
      ++slot;
    }
    for (; slot < sp_.n; ++slot) index_at(r, b, slot) = static_cast<std::uint8_t>(sp_.m - 1);
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
