// N:M structured-sparse matrix format (Fig. 1(b) of the paper).
//
// The logical matrix is split row-wise into blocks of M consecutive
// columns; each block holds at most N non-zero elements. Storage keeps
// exactly N (value, local-index) slots per block — real non-zeros first,
// zero-valued padding after — giving the fixed-stride values / col_idx
// vectors the paper's kernels rely on.
#pragma once

#include <cmath>    // std::abs(float) in prune_from_dense
#include <compare>
#include <cstdint>
#include <cstdlib>  // std::abs(int) for integral instantiations
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
      for (std::size_t b = 0; b < out.blocks_per_row(); ++b) {
        unsigned slot = 0;
        for (unsigned j = 0; j < sp.m; ++j) {
          const std::size_t c = b * sp.m + j;
          if (c >= dense.cols()) break;
          const T v = dense.at(r, c);
          if (v == T{}) continue;
          IMAC_CHECK(slot < sp.n, "matrix violates the N:M constraint");
          out.value_at(r, b, slot) = v;
          out.index_at(r, b, slot) = static_cast<std::uint8_t>(j);
          ++slot;
        }
        // Padding slots keep index m-1: a harmless in-block position whose
        // zero value contributes nothing (mirrors fixed-stride kernels).
        for (; slot < sp.n; ++slot) out.index_at(r, b, slot) = static_cast<std::uint8_t>(sp.m - 1);
      }
    return out;
  }

  /// Magnitude-based pruning: keeps the N largest-|value| elements of each
  /// M-block. This reproduces the *structure* of the paper's
  /// TensorFlow-pruned CNN weights (see docs/architecture.md, "Deliberate
  /// simplifications and substitutions").
  static NmMatrix prune_from_dense(const DenseMatrix<T>& dense, Sparsity sp) {
    DenseMatrix<T> pruned = dense;
    const std::size_t blocks = ceil_div(dense.cols(), sp.m);
    for (std::size_t r = 0; r < dense.rows(); ++r)
      for (std::size_t b = 0; b < blocks; ++b) {
        // Select the N largest magnitudes in this block (stable for ties).
        std::vector<unsigned> keep;
        for (unsigned round = 0; round < sp.n; ++round) {
          int best = -1;
          for (unsigned j = 0; j < sp.m; ++j) {
            const std::size_t c = b * sp.m + j;
            if (c >= dense.cols()) break;
            bool kept = false;
            for (unsigned kj : keep) kept = kept || kj == j;
            if (kept) continue;
            if (best < 0 || std::abs(dense.at(r, c)) > std::abs(dense.at(r, b * sp.m + best)))
              best = static_cast<int>(j);
          }
          if (best >= 0) keep.push_back(static_cast<unsigned>(best));
        }
        for (unsigned j = 0; j < sp.m; ++j) {
          const std::size_t c = b * sp.m + j;
          if (c >= dense.cols()) break;
          bool kept = false;
          for (unsigned kj : keep) kept = kept || kj == j;
          if (!kept) pruned.at(r, c) = T{};
        }
      }
    return from_dense(pruned, sp);
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

  /// Reconstructs the dense equivalent (logical size, padding dropped).
  [[nodiscard]] DenseMatrix<T> to_dense() const {
    DenseMatrix<T> out(rows_, cols_);
    for (std::size_t r = 0; r < rows_; ++r)
      for (std::size_t b = 0; b < blocks_; ++b)
        for (unsigned s = 0; s < sp_.n; ++s) {
          const T v = value_at(r, b, s);
          if (v == T{}) continue;
          const std::size_t c = b * sp_.m + index_at(r, b, s);
          IMAC_ASSERT(c < cols_, "stored non-zero lands in padding");
          out.at(r, c) += v;
        }
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
