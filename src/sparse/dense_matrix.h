// Row-major dense matrix used for reference computations and as the source
// for N:M pruning. Only float (fp32) and std::int32_t instantiations are
// used in the library.
#pragma once

#include <cstdint>
#include <random>
#include <span>
#include <type_traits>
#include <vector>

#include "common/error.h"
#include "sparse/random.h"

namespace indexmac::sparse {

template <typename T>
class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(std::size_t rows, std::size_t cols, T init = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, init) {}

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  [[nodiscard]] T& at(std::size_t r, std::size_t c) {
    IMAC_CHECK(r < rows_ && c < cols_, "DenseMatrix index out of range");
    return data_[r * cols_ + c];
  }
  [[nodiscard]] const T& at(std::size_t r, std::size_t c) const {
    IMAC_CHECK(r < rows_ && c < cols_, "DenseMatrix index out of range");
    return data_[r * cols_ + c];
  }

  [[nodiscard]] std::span<const T> row(std::size_t r) const {
    IMAC_CHECK(r < rows_, "DenseMatrix row out of range");
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<T> row(std::size_t r) {
    IMAC_CHECK(r < rows_, "DenseMatrix row out of range");
    return {data_.data() + r * cols_, cols_};
  }

  [[nodiscard]] const std::vector<T>& data() const { return data_; }
  [[nodiscard]] std::vector<T>& data() { return data_; }

  friend bool operator==(const DenseMatrix&, const DenseMatrix&) = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

/// Uniform random matrix in [lo, hi] with a deterministic seed, drawn in
/// row-major order: for float the values of UniformFloats(seed, lo, hi),
/// for integers std::uniform_int_distribution over std::mt19937(seed).
template <typename T>
[[nodiscard]] DenseMatrix<T> random_matrix(std::size_t rows, std::size_t cols,
                                           std::uint32_t seed, T lo, T hi) {
  DenseMatrix<T> m(rows, cols);
  if constexpr (std::is_same_v<T, float>) {
    UniformFloats(seed, lo, hi).fill(m.data());
  } else {
    std::mt19937 rng(seed);
    std::uniform_int_distribution<T> dist(lo, hi);
    for (T& v : m.data()) v = dist(rng);
  }
  return m;
}

/// Reference (scalar) dense GEMM: C = A * B.
template <typename T>
[[nodiscard]] DenseMatrix<T> matmul_reference(const DenseMatrix<T>& a, const DenseMatrix<T>& b) {
  IMAC_CHECK(a.cols() == b.rows(), "matmul: inner dimensions must match");
  DenseMatrix<T> c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const T aik = a.at(i, k);
      if (aik == T{}) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) c.at(i, j) += aik * b.at(k, j);
    }
  return c;
}

}  // namespace indexmac::sparse
