#include "core/spmm_problem.h"

#include <algorithm>
#include <vector>

#include "common/error.h"

namespace indexmac::core {

namespace {

// The one draw of a problem's operands, whichever sink it fills: A from
// std::mt19937(seed) and B from std::mt19937(seed + 1), which wraps to 0 at
// seed 2^32 - 1, uniform in [kLo, kHi].
constexpr float kLo = -1.0f;
constexpr float kHi = 1.0f;
std::uint32_t b_seed(std::uint32_t seed) { return seed + 1; }

}  // namespace

SpmmProblem SpmmProblem::random(const kernels::GemmDims& dims, sparse::Sparsity sp,
                                std::uint32_t seed) {
  return SpmmProblem{
      .dims = dims,
      .sp = sp,
      .a = sparse::NmMatrix<float>::random(dims.rows_a, dims.k, sp, seed, kLo, kHi),
      .b = sparse::random_matrix<float>(dims.k, dims.cols_b, b_seed(seed), kLo, kHi),
  };
}

sparse::DenseMatrix<float> SpmmProblem::reference() const { return spmm_reference(a, b); }

namespace {

/// The image sink of both prepare paths: it writes A's rows, given as
/// their N:M slots, and B's rows where the family's kernel reads them, then
/// emits the kernel. Operands go in some rows or one k-tile at a time, so
/// no full-size copy of one exists beside the image. Padding is not
/// written: untouched memory reads as zero, and so does C.
class ImageWriter {
 public:
  ImageWriter(const kernels::GemmDims& dims, sparse::Sparsity sp, const RunConfig& config,
              MainMemory& mem)
      : config_(config), family_(algorithm_row(config.algorithm)), mem_(mem) {
    AddressAllocator alloc;
    layout_ = kernels::make_layout(dims, sp, config.tile_rows, alloc);
    slots_per_row_ = ceil_div(dims.k, sp.m) * sp.n;
    if (family_.dense_operands) {
      // Dense family: A is stored densely, at a pitch of whole vectors.
      dense_pitch_ = round_up(dims.k, isa::kVlMax);
      dense_base_ = alloc.alloc(dims.rows_a * dense_pitch_ * 4);
      return;
    }
    pack_config_ = {
        .tile_rows = config.tile_rows,
        .mode = family_.index_mode,
        .b_pitch_bytes = static_cast<std::uint32_t>(layout_.b_pitch_elems * 4),
        .base_vreg = kernels::b_tile_base_vreg(config.tile_rows),
    };
    shape_ = sparse::pack_shape(dims.rows_a, dims.k, sp, pack_config_);
    IMAC_ASSERT(shape_.num_ktiles == layout_.num_ktiles &&
                    shape_.slots_per_tile == layout_.slots_per_tile,
                "packing and layout disagree");
  }

  /// Writes A's rows [first, first + n): `values` and `indices` hold their
  /// slots as NmMatrix stores them. A sparse family's streams get each
  /// k-tile's run of the n rows at its k-tile-major place; the dense
  /// family gets each row densely.
  void write_a(std::size_t first, std::span<const float> values,
               std::span<const std::uint8_t> indices) {
    const std::size_t n = values.size() / slots_per_row_;
    IMAC_CHECK(values.size() == n * slots_per_row_ && first + n <= layout_.dims.rows_a,
               "A's rows do not fit their layout");
    if (family_.dense_operands) {
      values_.resize(layout_.dims.k);
      for (std::size_t i = 0; i < n; ++i) {
        sparse::slots_to_dense(values.subspan(i * slots_per_row_, slots_per_row_),
                               indices.subspan(i * slots_per_row_, slots_per_row_), layout_.sp,
                               std::span(values_));
        mem_.write_f32s(dense_base_ + (first + i) * dense_pitch_ * 4, values_);
      }
      return;
    }
    values_.resize(n * shape_.slots_per_tile);
    index_words_.resize(n * shape_.row_index_words());
    for (std::size_t t = 0; t < shape_.num_ktiles; ++t) {
      sparse::pack_ktile(shape_, pack_config_, t, values, indices, std::span(values_),
                         std::span(index_words_));
      const std::size_t row = t * layout_.dims.rows_a + first;  // in the k-tile-major streams
      mem_.write_f32s(layout_.a_values + row * shape_.slots_per_tile * 4, values_);
      mem_.write_i32s(layout_.a_indices + row * shape_.row_index_words() * 4, index_words_);
    }
  }

  /// Writes B's row `r` at the layout's pitch.
  void write_b(std::size_t r, std::span<const float> row) {
    IMAC_CHECK(r < layout_.dims.k && row.size() == layout_.dims.cols_b,
               "B's row does not fit its layout");
    mem_.write_f32s(layout_.b_base + r * layout_.b_pitch_elems * 4, row);
  }

  /// Emits the family's kernel over the image.
  [[nodiscard]] PreparedRun finish() const {
    return PreparedRun{config_, layout_,
                       family_.emit({.layout = layout_,
                                     .options = config_.kernel,
                                     .dense_a_base = dense_base_,
                                     .dense_a_pitch_elems = dense_pitch_})};
  }

 private:
  RunConfig config_;
  const AlgorithmRow& family_;
  MainMemory& mem_;
  kernels::SpmmLayout layout_;
  std::size_t slots_per_row_ = 0;  ///< A's slots per row: N per block
  std::uint64_t dense_base_ = 0;
  std::size_t dense_pitch_ = 0;
  sparse::PackConfig pack_config_;
  sparse::PackShape shape_;
  std::vector<float> values_;  ///< a dense row, or one k-tile's values of the rows
  std::vector<std::int32_t> index_words_;  ///< one k-tile's index words of the rows
};

}  // namespace

PreparedRun prepare(const SpmmProblem& problem, const RunConfig& config, MainMemory& mem) {
  const kernels::GemmDims& dims = problem.dims;
  IMAC_CHECK(problem.a.rows() == dims.rows_a && problem.a.cols() == dims.k &&
                 problem.a.sparsity() == problem.sp && problem.b.rows() == dims.k &&
                 problem.b.cols() == dims.cols_b,
             "problem dims disagree with its operands");
  ImageWriter image(dims, problem.sp, config, mem);
  image.write_a(0, problem.a.values(), problem.a.indices());
  for (std::size_t r = 0; r < dims.k; ++r) image.write_b(r, problem.b.row(r));
  return image.finish();
}

PreparedRun prepare(const kernels::GemmDims& dims, sparse::Sparsity sp, std::uint32_t seed,
                    const RunConfig& config, MainMemory& mem) {
  ImageWriter image(dims, sp, config, mem);  // checks dims and sp before anything divides
  sparse::NmDraw a(dims.k, sp, seed, kLo, kHi);
  const std::size_t slots_per_row = a.slots_per_row();
  const std::size_t group = std::min(kDrawGroupRows, dims.rows_a);
  std::vector<float> values(group * slots_per_row);
  std::vector<std::uint8_t> indices(values.size());
  for (std::size_t first = 0; first < dims.rows_a; first += group) {
    const std::size_t n = std::min(group, dims.rows_a - first);
    for (std::size_t i = 0; i < n; ++i)
      a.next_row(std::span(values).subspan(i * slots_per_row, slots_per_row),
                 std::span(indices).subspan(i * slots_per_row, slots_per_row));
    image.write_a(first, std::span(values).first(n * slots_per_row),
                  std::span(indices).first(n * slots_per_row));
  }
  sparse::UniformFloats b(b_seed(seed), kLo, kHi);
  std::vector<float> row(dims.cols_b);
  for (std::size_t r = 0; r < dims.k; ++r) {
    b.fill(row);
    image.write_b(r, row);
  }
  return image.finish();
}

sparse::DenseMatrix<float> read_c(const PreparedRun& run, const MainMemory& mem) {
  sparse::DenseMatrix<float> c(run.layout.dims.rows_a, run.layout.dims.cols_b);
  for (std::size_t r = 0; r < c.rows(); ++r) {
    const auto row =
        mem.read_f32s(run.layout.c_base + r * run.layout.c_pitch_elems * 4, c.cols());
    for (std::size_t j = 0; j < c.cols(); ++j) c.at(r, j) = row[j];
  }
  return c;
}

}  // namespace indexmac::core
