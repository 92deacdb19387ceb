#include "core/spmm_problem.h"

#include "common/error.h"

namespace indexmac::core {

SpmmProblem SpmmProblem::random(const kernels::GemmDims& dims, sparse::Sparsity sp,
                                std::uint32_t seed) {
  return SpmmProblem{
      .dims = dims,
      .sp = sp,
      .a = sparse::NmMatrix<float>::random(dims.rows_a, dims.k, sp, seed, -1.0f, 1.0f),
      .b = sparse::random_matrix<float>(dims.k, dims.cols_b, seed + 1, -1.0f, 1.0f),
  };
}

sparse::DenseMatrix<float> SpmmProblem::reference() const { return spmm_reference(a, b); }

namespace {

// Operands go into the image row by row or k-tile by k-tile, so no
// full-size copy of one exists beside the image. Padding is not written:
// untouched memory reads as zero.

/// Writes B's k rows at the layout's pitch. Padding columns and rows
/// k..k_padded stay untouched, and so does C: both read as the zeros the
/// kernels expect.
void place_b(const SpmmProblem& problem, const kernels::SpmmLayout& layout, MainMemory& mem) {
  IMAC_CHECK(problem.b.rows() <= layout.k_padded && problem.b.cols() <= layout.b_pitch_elems,
             "B does not fit its layout");
  for (std::size_t r = 0; r < problem.b.rows(); ++r)
    mem.write_f32s(layout.b_base + r * layout.b_pitch_elems * 4, problem.b.row(r));
}

/// Writes A densely for the dense family, one row at a time.
void place_dense_a(const sparse::NmMatrix<float>& a, std::uint64_t base, std::size_t pitch_elems,
                   MainMemory& mem) {
  std::vector<float> row(a.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    a.dense_row(r, row);
    mem.write_f32s(base + r * pitch_elems * 4, row);
  }
}

/// Packs A one k-tile at a time, each at its k-tile-major place in the
/// value and index streams.
void place_packed_a(const sparse::NmMatrix<float>& a, const sparse::PackConfig& config,
                    const kernels::SpmmLayout& layout, MainMemory& mem) {
  const sparse::PackShape shape = sparse::pack_shape(a, config);
  IMAC_ASSERT(shape.num_ktiles == layout.num_ktiles &&
                  shape.slots_per_tile == layout.slots_per_tile,
              "packing and layout disagree");
  std::vector<float> values(shape.tile_values());
  std::vector<std::int32_t> indices(shape.tile_index_words());
  for (std::size_t t = 0; t < shape.num_ktiles; ++t) {
    sparse::pack_ktile(a, shape, config, t, std::span(values), std::span(indices));
    mem.write_f32s(layout.a_values + t * values.size() * 4, values);
    mem.write_i32s(layout.a_indices + t * indices.size() * 4, indices);
  }
}

}  // namespace

PreparedRun prepare(const SpmmProblem& problem, const RunConfig& config, MainMemory& mem) {
  IMAC_CHECK(problem.a.rows() == problem.dims.rows_a &&
                 (problem.dims.k == problem.a.cols() || problem.a.padded_cols() >= problem.dims.k),
             "problem dims disagree with A");
  AddressAllocator alloc;
  kernels::SpmmLayout layout =
      kernels::make_layout(problem.dims, problem.sp, config.tile_rows, alloc);
  const AlgorithmRow& family = algorithm_row(config.algorithm);

  if (family.dense_operands) {
    // Dense family: store A densely (row pitch = multiple of 16 elements).
    const std::size_t a_pitch = round_up(problem.dims.k, isa::kVlMax);
    const std::uint64_t a_base = alloc.alloc(problem.dims.rows_a * a_pitch * 4);
    IMAC_CHECK(problem.a.cols() <= a_pitch, "A does not fit its layout");
    place_dense_a(problem.a, a_base, a_pitch, mem);
    place_b(problem, layout, mem);
    return PreparedRun{config, layout,
                       family.emit({.layout = layout,
                                    .options = config.kernel,
                                    .dense_a_base = a_base,
                                    .dense_a_pitch_elems = a_pitch})};
  }

  const sparse::PackConfig pack_config{
      .tile_rows = config.tile_rows,
      .mode = family.index_mode,
      .b_pitch_bytes = static_cast<std::uint32_t>(layout.b_pitch_elems * 4),
      .base_vreg = kernels::b_tile_base_vreg(config.tile_rows),
  };
  place_packed_a(problem.a, pack_config, layout, mem);
  place_b(problem, layout, mem);

  Program program = family.emit({.layout = layout, .options = config.kernel});
  return PreparedRun{config, layout, std::move(program)};
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
