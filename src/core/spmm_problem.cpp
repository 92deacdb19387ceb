#include "core/spmm_problem.h"

#include "common/error.h"

namespace indexmac::core {

SpmmProblem SpmmProblem::random(const kernels::GemmDims& dims, sparse::Sparsity sp,
                                std::uint32_t seed) {
  const auto a_dense = sparse::random_matrix<float>(dims.rows_a, dims.k, seed, -1.0f, 1.0f);
  return SpmmProblem{
      .dims = dims,
      .sp = sp,
      .a = sparse::NmMatrix<float>::prune_from_dense(a_dense, sp),
      .b = sparse::random_matrix<float>(dims.k, dims.cols_b, seed + 1, -1.0f, 1.0f),
  };
}

sparse::DenseMatrix<float> SpmmProblem::reference() const { return spmm_reference(a, b); }

namespace {

/// Places the B image shared by all algorithms. C gets no image: its
/// untouched memory reads as the zeros every kernel accumulates onto.
void place_b(const SpmmProblem& problem, const kernels::SpmmLayout& layout, MainMemory& mem) {
  const auto b_image =
      sparse::to_padded_rows(problem.b, layout.b_pitch_elems, layout.k_padded);
  mem.write_f32s(layout.b_base, b_image);
}

}  // namespace

PreparedRun prepare(const SpmmProblem& problem, const RunConfig& config, MainMemory& mem) {
  IMAC_CHECK(problem.dims.k == problem.a.cols() || problem.a.padded_cols() >= problem.dims.k,
             "problem dims disagree with A");
  AddressAllocator alloc;
  kernels::SpmmLayout layout =
      kernels::make_layout(problem.dims, problem.sp, config.tile_rows, alloc);
  const AlgorithmRow& family = algorithm_row(config.algorithm);

  if (family.dense_operands) {
    // Dense family: store A densely (row pitch = multiple of 16 elements).
    const std::size_t a_pitch = round_up(problem.dims.k, isa::kVlMax);
    const std::uint64_t a_base = alloc.alloc(problem.dims.rows_a * a_pitch * 4);
    const auto a_image =
        sparse::to_padded_rows(problem.a.to_dense(), a_pitch, problem.dims.rows_a);
    mem.write_f32s(a_base, a_image);
    place_b(problem, layout, mem);
    return PreparedRun{config, layout,
                       family.emit({.layout = layout,
                                    .options = config.kernel,
                                    .dense_a_base = a_base,
                                    .dense_a_pitch_elems = a_pitch})};
  }

  sparse::PackConfig pack_config{
      .tile_rows = config.tile_rows,
      .mode = family.index_mode,
      .b_pitch_bytes = static_cast<std::uint32_t>(layout.b_pitch_elems * 4),
      .base_vreg = kernels::b_tile_base_vreg(config.tile_rows),
  };
  const auto packed = sparse::pack_a(problem.a, pack_config);
  IMAC_ASSERT(packed.num_ktiles == layout.num_ktiles &&
                  packed.slots_per_tile == layout.slots_per_tile,
              "packing and layout disagree");
  mem.write_f32s(layout.a_values, packed.values);
  mem.write_i32s(layout.a_indices, packed.indices);
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
