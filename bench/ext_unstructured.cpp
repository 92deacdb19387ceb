// Extension bench (paper Section I motivation): structured vs unstructured
// sparsity on the same vector processor at matched per-row density.
// Unstructured column indexes are unbounded, so the B tile cannot live in
// the vector register file — every non-zero pays a memory load (ELLPACK
// kernel) — while 1:4 / 2:4 structured sparsity unlocks the vindexmac
// indirect-read path.
#include <cstdio>

#include "common/error.h"
#include "common/format.h"
#include "core/runner.h"
#include "core/unstructured.h"
#include "fsim/machine.h"
#include "sparse/ellpack.h"
#include "timing/timing_sim.h"

int main() {
  using namespace indexmac;
  using core::Algorithm;
  using core::RunConfig;

  const timing::ProcessorConfig proc{};
  std::printf(
      "\n=== Extension: structured (vindexmac) vs unstructured (ELLPACK) sparsity ===\n\n");
  std::printf("Same per-row non-zero budget; unstructured positions are magnitude-chosen\n"
              "per row. Cycles from exact simulation.\n\n");

  const kernels::GemmDims dims{64, 256, 98};
  TextTable table;
  table.set_header({"density", "unstructured ELLPACK", "Row-Wise-SpMM (N:M)",
                    "Proposed (N:M)", "Proposed vs ELLPACK"});
  struct Case {
    sparse::Sparsity sp;
    const char* label;
  };
  for (const Case c : {Case{sparse::kSparsity14, "25% (1:4)"},
                       Case{sparse::kSparsity24, "50% (2:4)"}}) {
    const auto problem = core::SpmmProblem::random(dims, c.sp, 23);
    const auto rowwise = core::run_exact(
        problem, RunConfig{.algorithm = Algorithm::kRowwiseSpmm, .kernel = {.unroll = 4}}, proc);
    const auto proposed = core::run_exact(
        problem, RunConfig{.algorithm = Algorithm::kIndexmac, .kernel = {.unroll = 4}}, proc);

    const auto dense = sparse::random_matrix<float>(dims.rows_a, dims.k, 24, -1.0f, 1.0f);
    const auto unstructured =
        sparse::prune_unstructured(dense, dims.k * c.sp.n / c.sp.m);
    // Cost-model contract of this comparison: ELLPACK pads every row to
    // the densest row's non-zero count, and padding slots pay real gather
    // loads (see EllpackMatrix::from_dense). Magnitude pruning of a random
    // dense matrix keeps exactly `keep` non-zeros in every row, so here
    // the format is padding-free and the unstructured baseline's
    // memory-access numbers count genuine non-zeros only — the structured
    // vs unstructured gap below is not inflated by row imbalance.
    IMAC_CHECK(sparse::EllpackMatrix<float>::from_dense(unstructured).padding_fraction() == 0.0,
               "unstructured baseline unexpectedly padded: per-row nnz is imbalanced");
    const auto b = sparse::random_matrix<float>(dims.k, dims.cols_b, 25, -1.0f, 1.0f);
    MainMemory mem;
    const auto run = core::prepare_ellpack(unstructured, b, mem);
    timing::TimingSim sim(run.program, mem, proc);
    const auto& ell = sim.run();

    table.add_row({c.label, fmt_count(ell.cycles), fmt_count(rowwise.stats.cycles),
                   fmt_count(proposed.stats.cycles),
                   fmt_speedup(static_cast<double>(ell.cycles) /
                               static_cast<double>(proposed.stats.cycles))});
  }
  std::printf("%s\n", table.to_string().c_str());
  return 0;
}
