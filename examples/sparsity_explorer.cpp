// Sparsity explorer: sweep N:M patterns on a user-chosen GEMM and print
// the speedup and memory-access profile of the vindexmac kernel. Extends
// the paper's 1:4 / 2:4 evaluation to arbitrary patterns. The whole sweep
// runs as one batch on one worker thread per hardware thread.
//
//   ./build/examples/sparsity_explorer [rows k cols]
//
// The three dimensions are positive decimal integers; anything else exits 1.
#include <cstdio>
#include <string>

#include "common/error.h"
#include "common/format.h"
#include "core/batch.h"

namespace {

/// One GEMM dimension argument: a positive decimal integer.
std::size_t dim_arg(const char* text, const char* what) {
  const std::uint64_t value = indexmac::parse_uint(text, what);
  if (value == 0) indexmac::raise(std::string(what) + " must be positive, got \"0\"");
  return value;
}

int run(int argc, char** argv) {
  using namespace indexmac;
  using core::Algorithm;
  using core::RunConfig;

  if (argc != 1 && argc != 4) raise("usage: sparsity_explorer [rows k cols]");
  kernels::GemmDims dims{128, 512, 196};
  if (argc == 4) {
    dims.rows_a = dim_arg(argv[1], "rows");
    dims.k = dim_arg(argv[2], "k");
    dims.cols_b = dim_arg(argv[3], "cols");
  }
  std::printf("GEMM: C[%zu x %zu] = A[%zu x %zu] x B[%zu x %zu]\n\n", dims.rows_a, dims.cols_b,
              dims.rows_a, dims.k, dims.k, dims.cols_b);

  const timing::ProcessorConfig proc{};
  const sparse::Sparsity sweep[] = {sparse::Sparsity{1, 4}, sparse::Sparsity{2, 4},
                                    sparse::Sparsity{1, 2}, sparse::Sparsity{2, 8},
                                    sparse::Sparsity{4, 8}};
  const RunConfig rowwise{.algorithm = Algorithm::kRowwiseSpmm, .kernel = {.unroll = 4}};
  const RunConfig proposed{.algorithm = Algorithm::kIndexmac, .kernel = {.unroll = 4}};

  std::vector<core::BatchJob> jobs;
  for (const auto sp : sweep) {
    jobs.push_back(core::sampled_job(dims, sp, rowwise, proc));
    jobs.push_back(core::sampled_job(dims, sp, proposed, proc));
  }
  const auto results = core::run_batch(jobs, core::default_thread_count());

  TextTable table;
  table.set_header({"sparsity", "density", "Row-Wise-SpMM cyc", "Proposed cyc", "speedup",
                    "accesses ratio"});
  std::size_t cursor = 0;
  for (const auto sp : sweep) {
    const auto& r2 = results[cursor++];
    const auto& r3 = results[cursor++];
    table.add_row({std::to_string(sp.n) + ":" + std::to_string(sp.m),
                   fmt_fixed(sp.density(), 2), fmt_count(static_cast<std::uint64_t>(r2.cycles)),
                   fmt_count(static_cast<std::uint64_t>(r3.cycles)),
                   fmt_speedup(r2.cycles / r3.cycles),
                   fmt_fixed(static_cast<double>(r3.data_accesses) /
                                 static_cast<double>(r2.data_accesses),
                             3)});
  }
  std::printf("%s", table.to_string().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const indexmac::SimError& e) {
    std::fprintf(stderr, "sparsity_explorer: %s\n", e.what());
    return 1;
  }
}
