// Property tests on the timing model: shrinking a resource can never help,
// headline results are robust across processor configurations, and every
// processor field moves some cycle count. These guard the model against
// regressions that would silently invalidate the reproduced figures.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "asm/text_assembler.h"
#include "core/algorithm_table.h"
#include "core/runner.h"
#include "core/spmm_problem.h"
#include "timing/timing_sim.h"

namespace indexmac::timing {
namespace {

using core::Algorithm;
using core::RunConfig;
using core::SpmmProblem;

const kernels::GemmDims kDims{24, 96, 48};

std::uint64_t cycles_with(const ProcessorConfig& proc, Algorithm alg,
                          sparse::Sparsity sp = sparse::kSparsity14) {
  const auto problem = SpmmProblem::random(kDims, sp, 77);
  return core::run_exact(problem, RunConfig{.algorithm = alg, .kernel = {.unroll = 4}}, proc)
      .stats.cycles;
}

TEST(TimingProperties, SmallerRobNeverFaster) {
  ProcessorConfig base{};
  ProcessorConfig small = base;
  small.scalar.rob_entries = 16;
  for (const auto alg : {Algorithm::kIndexmac, Algorithm::kRowwiseSpmm})
    EXPECT_GE(cycles_with(small, alg), cycles_with(base, alg));
}

TEST(TimingProperties, NarrowerIssueNeverFaster) {
  ProcessorConfig base{};
  ProcessorConfig narrow = base;
  narrow.scalar.issue_width = 2;
  narrow.scalar.fetch_width = 2;
  narrow.scalar.commit_width = 2;
  for (const auto alg : {Algorithm::kIndexmac, Algorithm::kRowwiseSpmm})
    EXPECT_GE(cycles_with(narrow, alg), cycles_with(base, alg));
}

TEST(TimingProperties, SmallerVectorQueueNeverFaster) {
  ProcessorConfig base{};
  ProcessorConfig small = base;
  small.vector.queue_entries = 2;
  for (const auto alg : {Algorithm::kIndexmac, Algorithm::kRowwiseSpmm})
    EXPECT_GE(cycles_with(small, alg), cycles_with(base, alg));
}

TEST(TimingProperties, FewerLoadQueuesSlowBothButPreserveTheWin) {
  // Throttling the vector load queues hurts both kernels (the proposed one
  // relatively more: its B-tile preload and per-row A/C loads are a larger
  // fraction of its time once the per-non-zero loads are gone), but the
  // proposed kernel must stay ahead.
  ProcessorConfig base{};
  ProcessorConfig throttled = base;
  throttled.vector.load_queues = 2;
  for (const auto alg : {Algorithm::kIndexmac, Algorithm::kRowwiseSpmm})
    EXPECT_GT(cycles_with(throttled, alg), cycles_with(base, alg));
  EXPECT_GT(static_cast<double>(cycles_with(throttled, Algorithm::kRowwiseSpmm)) /
                static_cast<double>(cycles_with(throttled, Algorithm::kIndexmac)),
            1.2);
}

TEST(TimingProperties, SlowerDramNeverFaster) {
  ProcessorConfig base{};
  ProcessorConfig slow = base;
  slow.memory.dram_latency = 300;
  slow.memory.dram_line_occupancy = 21;
  for (const auto alg : {Algorithm::kIndexmac, Algorithm::kRowwiseSpmm})
    EXPECT_GT(cycles_with(slow, alg), cycles_with(base, alg));
}

TEST(TimingProperties, SpeedupHoldsAcrossConfigurations) {
  // The headline result must not be an artifact of one parameter choice.
  std::vector<ProcessorConfig> configs(4);
  configs[1].memory.dram_latency = 200;           // slow memory
  configs[2].scalar.issue_width = 4;              // narrower core
  configs[2].scalar.fetch_width = 4;
  configs[3].vector.mac_latency = 8;              // slower vector MAC pipe
  for (const auto& proc : configs) {
    const double speedup = static_cast<double>(cycles_with(proc, Algorithm::kRowwiseSpmm)) /
                           static_cast<double>(cycles_with(proc, Algorithm::kIndexmac));
    EXPECT_GT(speedup, 1.25);
    EXPECT_LT(speedup, 3.0);
  }
}

TEST(TimingProperties, DenseBaselineSlowerThanSparse) {
  // Executing the same logical product densely does all M/N times the MACs.
  const auto problem = SpmmProblem::random(kDims, sparse::kSparsity14, 78);
  const ProcessorConfig proc{};
  const auto dense = core::run_exact(
      problem, RunConfig{.algorithm = Algorithm::kDenseRowwise, .kernel = {.unroll = 1}}, proc);
  const auto sparse_run = core::run_exact(
      problem, RunConfig{.algorithm = Algorithm::kIndexmac, .kernel = {.unroll = 4}}, proc);
  EXPECT_GT(dense.stats.cycles, sparse_run.stats.cycles);
}

TEST(TimingProperties, CyclesScaleRoughlyLinearlyWithRows) {
  const ProcessorConfig proc{};
  const auto small = SpmmProblem::random({16, 96, 48}, sparse::kSparsity14, 79);
  const auto big = SpmmProblem::random({64, 96, 48}, sparse::kSparsity14, 79);
  const auto cs = core::run_exact(
      small, RunConfig{.algorithm = Algorithm::kIndexmac, .kernel = {.unroll = 4}}, proc);
  const auto cb = core::run_exact(
      big, RunConfig{.algorithm = Algorithm::kIndexmac, .kernel = {.unroll = 4}}, proc);
  const double ratio = static_cast<double>(cb.stats.cycles) / static_cast<double>(cs.stats.cycles);
  EXPECT_GT(ratio, 2.8);  // 4x rows, minus fixed overheads
  EXPECT_LT(ratio, 4.6);
}

/// A field's name and the base config with that field alone perturbed.
struct Perturbation {
  std::string field;
  ProcessorConfig config;
};

/// One perturbation per ProcessorConfig field of `base`. The structured
/// bindings name every field of every config struct in declaration order, so
/// a new field stops this compiling until it is listed here.
std::vector<Perturbation> one_field_perturbations(const ProcessorConfig& base) {
  ProcessorConfig p = base;
  std::vector<Perturbation> out;
  const auto perturb = [&](std::string field, auto& value, auto perturbed) {
    const auto saved = value;
    value = perturbed;
    out.push_back({std::move(field), p});
    value = saved;
  };
  auto& [fetch_width, issue_width, commit_width, rob_entries, lsq_entries, mispredict_penalty,
         alu_latency, mul_latency] = p.scalar;
  perturb("scalar.fetch_width", fetch_width, 1u);
  perturb("scalar.issue_width", issue_width, 1u);
  perturb("scalar.commit_width", commit_width, 1u);
  perturb("scalar.rob_entries", rob_entries, 4u);
  perturb("scalar.lsq_entries", lsq_entries, 1u);
  perturb("scalar.mispredict_penalty", mispredict_penalty, 40u);
  perturb("scalar.alu_latency", alu_latency, 4u);
  perturb("scalar.mul_latency", mul_latency, 20u);
  auto& [lanes, queue_entries, load_queues, store_queues, mac_latency, vector_alu_latency,
         slide_latency, move_latency, to_scalar_latency, dispatch_latency] = p.vector;
  perturb("vector.lanes", lanes, 4u);
  perturb("vector.queue_entries", queue_entries, 1u);
  perturb("vector.load_queues", load_queues, 1u);
  perturb("vector.store_queues", store_queues, 1u);
  perturb("vector.mac_latency", mac_latency, 20u);
  perturb("vector.alu_latency", vector_alu_latency, 20u);
  perturb("vector.slide_latency", slide_latency, 20u);
  perturb("vector.move_latency", move_latency, 20u);
  perturb("vector.to_scalar_latency", to_scalar_latency, 20u);
  perturb("vector.dispatch_latency", dispatch_latency, 20u);
  auto& [l1d, l2, l2_banks, l2_bank_occupancy, dram_latency, dram_line_occupancy] = p.memory;
  for (auto [cache, name] : {std::pair{&l1d, "memory.l1d."}, std::pair{&l2, "memory.l2."}}) {
    auto& [size_bytes, ways, line_bytes, hit_latency] = *cache;
    const std::string prefix = name;
    perturb(prefix + "size_bytes", size_bytes, size_bytes / 2);
    perturb(prefix + "ways", ways, 1u);
    perturb(prefix + "line_bytes", line_bytes, 128u);
    perturb(prefix + "hit_latency", hit_latency, 20u);
  }
  perturb("memory.l2_banks", l2_banks, 1u);
  perturb("memory.l2_bank_occupancy", l2_bank_occupancy, 8u);
  perturb("memory.dram_latency", dram_latency, 300u);
  perturb("memory.dram_line_occupancy", dram_line_occupancy, 30u);
  return out;
}

/// Exact cycles of every program the guard below runs under `proc`: the
/// table's families on a small shape, and the debug demo, the one
/// checked-in program with a scalar `mul`.
std::vector<std::uint64_t> program_cycles(const ProcessorConfig& proc) {
  std::vector<std::uint64_t> out;
  const auto problem = SpmmProblem::random(kDims, sparse::kSparsity14, 77);
  for (const core::AlgorithmRow& row : core::algorithm_table()) {
    const unsigned unroll = row.supports(kernels::Dataflow::kBStationary, 4) ? 4 : 1;
    out.push_back(
        core::run_exact(problem,
                        RunConfig{.algorithm = row.algorithm, .kernel = {.unroll = unroll}}, proc)
            .stats.cycles);
  }
  std::ifstream file(std::string(INDEXMAC_GOLDEN_DIR) + "/debug_demo.s");
  std::stringstream source;
  source << file.rdbuf();
  const Program demo = assemble_text(source.str());
  MainMemory mem;
  TimingSim sim(demo, mem, proc);
  out.push_back(sim.run().cycles);
  return out;
}

TEST(TimingProperties, EveryProcessorFieldMovesSomeCycleCount) {
  // Every field is hashed into each sweep cache key, so a field that moves
  // no cycle count is a dead knob. The L1D and L2 are shrunk so that their
  // geometry matters on these small programs.
  ProcessorConfig base{};
  base.memory.l1d.size_bytes = 1024;
  base.memory.l2.size_bytes = 16 * 1024;
  const std::vector<std::uint64_t> base_cycles = program_cycles(base);
  for (const Perturbation& p : one_field_perturbations(base))
    EXPECT_NE(program_cycles(p.config), base_cycles) << p.field << " moves no cycle count";
}

}  // namespace
}  // namespace indexmac::timing
