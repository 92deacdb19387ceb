// Differential and fuzz tests across the simulation stack:
//  * decoder fuzzing — random words never crash; they decode or report
//    kIllegal, and everything that decodes re-encodes to an equivalent
//    instruction (field-level idempotence);
//  * random-program differential runs — the timing model commits exactly
//    the instruction stream the functional model retires, for arbitrary
//    generated programs (loops, branches, memory, vector ops);
//  * tracer consistency — the trace length matches retired instructions
//    and records the same architectural effects.
//  * sampled-vs-exact tolerance matrix — the sampled estimator stays
//    within its documented error bound across dataflows, unroll factors
//    and (shrunk) transformer GEMM shapes, and rejects exactly the
//    configurations it documents as unsupported.
#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "asm/assembler.h"
#include "core/runner.h"
#include "core/spmm_problem.h"
#include "fsim/machine.h"
#include "fsim/tracer.h"
#include "isa/encoding.h"
#include "timing/timing_sim.h"
#include "workloads/workloads.h"

namespace indexmac {
namespace {

TEST(DecoderFuzz, RandomWordsNeverCrashAndRoundTrip) {
  std::mt19937 rng(2024);
  std::uniform_int_distribution<std::uint32_t> dist;
  int decoded = 0;
  for (int i = 0; i < 200'000; ++i) {
    const std::uint32_t word = dist(rng);
    std::string err;
    const isa::Instruction inst = isa::decode(word, &err);
    if (inst.op == isa::Op::kIllegal) {
      EXPECT_FALSE(err.empty());
      continue;
    }
    ++decoded;
    // Whatever decodes must re-encode to a word that decodes identically
    // (the re-encoded word may differ in don't-care bits).
    const std::uint32_t again = isa::encode(inst);
    EXPECT_EQ(isa::decode(again), inst) << std::hex << word;
  }
  EXPECT_GT(decoded, 100);  // the subset is dense enough to hit randomly
}

TEST(DecoderFuzz, AllZerosAndOnesAreIllegal) {
  EXPECT_EQ(isa::decode(0x00000000).op, isa::Op::kIllegal);
  EXPECT_EQ(isa::decode(0xffffffff).op, isa::Op::kIllegal);
}

/// Generates a random but well-formed program: a bounded loop skeleton
/// filled with random scalar ALU ops, memory ops into a scratch buffer,
/// and vector ops (vl set once), terminated by ebreak.
Program random_program(std::uint32_t seed) {
  std::mt19937 rng(seed);
  auto pick = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  Assembler a;
  constexpr std::int64_t kScratch = 0x40000;
  a.li(x(1), kScratch);
  a.li(x(2), 16);
  a.vsetvli_e32m1(x(0), x(2));
  a.li(x(31), pick(2, 6));  // outer loop count
  auto loop = a.new_label();
  a.bind(loop);
  const int body = pick(5, 40);
  for (int i = 0; i < body; ++i) {
    const XReg rd = x(static_cast<unsigned>(pick(3, 15)));
    const XReg rs1 = x(static_cast<unsigned>(pick(0, 15)));
    const XReg rs2 = x(static_cast<unsigned>(pick(0, 15)));
    switch (pick(0, 9)) {
      case 0: a.add(rd, rs1, rs2); break;
      case 1: a.sub(rd, rs1, rs2); break;
      case 2: a.mul(rd, rs1, rs2); break;
      case 3: a.andi(rd, rs1, pick(-16, 16)); break;
      case 4: a.slli(rd, rs1, static_cast<unsigned>(pick(0, 8))); break;
      case 5: {  // scalar store+load into scratch (bounded offset)
        const std::int32_t off = pick(0, 63) * 8;
        a.sd(rs1, x(1), off);
        a.ld(rd, x(1), off);
        break;
      }
      case 6: a.vle32(v(static_cast<unsigned>(pick(1, 7))), x(1)); break;
      case 7: a.vadd_vi(v(static_cast<unsigned>(pick(1, 7))),
                        v(static_cast<unsigned>(pick(1, 7))), pick(-15, 15)); break;
      case 8: a.vmv_x_s(rd, v(static_cast<unsigned>(pick(1, 7)))); break;
      case 9: {
        a.li(x(30), pick(8, 23));
        a.vindexmac_vx(v(static_cast<unsigned>(pick(1, 7))),
                       v(static_cast<unsigned>(pick(1, 7))), x(30));
        break;
      }
    }
  }
  a.addi(x(31), x(31), -1);
  a.bne(x(31), x(0), loop);
  a.vse32(v(1), x(1));
  a.ebreak();
  return a.finish();
}

class RandomProgramDifferential : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(RandomProgramDifferential, TimingCommitsExactlyWhatFunctionalRetires) {
  const Program program = random_program(GetParam());

  MainMemory fmem;
  Machine machine(program, fmem);
  const StopReason stop = machine.run(5'000'000);
  ASSERT_EQ(stop, StopReason::kEbreak);

  MainMemory tmem;
  timing::TimingSim sim(program, tmem, timing::ProcessorConfig{});
  const timing::TimingStats& stats = sim.run();
  EXPECT_EQ(stats.instructions, machine.instructions_retired());
  EXPECT_GE(stats.cycles, stats.instructions / 8);  // cannot beat 8-wide commit
  EXPECT_GT(stats.cycles, 0u);

  // The timing model drives its own functional machine: final architectural
  // memory must agree with the standalone functional run.
  for (int i = 0; i < 64; ++i)
    EXPECT_EQ(tmem.read_u64(0x40000 + 8 * i), fmem.read_u64(0x40000 + 8 * i)) << i;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramDifferential,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u, 55u, 89u, 144u,
                                           233u, 377u, 610u, 987u, 1597u));

/// The sampled estimator's documented cross-validation bound (see
/// test_runner.cpp's SampledTracksExactOnModerateProblem).
constexpr double kSampledErrorBound = 0.12;

/// One transformer GEMM shrunk to exact-simulation size via the registry's
/// shrink helper; the cap choices keep strip tails and k-tiling non-trivial.
struct MatrixShape {
  const char* label;
  kernels::GemmDims dims;
};

std::vector<MatrixShape> transformer_matrix_shapes() {
  const auto& bert = workloads::model_graph("bert-base").layers;
  const auto& vit = workloads::model_graph("vit-base").layers;
  return {
      {"bert.qkv_proj", workloads::shrink(bert[0].gemm, {24, 96, 48})},
      {"bert.mlp_down", workloads::shrink(bert[3].gemm, {16, 128, 33})},
      {"vit.patch_embed", workloads::shrink(vit[0].gemm, {32, 64, 41})},
  };
}

TEST(SampledVsExactMatrix, TransformerShapesAcrossDataflowsAndUnrolls) {
  using core::Algorithm;
  using core::RunConfig;
  const timing::ProcessorConfig proc{};
  const sparse::Sparsity sp = sparse::kSparsity24;

  std::uint32_t seed = 100;
  for (const MatrixShape& shape : transformer_matrix_shapes()) {
    const core::SpmmProblem problem = core::SpmmProblem::random(shape.dims, sp, seed++);
    for (const auto df : {kernels::Dataflow::kAStationary, kernels::Dataflow::kBStationary,
                          kernels::Dataflow::kCStationary})
      for (const unsigned unroll : {1u, 2u, 4u, 8u})
        for (const auto alg :
             {Algorithm::kRowwiseSpmm, Algorithm::kIndexmac, Algorithm::kIndexmac4}) {
          SCOPED_TRACE(std::string(shape.label) + " df=" +
                       std::to_string(static_cast<int>(df)) + " u" + std::to_string(unroll) +
                       " " + core::algorithm_name(alg));
          RunConfig config{.algorithm = alg, .kernel = {.unroll = unroll, .dataflow = df}};

          // The generators document unroll in [1,4] and Algorithms 3/4 as
          // B-stationary-only; those cells must reject, not mis-simulate.
          const bool kernel_supported =
              unroll <= 4 &&
              (alg == Algorithm::kRowwiseSpmm || df == kernels::Dataflow::kBStationary);
          // The sampled runner additionally documents B-stationary-only.
          const bool sampled_supported =
              kernel_supported && df == kernels::Dataflow::kBStationary;

          if (!kernel_supported) {
            EXPECT_THROW((void)core::run_exact(problem, config, proc), SimError);
            EXPECT_THROW((void)core::run_sampled(shape.dims, sp, config, proc), SimError);
            continue;
          }
          const auto exact = core::run_exact(problem, config, proc);
          EXPECT_GT(exact.stats.cycles, 0u);
          if (!sampled_supported) {
            EXPECT_THROW((void)core::run_sampled(shape.dims, sp, config, proc), SimError);
            continue;
          }
          const auto sampled = core::run_sampled(shape.dims, sp, config, proc);
          const double err =
              std::abs(sampled.cycles - static_cast<double>(exact.stats.cycles)) /
              static_cast<double>(exact.stats.cycles);
          EXPECT_LT(err, kSampledErrorBound)
              << "sampled=" << sampled.cycles << " exact=" << exact.stats.cycles;
          // Access counts are structure-determined: exact in both modes.
          EXPECT_EQ(sampled.data_accesses, exact.data_accesses());
        }
  }
}

TEST(SampledVsExactMatrix, BothSparsitiesOnTransformerShapes) {
  // The B-stationary tolerance cells again at 1:4 (the matrix above pins
  // 2:4): sparsity changes the A-stream geometry the extrapolation scales.
  using core::Algorithm;
  using core::RunConfig;
  const timing::ProcessorConfig proc{};
  std::uint32_t seed = 200;
  for (const MatrixShape& shape : transformer_matrix_shapes()) {
    const core::SpmmProblem problem =
        core::SpmmProblem::random(shape.dims, sparse::kSparsity14, seed++);
    for (const auto alg :
         {Algorithm::kRowwiseSpmm, Algorithm::kIndexmac, Algorithm::kIndexmac4}) {
      SCOPED_TRACE(std::string(shape.label) + " " + core::algorithm_name(alg));
      const RunConfig config{.algorithm = alg, .kernel = {.unroll = 4}};
      const auto exact = core::run_exact(problem, config, proc);
      const auto sampled = core::run_sampled(shape.dims, sparse::kSparsity14, config, proc);
      const double err = std::abs(sampled.cycles - static_cast<double>(exact.stats.cycles)) /
                         static_cast<double>(exact.stats.cycles);
      EXPECT_LT(err, kSampledErrorBound)
          << "sampled=" << sampled.cycles << " exact=" << exact.stats.cycles;
      EXPECT_EQ(sampled.data_accesses, exact.data_accesses());
    }
  }
}

/// Functional run of one prepared configuration; returns the C matrix.
sparse::DenseMatrix<float> run_functional(const core::SpmmProblem& problem,
                                          const core::RunConfig& config) {
  MainMemory mem;
  const core::PreparedRun run = core::prepare(problem, config, mem);
  Machine machine(run.program, mem);
  const StopReason stop = machine.run(200'000'000);
  EXPECT_EQ(stop, StopReason::kEbreak) << "kernel did not halt";
  return core::read_c(run, mem);
}

TEST(NonPaperSparsities, AllFiveAlgorithmsBitExactAcrossDataflows) {
  // Beyond the paper's 1:4 / 2:4: wider blocks (1:8, 3:8 — odd slot
  // counts) and M equal to the full tile (2:16). Every algorithm that
  // structurally supports the cell must reproduce spmm_reference
  // BIT-EXACTLY: the kernels accumulate non-zeros in the same k-ascending
  // order the reference uses, and padding slots contribute exact +0.0f.
  using core::Algorithm;
  using core::RunConfig;
  const kernels::GemmDims dims{9, 50, 33};  // ragged rows, k and columns
  std::uint32_t seed = 400;
  for (const sparse::Sparsity sp :
       {sparse::Sparsity{1, 8}, sparse::Sparsity{3, 8}, sparse::Sparsity{2, 16}}) {
    const core::SpmmProblem problem = core::SpmmProblem::random(dims, sp, seed++);
    const sparse::DenseMatrix<float> ref = problem.reference();
    for (const auto alg : {Algorithm::kDenseRowwise, Algorithm::kRowwiseSpmm,
                           Algorithm::kIndexmac, Algorithm::kIndexmac4, Algorithm::kSsr})
      for (const auto df : {kernels::Dataflow::kAStationary, kernels::Dataflow::kBStationary,
                            kernels::Dataflow::kCStationary}) {
        const bool supported =
            df == kernels::Dataflow::kBStationary || alg == Algorithm::kRowwiseSpmm;
        if (!supported) continue;  // Algs 1/3/4/5 are B-stationary by construction
        const unsigned unroll =
            alg == Algorithm::kDenseRowwise || alg == Algorithm::kSsr ? 1u : 4u;
        SCOPED_TRACE(std::string(core::algorithm_name(alg)) + " df=" +
                     std::to_string(static_cast<int>(df)) + " " + std::to_string(sp.n) + ":" +
                     std::to_string(sp.m));
        const RunConfig config{.algorithm = alg, .kernel = {.unroll = unroll, .dataflow = df}};
        const sparse::DenseMatrix<float> c = run_functional(problem, config);
        ASSERT_EQ(c.rows(), ref.rows());
        ASSERT_EQ(c.cols(), ref.cols());
        for (std::size_t i = 0; i < ref.rows(); ++i)
          for (std::size_t j = 0; j < ref.cols(); ++j)
            ASSERT_EQ(c.at(i, j), ref.at(i, j)) << "(" << i << "," << j << ")";
      }
  }
}

TEST(NonPaperSparsities, Algorithm4MatchesAlgorithm3BitExactly) {
  // The packed-index/dual-row kernel must produce the exact bits of the
  // Algorithm 3 kernel (same MAC order, different instruction forms).
  using core::Algorithm;
  const kernels::GemmDims dims{11, 48, 31};
  std::uint32_t seed = 500;
  for (const sparse::Sparsity sp :
       {sparse::kSparsity14, sparse::kSparsity24, sparse::Sparsity{1, 8},
        sparse::Sparsity{3, 8}, sparse::Sparsity{2, 16}}) {
    const core::SpmmProblem problem = core::SpmmProblem::random(dims, sp, seed++);
    for (const unsigned unroll : {1u, 2u, 4u}) {
      SCOPED_TRACE(std::to_string(sp.n) + ":" + std::to_string(sp.m) + " u" +
                   std::to_string(unroll));
      const auto c3 = run_functional(
          problem, core::RunConfig{.algorithm = Algorithm::kIndexmac, .kernel = {.unroll = unroll}});
      const auto c4 = run_functional(
          problem,
          core::RunConfig{.algorithm = Algorithm::kIndexmac4, .kernel = {.unroll = unroll}});
      for (std::size_t i = 0; i < c3.rows(); ++i)
        for (std::size_t j = 0; j < c3.cols(); ++j)
          ASSERT_EQ(c3.at(i, j), c4.at(i, j)) << "(" << i << "," << j << ")";
    }
  }
}

TEST(NonPaperSparsities, SsrMatchesAlgorithm3BitExactly) {
  // The streaming kernel packs A exactly like Algorithm 3 (IndexMode
  // kVrfIndex) and replays the same [ktile][row][slot] MAC order through
  // the streams, so its C bits must equal the vindexmac kernel's.
  using core::Algorithm;
  const kernels::GemmDims dims{11, 48, 31};
  std::uint32_t seed = 600;
  for (const sparse::Sparsity sp :
       {sparse::kSparsity14, sparse::kSparsity24, sparse::Sparsity{1, 8},
        sparse::Sparsity{3, 8}, sparse::Sparsity{2, 16}}) {
    SCOPED_TRACE(std::to_string(sp.n) + ":" + std::to_string(sp.m));
    const core::SpmmProblem problem = core::SpmmProblem::random(dims, sp, seed++);
    const auto c3 = run_functional(
        problem, core::RunConfig{.algorithm = Algorithm::kIndexmac, .kernel = {.unroll = 1}});
    const auto c5 = run_functional(
        problem, core::RunConfig{.algorithm = Algorithm::kSsr, .kernel = {.unroll = 1}});
    for (std::size_t i = 0; i < c3.rows(); ++i)
      for (std::size_t j = 0; j < c3.cols(); ++j)
        ASSERT_EQ(c3.at(i, j), c5.at(i, j)) << "(" << i << "," << j << ")";
  }
}

TEST(SampledVsExactMatrix, SsrSampledTracksExactAndPredictsAccesses) {
  // The SSR family is sampled-capable: the extrapolated cycles stay within
  // the documented bound and the analytic footprint (predict_ssr_footprint)
  // reproduces the exact run's access count including the per-strip
  // stream-line fetches.
  using core::Algorithm;
  const timing::ProcessorConfig proc{};
  std::uint32_t seed = 700;
  for (const MatrixShape& shape : transformer_matrix_shapes())
    for (const sparse::Sparsity sp : {sparse::kSparsity14, sparse::kSparsity24}) {
      SCOPED_TRACE(std::string(shape.label) + " " + std::to_string(sp.n) + ":" +
                   std::to_string(sp.m));
      const core::SpmmProblem problem = core::SpmmProblem::random(shape.dims, sp, seed++);
      const core::RunConfig config{.algorithm = Algorithm::kSsr, .kernel = {.unroll = 1}};
      const auto exact = core::run_exact(problem, config, proc);
      const auto sampled = core::run_sampled(shape.dims, sp, config, proc);
      const double err = std::abs(sampled.cycles - static_cast<double>(exact.stats.cycles)) /
                         static_cast<double>(exact.stats.cycles);
      EXPECT_LT(err, kSampledErrorBound)
          << "sampled=" << sampled.cycles << " exact=" << exact.stats.cycles;
      EXPECT_EQ(sampled.data_accesses, exact.data_accesses());
    }
}

TEST(Tracer, RecordsEveryRetiredInstruction) {
  Assembler a;
  a.li(x(1), 3);
  auto loop = a.new_label();
  a.bind(loop);
  a.addi(x(1), x(1), -1);
  a.bne(x(1), x(0), loop);
  a.ebreak();
  Program p = a.finish();
  MainMemory mem;
  Machine machine(p, mem);
  Tracer tracer(machine);
  std::ostringstream out;
  const StopReason stop = tracer.run(out);
  EXPECT_EQ(stop, StopReason::kEbreak);
  // One line per retired instruction.
  std::size_t lines = 0;
  for (char c : out.str())
    if (c == '\n') ++lines;
  EXPECT_EQ(lines, machine.instructions_retired());
  EXPECT_NE(out.str().find("bne"), std::string::npos);
  EXPECT_NE(out.str().find("# x1=0x2"), std::string::npos);  // first decrement
}

TEST(Tracer, ReportsVectorWritesAndScalarValues) {
  Assembler a;
  a.li(x(2), 16);
  a.vsetvli_e32m1(x(0), x(2));
  a.vmv_v_i(v(3), 7);
  a.vmv_x_s(x(5), v(3));
  a.ebreak();
  Program p = a.finish();
  MainMemory mem;
  Machine machine(p, mem);
  Tracer tracer(machine);
  std::ostringstream out;
  (void)tracer.run(out);
  EXPECT_NE(out.str().find("# v3 updated (vl=16)"), std::string::npos);
  EXPECT_NE(out.str().find("# x5=0x7"), std::string::npos);
}

TEST(DispatchStalls, RoundTripsShowUpAsScalarOperandStalls) {
  // A vmv.x.s -> vindexmac chain stalls vector dispatch on the scalar
  // operand; the breakdown must attribute cycles there.
  Assembler a;
  a.li(x(2), 16);
  a.vsetvli_e32m1(x(0), x(2));
  for (int i = 0; i < 32; ++i) {
    a.vmv_x_s(x(5), v(8));
    a.vindexmac_vx(v(1), v(2), x(5));
  }
  a.ebreak();
  Program p = a.finish();
  MainMemory mem;
  timing::TimingSim sim(p, mem, timing::ProcessorConfig{});
  const auto& stats = sim.run();
  EXPECT_GT(stats.dispatch_stalls.scalar_operand, 100u);
  EXPECT_GT(stats.dispatch_stalls.total(), stats.dispatch_stalls.queue_full);
}

TEST(DispatchStalls, IndependentVectorOpsMostlyBandwidthBound) {
  Assembler a;
  a.li(x(2), 16);
  a.vsetvli_e32m1(x(0), x(2));
  for (int i = 0; i < 64; ++i) a.vadd_vi(v(1 + (i % 8)), v(9), 1);
  a.ebreak();
  Program p = a.finish();
  MainMemory mem;
  timing::TimingSim sim(p, mem, timing::ProcessorConfig{});
  const auto& stats = sim.run();
  // Only the initial vsetvli shadow may register as a scalar-operand wait.
  EXPECT_LE(stats.dispatch_stalls.scalar_operand, 4u);
}

}  // namespace
}  // namespace indexmac
