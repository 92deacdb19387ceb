// Simulator-throughput benchmark: how many dynamic instructions per second
// the timing model retires. Every reproduced figure is gated
// by this number, so the repo tracks it: the CI Release job runs this
// harness and compares the emitted BENCH_sim_throughput.json against the
// checked-in baseline (bench/sim_throughput_baseline.json), warning on a
// >20% regression.
//
// Scenarios exercise the distinct hot paths of timing::Model:
//   * scalar_heavy   — branchy scalar loop (front end + scalar issue + L1D)
//   * vector_heavy   — exact indexmac SpMM run (vector dispatch + engine)
//   * algorithm4     — the same SpMM on the packed-index/dual-row kernel;
//                      its tracked sim_cycles, against vector_heavy's,
//                      records the Algorithm 3 -> 4 cycle gain
//   * sampled        — run_sampled's miniature run, uncached (the sweep
//                      workhorse)
// and the functional simulator alone (no timing model) on the same programs:
//   * fsim_scalar — the scalar_heavy loop
//   * fsim_vector — the exact indexmac SpMM
// plus the wall-clock of the canonical tiny sweep (tests/golden), measured
// on one thread so the number tracks single-core simulator speed.
//
// Usage: sim_throughput [--out FILE] [--reps N] [--scale N]
//   --out FILE   where to write the JSON report (default
//                BENCH_sim_throughput.json in the working directory)
//   --reps N     timed repetitions per scenario, 1..1000; best rep is
//                reported (default 5)
//   --scale N    problem-size multiplier, 1..64 (default 1; larger runs
//                amortize setup noise further)
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "asm/text_assembler.h"
#include "common/error.h"
#include "common/format.h"
#include "core/batch.h"
#include "core/runner.h"
#include "core/spmm_problem.h"
#include "core/sweep.h"
#include "fsim/machine.h"
#include "timing/timing_sim.h"

namespace {

using namespace indexmac;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One measured scenario: dynamic instructions per timed run plus the best
/// wall-clock over the repetitions.
struct ScenarioResult {
  std::string name;
  std::uint64_t instructions = 0;  ///< dynamic instructions per repetition
  double best_seconds = 0;
  unsigned reps = 0;
  /// Simulated cycles of the workload (0 when not meaningful for the
  /// scenario). Deterministic, so tracked in the JSON report: the
  /// vector_heavy / algorithm4 pair records the Algorithm 3 -> 4 cycle
  /// gain alongside simulator speed.
  std::uint64_t sim_cycles = 0;

  [[nodiscard]] double mips() const {
    return best_seconds <= 0 ? 0 : static_cast<double>(instructions) / best_seconds / 1e6;
  }
};

/// Runs `body` (which returns the dynamic-instruction count of one full
/// timing-model execution) `reps` times after one untimed warm-up.
template <typename Body>
ScenarioResult measure(const std::string& name, unsigned reps, Body&& body) {
  ScenarioResult out;
  out.name = name;
  out.reps = reps;
  out.instructions = body();  // warm-up; also yields the instruction count
  out.best_seconds = 1e30;
  for (unsigned r = 0; r < reps; ++r) {
    const Clock::time_point start = Clock::now();
    const std::uint64_t instructions = body();
    const double elapsed = seconds_since(start);
    IMAC_CHECK(instructions == out.instructions,
               "sim_throughput: instruction count drifted between reps in " + name);
    if (elapsed < out.best_seconds) out.best_seconds = elapsed;
  }
  return out;
}

// ---- scenario bodies ----

/// The branchy scalar loop shared by scalar_heavy and the fsim_scalar_*
/// scenarios: loads, stores, ALU ops and a backward branch.
AssembledText scalar_loop_program(unsigned scale) {
  const unsigned iters = 40'960 * scale;  // multiple of 4096: lui materializes it exactly
  char source[512];
  std::snprintf(source, sizeof source, R"(
      lui   x2, 0x100
      addi  x1, x0, 0
      lui   x3, %u
      addi  x5, x0, 0
  loop:
      lw    x4, 0(x2)
      add   x5, x5, x4
      addi  x4, x4, 3
      sw    x4, 0(x2)
      xori  x6, x5, 85
      and   x7, x6, x5
      addi  x2, x2, 4
      andi  x2, x2, 2047
      lui   x8, 0x100
      or    x2, x2, x8
      addi  x1, x1, 1
      blt   x1, x3, loop
      ebreak
  )", iters >> 12);
  return assemble_text(source);
}

ScenarioResult scalar_heavy(unsigned reps, unsigned scale) {
  const AssembledText assembled = scalar_loop_program(scale);
  MainMemory mem;
  return measure("scalar_heavy", reps, [&] {
    timing::TimingSim sim(assembled.program, mem, timing::ProcessorConfig{});
    return sim.run().instructions;
  });
}

/// Exact indexmac SpMM run: vector dispatch, engine scoreboarding, vle32.
ScenarioResult vector_heavy(unsigned reps, unsigned scale) {
  const kernels::GemmDims dims{64 * scale, 256, 128};
  const core::SpmmProblem problem = core::SpmmProblem::random(dims, sparse::kSparsity14, 1);
  const core::RunConfig config{.algorithm = core::Algorithm::kIndexmac, .kernel = {}};
  std::uint64_t cycles = 0;
  ScenarioResult out = measure("vector_heavy", reps, [&] {
    const auto r = core::run_exact(problem, config, timing::ProcessorConfig{});
    cycles = r.stats.cycles;
    return r.stats.instructions;
  });
  out.sim_cycles = cycles;
  return out;
}

/// The same SpMM on Algorithm 4 (packed-index + dual-row MACs): exercises
/// the scalar ld / srli index path and the dual-MAC engine occupancy, and
/// tracks the simulated-cycle gain over vector_heavy's Algorithm 3 run.
ScenarioResult algorithm4(unsigned reps, unsigned scale) {
  const kernels::GemmDims dims{64 * scale, 256, 128};
  const core::SpmmProblem problem = core::SpmmProblem::random(dims, sparse::kSparsity14, 1);
  const core::RunConfig config{.algorithm = core::Algorithm::kIndexmac4, .kernel = {}};
  std::uint64_t cycles = 0;
  ScenarioResult out = measure("algorithm4", reps, [&] {
    const auto r = core::run_exact(problem, config, timing::ProcessorConfig{});
    cycles = r.stats.cycles;
    return r.stats.instructions;
  });
  out.sim_cycles = cycles;
  return out;
}

/// The sampled estimator's miniature on a transformer-ish GEMM (what sweeps
/// simulate). It is measured uncached: run_sampled would serve every rep
/// after the warm-up from its memo. The warm-up builds the miniature
/// problem and the timed repetitions reuse it, as consecutive sweep points
/// of one layer do.
ScenarioResult sampled(unsigned reps, unsigned scale) {
  const kernels::GemmDims dims{512 * scale, 512, 512};
  const core::RunConfig config{.algorithm = core::Algorithm::kIndexmac,
                               .kernel = {.unroll = 4}};
  const core::MiniatureSpec spec =
      core::miniature_spec(dims, sparse::kSparsity14, config, timing::ProcessorConfig{});
  return measure("sampled", reps,
                 [&] { return core::measure_miniature(spec).stats.instructions; });
}

// ---- functional-simulator scenarios (no timing model) ----

/// Times one functional execution, setup excluded: each repetition rebuilds
/// pristine memory and a fresh Machine (its handler-table binding is on the
/// clock), but program construction is not. Rep 0 is an untimed warm-up
/// that also pins the expected instruction count.
template <typename Setup>
ScenarioResult measure_fsim(const std::string& name, unsigned reps, Setup&& setup) {
  ScenarioResult out;
  out.name = name;
  out.reps = reps;
  out.best_seconds = 1e30;
  for (unsigned rep = 0; rep <= reps; ++rep) {
    MainMemory mem;
    const Program program = setup(mem);
    const Clock::time_point start = Clock::now();
    Machine machine(program, mem);
    const StopReason stop = machine.run(2'000'000'000ull);
    const double elapsed = seconds_since(start);
    IMAC_CHECK(stop == StopReason::kEbreak, "sim_throughput: " + name + " did not halt");
    const std::uint64_t instructions = machine.instructions_retired();
    if (rep == 0) {
      out.instructions = instructions;
      continue;
    }
    IMAC_CHECK(instructions == out.instructions,
               "sim_throughput: instruction count drifted between reps in " + name);
    if (elapsed < out.best_seconds) out.best_seconds = elapsed;
  }
  return out;
}

ScenarioResult fsim_scalar(unsigned reps, unsigned scale) {
  const AssembledText assembled = scalar_loop_program(scale);
  return measure_fsim("fsim_scalar", reps, [&](MainMemory&) { return assembled.program; });
}

ScenarioResult fsim_vector(unsigned reps, unsigned scale) {
  const kernels::GemmDims dims{64 * scale, 256, 128};
  const core::SpmmProblem problem = core::SpmmProblem::random(dims, sparse::kSparsity14, 1);
  const core::RunConfig config{.algorithm = core::Algorithm::kIndexmac, .kernel = {}};
  return measure_fsim("fsim_vector", reps, [&](MainMemory& mem) {
    return core::prepare(problem, config, mem).program;
  });
}

/// Wall-clock of the canonical golden sweep on one thread.
double canonical_sweep_seconds() {
  const std::string spec_path = std::string(INDEXMAC_GOLDEN_DIR) + "/tiny_sweep.json";
  const core::SweepSpec spec = core::parse_sweep_spec_file(spec_path);
  const std::vector<core::SweepPoint> points = core::expand_sweep(spec);
  (void)core::run_sweep(spec, points, /*threads=*/1);  // warm-up
  const Clock::time_point start = Clock::now();
  (void)core::run_sweep(spec, points, /*threads=*/1);
  return seconds_since(start);
}

std::string json_report(const std::vector<ScenarioResult>& scenarios, double sweep_seconds,
                        unsigned scale) {
  std::string out = "{\n";
  out += "  \"schema\": \"indexmac-sim-throughput-v1\",\n";
#ifdef NDEBUG
  out += "  \"build\": \"release\",\n";
#else
  out += "  \"build\": \"debug\",\n";
#endif
  out += "  \"scale\": " + std::to_string(scale) + ",\n";
  out += "  \"scenarios\": [\n";
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const ScenarioResult& s = scenarios[i];
    char cycles[48] = "";
    if (s.sim_cycles != 0)
      std::snprintf(cycles, sizeof cycles, ", \"sim_cycles\": %llu",
                    static_cast<unsigned long long>(s.sim_cycles));
    char line[320];
    std::snprintf(line, sizeof line,
                  "    {\"name\": \"%s\", \"instructions\": %llu, \"best_seconds\": %.6f, "
                  "\"mips\": %.2f, \"reps\": %u%s}%s\n",
                  s.name.c_str(), static_cast<unsigned long long>(s.instructions),
                  s.best_seconds, s.mips(), s.reps, cycles,
                  i + 1 < scenarios.size() ? "," : "");
    out += line;
  }
  out += "  ],\n";
  char sweep[96];
  std::snprintf(sweep, sizeof sweep, "  \"canonical_sweep_seconds\": %.6f\n", sweep_seconds);
  out += sweep;
  out += "}\n";
  return out;
}

/// The value of a count flag: decimal digits naming 1..max.
unsigned count_flag(const std::string& text, const char* flag, unsigned max) {
  const std::uint64_t value = parse_uint(text, flag, max);
  if (value == 0)
    raise(std::string(flag) + " expects an unsigned integer of at least 1, got \"" + text + "\"");
  return static_cast<unsigned>(value);
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = "BENCH_sim_throughput.json";
  unsigned reps = 5;
  unsigned scale = 1;
  try {
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
      else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc)
        reps = count_flag(argv[++i], "--reps", 1000);
      else if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc)
        scale = count_flag(argv[++i], "--scale", 64);
      else {
        std::fprintf(stderr, "usage: sim_throughput [--out FILE] [--reps N] [--scale N]\n");
        return 2;
      }
    }

    std::vector<ScenarioResult> scenarios;
    scenarios.push_back(scalar_heavy(reps, scale));
    scenarios.push_back(vector_heavy(reps, scale));
    scenarios.push_back(algorithm4(reps, scale));
    scenarios.push_back(sampled(reps, scale));
    scenarios.push_back(fsim_scalar(reps, scale));
    scenarios.push_back(fsim_vector(reps, scale));
    for (const ScenarioResult& s : scenarios)
      std::printf("%-20s %10llu instructions   best %8.4f s   %8.2f MIPS\n", s.name.c_str(),
                  static_cast<unsigned long long>(s.instructions), s.best_seconds, s.mips());
    const double sweep_seconds = canonical_sweep_seconds();
    std::printf("%-14s %35s %8.4f s\n", "tiny_sweep", "wall (1 thread)", sweep_seconds);

    const std::string report = json_report(scenarios, sweep_seconds, scale);
    std::FILE* out = std::fopen(out_path, "wb");
    if (out == nullptr) {
      std::fprintf(stderr, "sim_throughput: cannot write %s\n", out_path);
      return 1;
    }
    std::fwrite(report.data(), 1, report.size(), out);
    std::fclose(out);
    std::printf("wrote %s\n", out_path);
  } catch (const indexmac::SimError& e) {
    std::fprintf(stderr, "sim_throughput: %s\n", e.what());
    return 1;
  }
  return 0;
}
