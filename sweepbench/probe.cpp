// sweepbench_probe: re-drives the points of a sweep spec through the
// library's public calls, for the sweep benchmark (see README.md here).
//
//   sweepbench_probe expand --spec S
//       JSON: expanded point count, unique cache keys, the key fields of
//       every row in expansion order, and a 1-based shard of 4096 that owns
//       no point (a sweep restricted to it does its set-up and nothing else).
//   sweepbench_probe fsim --spec S
//       JSON: instructions the sweep's unique points retire, counted by a
//       standalone functional run of each simulated program, and how many
//       of those runs left a C matrix unequal to SpmmProblem::reference().
//   sweepbench_probe measure LOG PROGRAM [ARG...]
//       Runs PROGRAM with stdout and stderr to LOG and prints JSON: its exit
//       code, wall seconds, user+sys CPU seconds and peak RSS. Peak RSS is
//       only the child's own when the parent that forks it is small: a
//       child inherits the high-water mark of the memory image it replaces
//       at exec, so the benchmark's Python process must not spawn it.
//   sweepbench_probe trace --spec S --store DIR --spans FILE --csv REPORT
//       The traced run. Every unique point goes through
//       SpmmProblem::random -> prepare -> Machine::run (a second prepared
//       copy, C checked against SpmmProblem::reference) -> run_exact, each
//       call a span; sampled points are also measured by run_job exactly as
//       the sweep does, and the rebuilt miniature must reproduce its
//       instruction and cycle counts. Results are journaled to a fresh
//       ResultStore, replayed, and rendered as a CSV + rollup report that
//       must equal REPORT byte for byte. Spans stay in memory and are
//       written to FILE at exit; a summary JSON goes to stdout.
//
// The functional engine is never named here: points carry whatever the
// spec's "engine" key selected, and run_exact/run_job honour it.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/bitutil.h"
#include "common/error.h"
#include "common/json.h"
#include "core/batch.h"
#include "core/result_store.h"
#include "core/rollup.h"
#include "core/runner.h"
#include "core/spmm_problem.h"
#include "core/sweep.h"
#include "fsim/machine.h"
#include "isa/isa.h"
#include "workloads/workloads.h"

namespace {

using namespace indexmac;
using Clock = std::chrono::steady_clock;

/// run_sampled's fixed miniature seed (core/runner.cpp). The traced run
/// proves the two agree by reproducing every sampled point's sample_stats.
constexpr std::uint32_t kSampleSeed = 12345;
constexpr std::uint64_t kMaxSteps = 4'000'000'000ull;
constexpr unsigned kShardCount = 4096;

JsonValue num(double v) { return JsonValue(v); }

/// In-memory span recorder: spans are written out only at exit.
class Tracer {
 public:
  std::size_t open(const std::string& name, long id, long parent) {
    spans_.push_back(Span{name, id, parent, now_ns(), 0, JsonValue::make_object()});
    return spans_.size() - 1;
  }
  void close(std::size_t span) { spans_[span].t1 = now_ns(); }
  JsonValue& attrs(std::size_t span) { return spans_[span].attrs; }

  [[nodiscard]] JsonValue to_json() const {
    JsonValue out = JsonValue::make_array();
    for (const Span& s : spans_) {
      JsonValue j = JsonValue::make_object();
      j.set("name", JsonValue(s.name));
      j.set("id", num(static_cast<double>(s.id)));
      j.set("parent", num(static_cast<double>(s.parent)));
      j.set("t0_ns", num(static_cast<double>(s.t0)));
      j.set("t1_ns", num(static_cast<double>(s.t1)));
      j.set("attrs", s.attrs);
      out.push_back(std::move(j));
    }
    return out;
  }

 private:
  struct Span {
    std::string name;
    long id;      ///< point index in expansion order, -1 outside points
    long parent;  ///< index of the enclosing span, -1 for a root
    std::int64_t t0;
    std::int64_t t1;
    JsonValue attrs;
  };
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  }
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// The problem a point's simulation actually runs: the full problem at the
/// spec seed for exact points, run_sampled's miniature for sampled ones.
struct Simulated {
  kernels::GemmDims dims;
  std::uint32_t seed = 0;
  core::RunConfig config;
};

Simulated simulated(const core::SweepSpec& spec, const core::SweepPoint& p) {
  if (p.mode == core::SweepMode::kExact) return {p.dims, spec.seed, p.config};
  // Same dims rule as run_sampled: rows cut to a multiple of the unroll,
  // full column strips cut to sample_full_strips, tail strip and k kept.
  const unsigned unroll = p.config.kernel.unroll;
  const std::size_t full_strips = p.dims.cols_b / isa::kVlMax;
  const std::size_t tail = p.dims.cols_b % isa::kVlMax;
  const std::size_t sample_full = std::min<std::size_t>(
      full_strips, std::max(1u, spec.sample.sample_full_strips));
  Simulated s{p.dims, kSampleSeed, p.config};
  s.dims.rows_a = std::min<std::size_t>(
      round_up(p.dims.rows_a, unroll),
      round_up(std::max(spec.sample.sample_rows, unroll), unroll));
  s.dims.cols_b = (full_strips == 0 ? 0 : sample_full * isa::kVlMax) + tail;
  s.config.kernel.emit_markers = true;
  return s;
}

std::string problem_label(const Simulated& s, sparse::Sparsity sp) {
  return std::to_string(s.dims.rows_a) + "x" + std::to_string(s.dims.k) + "x" +
         std::to_string(s.dims.cols_b) + "|" + workloads::sparsity_label(sp) + "|" +
         std::to_string(s.seed);
}

struct Grid {
  core::SweepSpec spec;
  std::vector<core::SweepPoint> points;
  std::vector<std::string> keys;
  std::vector<std::size_t> unique;  ///< index of each key's first point
};

Grid load_grid(const std::string& spec_path) {
  Grid g;
  g.spec = core::parse_sweep_spec_file(spec_path);
  g.points = core::expand_sweep(g.spec);
  g.keys = core::grid_keys(g.spec, g.points);
  std::unordered_map<std::string, std::size_t> seen;
  for (std::size_t i = 0; i < g.keys.size(); ++i)
    if (seen.emplace(g.keys[i], i).second) g.unique.push_back(i);
  return g;
}

/// Runs a prepared program to its ebreak on the functional model.
std::uint64_t run_functional(const core::PreparedRun& run, MainMemory& mem) {
  Machine machine(run.program, mem);
  IMAC_CHECK(machine.run(kMaxSteps) == StopReason::kEbreak,
             "functional run did not reach its ebreak");
  return machine.instructions_retired();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  IMAC_CHECK(in.good(), "cannot read " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

int cmd_expand(const std::string& spec_path) {
  const Grid g = load_grid(spec_path);
  core::SweepReport shape;
  shape.spec_name = g.spec.name;
  for (const core::SweepPoint& p : g.points) shape.rows.push_back(core::SweepRow{p, 0, 0});
  // Row lines of a zero-result report: the key fields in the CSV's own
  // formatting, so the benchmark compares them field for field.
  std::istringstream csv(core::report_to_csv(shape));
  std::string line;
  JsonValue rows = JsonValue::make_array();
  for (int skip = 0; skip < 2 && std::getline(csv, line); ++skip) {}
  while (std::getline(csv, line)) rows.push_back(JsonValue(line));

  unsigned empty = 0;
  for (unsigned i = 1; i <= kShardCount && empty == 0; ++i) {
    const core::ShardSpec shard{i, kShardCount};
    if (std::none_of(g.keys.begin(), g.keys.end(),
                     [&](const std::string& k) { return core::shard_owns(shard, k); }))
      empty = i;
  }
  IMAC_CHECK(empty != 0, "every shard of 4096 owns a point");

  JsonValue out = JsonValue::make_object();
  out.set("points", num(static_cast<double>(g.points.size())));
  out.set("unique", num(static_cast<double>(g.unique.size())));
  out.set("empty_shard", JsonValue(std::to_string(empty) + "/" + std::to_string(kShardCount)));
  out.set("rows", std::move(rows));
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

int cmd_fsim(const std::string& spec_path) {
  const Grid g = load_grid(spec_path);
  std::uint64_t instructions = 0;
  std::uint64_t mismatches = 0;
  for (const std::size_t i : g.unique) {
    const core::SweepPoint& p = g.points[i];
    const Simulated s = simulated(g.spec, p);
    const core::SpmmProblem problem = core::SpmmProblem::random(s.dims, p.sp, s.seed);
    MainMemory mem;
    const core::PreparedRun run = core::prepare(problem, s.config, mem);
    instructions += run_functional(run, mem);
    if (!(core::read_c(run, mem) == problem.reference())) ++mismatches;
  }
  JsonValue out = JsonValue::make_object();
  out.set("instructions", num(static_cast<double>(instructions)));
  out.set("c_mismatches", num(static_cast<double>(mismatches)));
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

JsonValue timing_attrs(const timing::TimingStats& st) {
  JsonValue a = JsonValue::make_object();
  a.set("insts", num(static_cast<double>(st.instructions)));
  a.set("cycles", num(static_cast<double>(st.cycles)));
  a.set("v2s_moves", num(static_cast<double>(st.vector_to_scalar_moves)));
  a.set("dispatch_stall_cycles", num(static_cast<double>(st.dispatch_stalls.total())));
  a.set("mispredicts", num(static_cast<double>(st.branch_mispredicts)));
  a.set("data_accesses", num(static_cast<double>(st.mem.data_accesses())));
  a.set("dram_lines", num(static_cast<double>(st.mem.dram_lines)));
  a.set("ifetch_lines", num(static_cast<double>(st.mem.ifetch_lines)));
  return a;
}

int cmd_trace(const std::string& spec_path, const std::string& store_dir,
              const std::string& spans_path, const std::string& csv_path) {
  Tracer tr;
  const std::size_t expand = tr.open("sweep.expand", -1, -1);
  const Grid g = load_grid(spec_path);
  tr.attrs(expand).set("points", num(static_cast<double>(g.points.size())));
  tr.attrs(expand).set("unique", num(static_cast<double>(g.unique.size())));
  tr.close(expand);

  std::map<std::string, core::StoredResult> results;
  JsonValue failures = JsonValue::make_array();
  for (const std::size_t i : g.unique) {
    const core::SweepPoint& p = g.points[i];
    const long id = static_cast<long>(i);
    const Simulated s = simulated(g.spec, p);
    std::string failure;

    const std::size_t point = tr.open("point", id, -1);
    std::size_t span = tr.open("setup", id, static_cast<long>(point));
    const core::SpmmProblem problem = core::SpmmProblem::random(s.dims, p.sp, s.seed);
    tr.close(span);
    tr.attrs(span).set("problem", JsonValue(problem_label(s, p.sp)));

    MainMemory mem;
    span = tr.open("emit", id, static_cast<long>(point));
    const core::PreparedRun run = core::prepare(problem, s.config, mem);
    tr.close(span);
    tr.attrs(span).set("static_insts", num(static_cast<double>(run.program.size())));

    span = tr.open("fsim", id, static_cast<long>(point));
    const std::uint64_t retired = run_functional(run, mem);
    tr.close(span);
    tr.attrs(span).set("insts", num(static_cast<double>(retired)));

    span = tr.open("check", id, static_cast<long>(point));
    if (!(core::read_c(run, mem) == problem.reference()))
      failure = "C differs from SpmmProblem::reference()";
    tr.close(span);

    // run_exact repeats prepare internally; the benchmark subtracts the
    // emit span above to get the timing model's own time.
    span = tr.open("timing", id, static_cast<long>(point));
    const core::ExactResult exact = core::run_exact(problem, s.config, g.spec.processor);
    tr.close(span);
    tr.attrs(span) = timing_attrs(exact.stats);
    tr.close(point);

    core::StoredResult result{static_cast<double>(exact.stats.cycles), exact.data_accesses()};
    if (p.mode == core::SweepMode::kSampled) {
      span = tr.open("sweep_call", id, -1);
      const core::BatchResult swept = core::run_job(core::point_job(g.spec, p));
      tr.close(span);
      if (swept.stats.instructions != exact.stats.instructions ||
          swept.stats.cycles != exact.stats.cycles)
        failure = "rebuilt miniature does not reproduce run_sampled's sample_stats";
      result = core::StoredResult{swept.cycles, swept.data_accesses};
    }
    results.emplace(g.keys[i], result);
    if (!failure.empty()) {
      JsonValue f = JsonValue::make_object();
      f.set("point", num(static_cast<double>(i)));
      f.set("reason", JsonValue(failure));
      failures.push_back(std::move(f));
    }
  }

  std::filesystem::remove_all(store_dir);
  {
    const std::size_t put = tr.open("store.put", -1, -1);
    core::ResultStore store(store_dir);
    for (const std::size_t i : g.unique) store.put(g.keys[i], results.at(g.keys[i]));
    tr.close(put);
  }
  const std::size_t replay = tr.open("store.replay", -1, -1);
  const core::ResultStore reopened(store_dir);
  tr.close(replay);
  tr.attrs(replay).set("records", num(static_cast<double>(reopened.size())));
  tr.attrs(replay).set(
      "bytes", num(static_cast<double>(std::filesystem::file_size(reopened.journal_path()))));

  const std::size_t report_span = tr.open("report", -1, -1);
  const core::SweepReport report = core::assemble_report(g.spec, reopened.results());
  const std::string rendered =
      core::report_to_csv(report) + core::rollup_to_csv(core::compute_rollup(report));
  tr.close(report_span);
  tr.attrs(report_span).set("rows", num(static_cast<double>(report.rows.size())));

  {
    std::ofstream out(spans_path, std::ios::binary);
    out << tr.to_json().dump() << "\n";
    IMAC_CHECK(out.good(), "cannot write " + spans_path);
  }
  JsonValue summary = JsonValue::make_object();
  summary.set("points", num(static_cast<double>(g.points.size())));
  summary.set("traced", num(static_cast<double>(g.unique.size())));
  summary.set("failures", std::move(failures));
  summary.set("report_matches", JsonValue(read_file(csv_path) == rendered));
  std::printf("%s\n", summary.dump().c_str());
  return 0;
}

int cmd_measure(const char* log, char** argv) {
  const Clock::time_point start = Clock::now();
  const pid_t pid = fork();
  IMAC_CHECK(pid >= 0, "fork failed");
  if (pid == 0) {
    const int fd = open(log, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0 || dup2(fd, 1) < 0 || dup2(fd, 2) < 0) _exit(126);
    execv(argv[0], argv);
    _exit(127);
  }
  int status = 0;
  rusage usage{};
  IMAC_CHECK(wait4(pid, &status, 0, &usage) == pid, "wait4 failed");
  const double wall = std::chrono::duration<double>(Clock::now() - start).count();
  const auto seconds = [](const timeval& t) { return t.tv_sec + t.tv_usec / 1e6; };
  JsonValue out = JsonValue::make_object();
  out.set("exit", num(WIFEXITED(status) ? WEXITSTATUS(status) : -1));
  out.set("wall_s", num(wall));
  out.set("cpu_s", num(seconds(usage.ru_utime) + seconds(usage.ru_stime)));
  out.set("maxrss_kb", num(static_cast<double>(usage.ru_maxrss)));
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: sweepbench_probe expand --spec S\n"
               "       sweepbench_probe fsim --spec S\n"
               "       sweepbench_probe measure LOG PROGRAM [ARG...]\n"
               "       sweepbench_probe trace --spec S --store DIR --spans FILE --csv REPORT\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "measure") {
    if (argc < 4) return usage();
    try {
      return cmd_measure(argv[2], argv + 3);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "sweepbench_probe: %s\n", e.what());
      return 1;
    }
  }
  std::string spec, store, spans, csv;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--spec") spec = argv[i + 1];
    else if (flag == "--store") store = argv[i + 1];
    else if (flag == "--spans") spans = argv[i + 1];
    else if (flag == "--csv") csv = argv[i + 1];
    else return usage();
  }
  if (spec.empty() || argc % 2 != 0) return usage();
  try {
    if (cmd == "expand") return cmd_expand(spec);
    if (cmd == "fsim") return cmd_fsim(spec);
    if (cmd == "trace" && !store.empty() && !spans.empty() && !csv.empty())
      return cmd_trace(spec, store, spans, csv);
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweepbench_probe: %s\n", e.what());
    return 1;
  }
}
