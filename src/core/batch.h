// Parallel batch execution of independent simulation runs.
//
// Every simulated execution is self-contained — a Machine/TimingSim owns
// its MainMemory and no mutable global state affects simulated results —
// so sweeps over (shape x sparsity x config) are embarrassingly parallel.
// run_batch() executes a vector of BatchJob descriptions on worker threads
// and returns per-job cycle and memory-access stats in submission order,
// bit-identical to running the same jobs serially (each job re-derives its
// inputs from a deterministic seed; sampled jobs share run_sampled's
// miniature memo, which holds only what those seeds reproduce).
//
//   std::vector<BatchJob> jobs = {...};
//   const auto results = run_batch(jobs, default_thread_count());
//   // results[i] <-> jobs[i]
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/runner.h"

namespace indexmac::core {

/// Thrown by run_batch when a cooperative cancel (SIGINT/SIGTERM in the
/// CLI) was observed: jobs not yet started were skipped. Everything that
/// DID finish was delivered through on_result first — with a journaling
/// callback the batch is resumable.
/// A distinct type so callers can turn an interrupt into a "resumable"
/// exit without mistaking real job failures for it.
class BatchCancelled : public SimError {
 public:
  explicit BatchCancelled(const std::string& what) : SimError(what) {}
};

/// Upper bound accepted by parse_thread_count (a worker count beyond this
/// is certainly a typo, not a machine).
inline constexpr unsigned kMaxThreads = 1024;

/// The worker count when none is given: std::thread::hardware_concurrency(),
/// never less than 1.
[[nodiscard]] unsigned default_thread_count();

/// Parses a user-supplied thread count (the --threads CLI flag): the
/// whole string must be digits naming an integer in [1, kMaxThreads];
/// anything else (a sign, spaces, trailing junk) throws SimError.
[[nodiscard]] unsigned parse_thread_count(const std::string& text);

/// One independent timing measurement, described by value so it can be
/// executed on any worker thread at any time.
struct BatchJob {
  enum class Mode {
    kExact,    ///< run_exact on a problem built from (dims, sp, seed)
    kSampled,  ///< run_sampled on (dims, sp)
  };

  Mode mode = Mode::kSampled;
  kernels::GemmDims dims;
  sparse::Sparsity sp = sparse::kSparsity14;
  RunConfig config;
  timing::ProcessorConfig processor;
  SampleParams sample;     ///< kSampled only
  std::uint32_t seed = 1;  ///< kExact only: RNG seed for SpmmProblem::random
};

/// Shorthand constructor for a kSampled job.
[[nodiscard]] BatchJob sampled_job(const kernels::GemmDims& dims, sparse::Sparsity sp,
                                   const RunConfig& config,
                                   const timing::ProcessorConfig& processor,
                                   const SampleParams& sample = SampleParams{});

/// Per-job measurement. `cycles` and `data_accesses` are the headline
/// metrics of both run modes; `stats` holds the full TimingStats of the
/// run (for kSampled, of the miniature instrumented run).
struct BatchResult {
  double cycles = 0;
  std::uint64_t data_accesses = 0;
  timing::TimingStats stats;
};

/// Executes one job synchronously on the calling thread.
[[nodiscard]] BatchResult run_job(const BatchJob& job);

/// Runs all jobs on `threads` worker threads (at least 1; never more than
/// there are jobs). Workers claim jobs in submission order, and all of them
/// are joined before run_batch returns. results[i] corresponds to jobs[i]
/// regardless of completion order or thread count.
///
/// `on_result(i, results[i])` (optional) runs on the worker thread the
/// moment job i finishes — in completion order, possibly concurrently, so
/// it must be thread-safe. This is the crash-safety hook: the sweep engine
/// journals every completed measurement through it, and because it fires
/// at completion, a killed process keeps every job that finished, even
/// while an earlier-submitted job is still running. It is never called for
/// a job that threw; an exception thrown *by* it fails that job like a job
/// error.
///
/// `cancel` (optional) is the graceful-interrupt hook: it is read before
/// each job starts, and once it reads true, jobs not yet started are
/// skipped while running jobs finish and deliver through on_result as
/// usual. When any job was skipped, run_batch throws BatchCancelled after
/// the workers are joined, so a --store'd sweep interrupt is resumable by
/// rerun.
///
/// A job that throws does not stop the others. Once all have finished, the
/// first failure in submission order is rethrown; it outranks
/// BatchCancelled, since it names a bug while the cancel only restates
/// what was requested.
[[nodiscard]] std::vector<BatchResult> run_batch(
    const std::vector<BatchJob>& jobs, unsigned threads,
    const std::function<void(std::size_t, const BatchResult&)>& on_result = {},
    const std::atomic<bool>* cancel = nullptr);

}  // namespace indexmac::core
