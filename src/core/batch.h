// Parallel batch execution of independent simulation runs.
//
// Every simulated execution is self-contained — a Machine/TimingSim owns
// its MainMemory and no mutable global state affects simulated results —
// so sweeps over (shape x sparsity x config) are embarrassingly parallel.
// BatchRunner is a fixed-size thread pool; run_batch() executes a vector
// of BatchJob descriptions on it and returns per-job cycle and
// memory-access stats in submission order, bit-identical to running the
// same jobs serially (each job re-derives its inputs from a deterministic
// seed; sampled jobs share run_sampled's miniature memo, which holds only
// what those seeds reproduce).
//
//   BatchRunner pool;  // one worker per hardware thread
//   std::vector<BatchJob> jobs = {...};
//   const auto results = run_batch(pool, jobs);  // results[i] <-> jobs[i]
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
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

/// Fixed-size worker pool for independent jobs. Tasks submitted after a
/// task throws still run; the exception is delivered through that task's
/// future, so one bad job can never wedge the pool.
class BatchRunner {
 public:
  /// Spawns `threads` workers; 0 means default_thread_count().
  explicit BatchRunner(unsigned threads = 0);

  /// Drains outstanding work, then joins the workers.
  ~BatchRunner();

  BatchRunner(const BatchRunner&) = delete;
  BatchRunner& operator=(const BatchRunner&) = delete;

  [[nodiscard]] unsigned thread_count() const { return static_cast<unsigned>(workers_.size()); }

  /// Upper bound accepted by parse_thread_count (a worker pool beyond
  /// this is certainly a typo, not a machine).
  static constexpr unsigned kMaxThreads = 1024;

  /// Pool size used for `threads == 0`:
  /// std::thread::hardware_concurrency(), never less than 1.
  [[nodiscard]] static unsigned default_thread_count();

  /// Parses a user-supplied thread count (the --threads CLI flag): the
  /// whole string must be digits naming an integer in [1, kMaxThreads];
  /// anything else (a sign, spaces, trailing junk) throws SimError.
  [[nodiscard]] static unsigned parse_thread_count(const std::string& text);

  /// Schedules any callable; the returned future carries its result or
  /// exception.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    enqueue([task]() mutable { (*task)(); });
    return future;
  }

 private:
  void enqueue(std::function<void()> job);
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

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

/// Runs all jobs on the pool. results[i] corresponds to jobs[i] regardless
/// of completion order or thread count. If jobs threw, the first failure
/// (in submission order) is rethrown after every job has finished.
[[nodiscard]] std::vector<BatchResult> run_batch(BatchRunner& runner,
                                                 const std::vector<BatchJob>& jobs);

/// Same, but invokes `on_result(i, results[i])` on the worker thread the
/// moment job i finishes — in completion order, possibly concurrently, so
/// the callback must be thread-safe. This is the crash-safety hook: the
/// sweep engine journals every completed measurement through it, and
/// because it fires at completion (not at collection), a killed process
/// keeps every job that finished, even while an earlier-submitted job is
/// still running. `on_result` is never called for a job that threw; an
/// exception thrown *by* the callback fails that job like a job error.
///
/// `cancel` (optional) is the graceful-interrupt hook: each job checks it
/// immediately before running, and once it reads true, not-yet-started
/// jobs are skipped while in-flight jobs run to completion and journal
/// through on_result as usual. When any job was skipped, run_batch throws
/// BatchCancelled after the batch drains (completed results having been
/// delivered), so a --store'd sweep interrupt is resumable by rerun.
[[nodiscard]] std::vector<BatchResult> run_batch(
    BatchRunner& runner, const std::vector<BatchJob>& jobs,
    const std::function<void(std::size_t, const BatchResult&)>& on_result,
    const std::atomic<bool>* cancel = nullptr);

/// Convenience overload running on a temporary pool (0 = default size).
[[nodiscard]] std::vector<BatchResult> run_batch(const std::vector<BatchJob>& jobs,
                                                 unsigned threads = 0);

}  // namespace indexmac::core
