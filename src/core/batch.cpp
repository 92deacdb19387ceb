#include "core/batch.h"

#include <atomic>
#include <utility>

#include "common/error.h"
#include "common/format.h"

namespace indexmac::core {

BatchRunner::BatchRunner(unsigned threads) {
  if (threads == 0) threads = default_thread_count();
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

BatchRunner::~BatchRunner() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

unsigned BatchRunner::parse_thread_count(const std::string& text) {
  const std::uint64_t threads = parse_uint(text, "--threads", kMaxThreads);
  IMAC_CHECK(threads >= 1, "--threads must be at least 1, got \"" + text + "\"");
  return static_cast<unsigned>(threads);
}

unsigned BatchRunner::default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void BatchRunner::enqueue(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    IMAC_CHECK(!stopping_, "BatchRunner: submit after shutdown");
    queue_.push_back(std::move(job));
  }
  cv_.notify_one();
}

void BatchRunner::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ && drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    // packaged_task routes any exception into the job's future, so a
    // throwing job cannot take the worker (or the pool) down.
    job();
  }
}

BatchJob sampled_job(const kernels::GemmDims& dims, sparse::Sparsity sp, const RunConfig& config,
                     const timing::ProcessorConfig& processor, const SampleParams& sample) {
  BatchJob job;
  job.mode = BatchJob::Mode::kSampled;
  job.dims = dims;
  job.sp = sp;
  job.config = config;
  job.processor = processor;
  job.sample = sample;
  return job;
}

BatchResult run_job(const BatchJob& job) {
  BatchResult out;
  switch (job.mode) {
    case BatchJob::Mode::kExact: {
      // Materialize the problem inside the job so batched and serial
      // execution see byte-identical inputs for a given seed.
      const ExactResult r =
          run_exact(SpmmProblem::random(job.dims, job.sp, job.seed), job.config, job.processor);
      out.cycles = static_cast<double>(r.stats.cycles);
      out.data_accesses = r.data_accesses();
      out.stats = r.stats;
      break;
    }
    case BatchJob::Mode::kSampled: {
      const SampledResult r = run_sampled(job.dims, job.sp, job.config, job.processor, job.sample);
      out.cycles = r.cycles;
      out.data_accesses = r.data_accesses;
      out.stats = r.sample_stats;
      break;
    }
  }
  return out;
}

std::vector<BatchResult> run_batch(
    BatchRunner& runner, const std::vector<BatchJob>& jobs,
    const std::function<void(std::size_t, const BatchResult&)>& on_result,
    const std::atomic<bool>* cancel) {
  std::vector<std::future<BatchResult>> futures;
  futures.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    // on_result runs on the worker, immediately after its job: journaling
    // must not be head-of-line blocked behind the collection loop, or a
    // kill while job 0 (say, one huge GEMM) simulates would lose every
    // smaller job that already finished. `on_result` and its targets
    // outlive the blocking collection loop below by construction.
    const BatchJob& job = jobs[i];
    futures.push_back(runner.submit([job, i, &on_result, cancel] {
      // The cancel check lives on the worker, not the submit loop: a
      // signal that lands mid-batch skips everything still queued while
      // jobs already executing finish and journal normally.
      if (cancel != nullptr && cancel->load(std::memory_order_relaxed))
        throw BatchCancelled("batch cancelled before this job started");
      BatchResult result = run_job(job);
      if (on_result) on_result(i, result);
      return result;
    }));
  }

  std::vector<BatchResult> results(jobs.size());
  std::exception_ptr first_error;
  bool cancelled = false;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    try {
      results[i] = futures[i].get();
    } catch (const BatchCancelled&) {
      cancelled = true;
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  // A real job failure outranks the interrupt: it names a bug the user
  // must see, while BatchCancelled only restates what they requested.
  if (first_error) std::rethrow_exception(first_error);
  if (cancelled)
    throw BatchCancelled("batch cancelled: jobs not yet started were skipped (completed "
                         "results were delivered through on_result)");
  return results;
}

std::vector<BatchResult> run_batch(BatchRunner& runner, const std::vector<BatchJob>& jobs) {
  return run_batch(runner, jobs, {});
}

std::vector<BatchResult> run_batch(const std::vector<BatchJob>& jobs, unsigned threads) {
  BatchRunner runner(threads);
  return run_batch(runner, jobs);
}

}  // namespace indexmac::core
