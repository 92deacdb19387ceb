#include "core/batch.h"

#include <algorithm>
#include <exception>
#include <thread>

#include "common/error.h"
#include "common/format.h"

namespace indexmac::core {

unsigned default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

unsigned parse_thread_count(const std::string& text) {
  const std::uint64_t threads = parse_uint(text, "--threads", kMaxThreads);
  IMAC_CHECK(threads >= 1, "--threads must be at least 1, got \"" + text + "\"");
  return static_cast<unsigned>(threads);
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
      // Draw the operands inside the job so batched and serial execution
      // see byte-identical inputs for a given seed.
      const ExactResult r = run_exact(job.dims, job.sp, job.seed, job.config, job.processor);
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
    const std::vector<BatchJob>& jobs, unsigned threads,
    const std::function<void(std::size_t, const BatchResult&)>& on_result,
    const std::atomic<bool>* cancel) {
  IMAC_CHECK(threads >= 1, "run_batch needs at least one thread");
  std::vector<BatchResult> results(jobs.size());
  std::vector<std::exception_ptr> errors(jobs.size());
  std::atomic<std::size_t> next{0};
  std::atomic<bool> skipped{false};
  const auto work = [&] {
    for (std::size_t i = next++; i < jobs.size(); i = next++) {
      // Read per job, on the worker: a signal that lands mid-batch skips
      // every job not yet started while running jobs finish normally.
      if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
        skipped = true;
        continue;
      }
      try {
        results[i] = run_job(jobs[i]);
        // Journaling right after the job, not after the batch: a kill while
        // job 0 (say, one huge GEMM) simulates must not lose every smaller
        // job that already finished.
        if (on_result) on_result(i, results[i]);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  {
    std::vector<std::jthread> workers;
    for (std::size_t t = 0; t < std::min<std::size_t>(threads, jobs.size()); ++t)
      workers.emplace_back(work);
  }  // joins every worker
  for (const std::exception_ptr& error : errors)
    if (error) std::rethrow_exception(error);
  if (skipped)
    throw BatchCancelled("batch cancelled: jobs not yet started were skipped (completed "
                         "results were delivered through on_result)");
  return results;
}

}  // namespace indexmac::core
