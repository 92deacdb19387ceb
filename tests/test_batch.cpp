// run_batch: parallel sweeps must be indistinguishable from serial runs —
// identical per-job stats, submission-order results at any thread count,
// and robust to jobs that throw.
#include "core/batch.h"

#include <gtest/gtest.h>

#include <atomic>

#include "common/error.h"

namespace {

using namespace indexmac;
using core::Algorithm;
using core::BatchJob;
using core::BatchResult;
using core::RunConfig;

void expect_same_stats(const BatchResult& a, const BatchResult& b) {
  EXPECT_EQ(a.cycles, b.cycles);  // bit-identical, no tolerance
  EXPECT_EQ(a.data_accesses, b.data_accesses);
  EXPECT_EQ(a.stats.cycles, b.stats.cycles);
  EXPECT_EQ(a.stats.instructions, b.stats.instructions);
  EXPECT_EQ(a.stats.scalar_instructions, b.stats.scalar_instructions);
  EXPECT_EQ(a.stats.vector_instructions, b.stats.vector_instructions);
  EXPECT_EQ(a.stats.vector_loads, b.stats.vector_loads);
  EXPECT_EQ(a.stats.vector_stores, b.stats.vector_stores);
  EXPECT_EQ(a.stats.vector_macs, b.stats.vector_macs);
  EXPECT_EQ(a.stats.vector_to_scalar_moves, b.stats.vector_to_scalar_moves);
  EXPECT_EQ(a.stats.branch_mispredicts, b.stats.branch_mispredicts);
  EXPECT_EQ(a.stats.dispatch_stalls.total(), b.stats.dispatch_stalls.total());
  EXPECT_EQ(a.stats.mem.data_accesses(), b.stats.mem.data_accesses());
}

/// A mixed sweep: both algorithms, both run modes, several shapes/seeds.
std::vector<BatchJob> mixed_sweep() {
  const timing::ProcessorConfig proc{};
  std::vector<BatchJob> jobs;
  const RunConfig rowwise{.algorithm = Algorithm::kRowwiseSpmm, .kernel = {.unroll = 4}};
  const RunConfig proposed{.algorithm = Algorithm::kIndexmac, .kernel = {.unroll = 4}};
  unsigned seed = 1;
  for (const auto sp : {sparse::kSparsity14, sparse::kSparsity24}) {
    for (const auto& dims :
         {kernels::GemmDims{16, 64, 32}, kernels::GemmDims{32, 48, 16}}) {
      for (const RunConfig& config : {rowwise, proposed}) {
        BatchJob job;
        job.mode = BatchJob::Mode::kExact;
        job.dims = dims;
        job.sp = sp;
        job.config = config;
        job.processor = proc;
        job.seed = seed++;
        jobs.push_back(job);
      }
    }
    jobs.push_back(core::sampled_job({64, 128, 48}, sp, proposed, proc,
                                     {.sample_rows = 8, .sample_full_strips = 2}));
  }
  return jobs;
}

/// A job measured serially without the miniature memo, which run_job
/// shares across threads: sampled jobs use the uncached measurement plus
/// extrapolation.
BatchResult serial_uncached(const BatchJob& job) {
  if (job.mode == BatchJob::Mode::kExact) return core::run_job(job);
  const core::MiniatureSpec spec =
      core::miniature_spec(job.dims, job.sp, job.config, job.processor, job.sample);
  const core::SampledResult r =
      core::extrapolate(spec, core::measure_miniature(spec), job.dims);
  return BatchResult{r.cycles, r.data_accesses, r.sample_stats};
}

TEST(RunBatch, MatchesSerialExecutionBitExactly) {
  const auto jobs = mixed_sweep();

  std::vector<BatchResult> serial;
  serial.reserve(jobs.size());
  for (const BatchJob& job : jobs) serial.push_back(serial_uncached(job));

  const auto parallel = core::run_batch(jobs, 4);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    expect_same_stats(parallel[i], serial[i]);
  }
}

TEST(RunBatch, ResultOrderMatchesSubmissionOrderAtAnyThreadCount) {
  const auto jobs = mixed_sweep();
  const auto baseline = core::run_batch(jobs, 1);
  for (const unsigned threads : {2u, 3u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto results = core::run_batch(jobs, threads);
    ASSERT_EQ(results.size(), baseline.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      SCOPED_TRACE("job " + std::to_string(i));
      expect_same_stats(results[i], baseline[i]);
    }
  }
  EXPECT_THROW((void)core::run_batch(jobs, 0), SimError);  // no worker to run them
}

TEST(RunBatch, SharedProblemJobsMatchDirectRuns) {
  const timing::ProcessorConfig proc{};
  const kernels::GemmDims dims{16, 64, 32};
  const RunConfig rowwise{.algorithm = Algorithm::kRowwiseSpmm, .kernel = {.unroll = 2}};
  const RunConfig proposed{.algorithm = Algorithm::kIndexmac, .kernel = {.unroll = 2}};
  const auto exact = [&](const RunConfig& config) {
    BatchJob job;
    job.mode = BatchJob::Mode::kExact;
    job.dims = dims;
    job.sp = sparse::kSparsity24;
    job.config = config;
    job.processor = proc;
    job.seed = 42;
    return job;
  };

  // Both jobs rebuild the one problem their (dims, sp, seed) names.
  const auto results = core::run_batch({exact(rowwise), exact(proposed)}, 2);
  const core::SpmmProblem problem = core::SpmmProblem::random(dims, sparse::kSparsity24, 42);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].stats.cycles, core::run_exact(problem, rowwise, proc).stats.cycles);
  EXPECT_EQ(results[1].stats.cycles, core::run_exact(problem, proposed, proc).stats.cycles);
  EXPECT_GT(results[0].cycles, results[1].cycles);  // the paper's headline result
}

TEST(RunBatch, ThrowingJobReportsFirstErrorAfterAllJobsFinish) {
  const timing::ProcessorConfig proc{};
  std::vector<BatchJob> jobs = mixed_sweep();
  BatchJob bad;  // unroll=5 is rejected by the kernel generators
  bad.mode = BatchJob::Mode::kExact;
  bad.dims = {16, 64, 32};
  bad.sp = sparse::kSparsity14;
  bad.config = RunConfig{.algorithm = Algorithm::kIndexmac, .kernel = {.unroll = 5}};
  bad.processor = proc;
  jobs.insert(jobs.begin() + 1, bad);

  // The failing job stops no other: every other job finishes and is
  // delivered before the error is rethrown.
  std::atomic<std::size_t> delivered{0};
  EXPECT_THROW((void)core::run_batch(jobs, 4,
                                     [&](std::size_t i, const BatchResult&) {
                                       EXPECT_NE(i, 1u);
                                       ++delivered;
                                     }),
               SimError);
  EXPECT_EQ(delivered.load(), jobs.size() - 1);
}

TEST(RunBatch, ParseThreadCountIsStrict) {
  // The whole --threads string must be digits naming an integer in
  // [1, kMaxThreads]: no sign, no spaces, no trailing junk.
  EXPECT_EQ(core::parse_thread_count("1"), 1u);
  EXPECT_EQ(core::parse_thread_count("16"), 16u);
  EXPECT_EQ(core::parse_thread_count(std::to_string(core::kMaxThreads)), core::kMaxThreads);
  const char* bad[] = {"0",   "-2",   "abc", "3abc", "",   "2147483648", "99999",
                       "1e3", "1025", " 4",  "4 ",   "+4", "4294967297", " "};
  for (const char* value : bad) {
    SCOPED_TRACE(std::string("--threads \"") + value + "\"");
    EXPECT_THROW((void)core::parse_thread_count(value), SimError);
  }
}

}  // namespace
