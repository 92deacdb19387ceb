// Graceful sweep cancellation: run_sweep's cancel flag skips queued
// points, journals nothing wrong, and leaves the store a valid resume base
// whose completed report is byte-identical to an uninterrupted sweep. A
// cancel that lands mid-batch journals exactly the finished jobs, and
// never hides a real job error.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <vector>

#include "core/batch.h"
#include "core/result_store.h"
#include "core/sweep.h"

namespace indexmac {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("sweep_cancel_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// 3 tiny workloads x 2 algorithms = 6 exact points.
constexpr const char* kUnitSpec = R"({
  "name": "cancel-unit",
  "workloads": ["tiny"],
  "sparsities": ["1:4"],
  "algorithms": ["rowwise", "indexmac"],
  "unroll": [4],
  "mode": "exact",
  "seed": 7
})";

std::string reference_csv() {
  const core::SweepSpec spec = core::parse_sweep_spec(kUnitSpec);
  return core::report_to_csv(core::run_sweep(spec, core::expand_sweep(spec), /*threads=*/1));
}

TEST(SweepCancel, PresetCancelSkipsEverythingButJournalsNothingWrong) {
  const std::string dir = fresh_dir("cancel");
  const core::SweepSpec spec = core::parse_sweep_spec(kUnitSpec);
  const std::vector<core::SweepPoint> points = core::expand_sweep(spec);
  core::ResultStore store(dir + "/store");
  std::atomic<bool> cancel{true};
  EXPECT_THROW((void)core::run_sweep(spec, points, 1, &store, /*resume=*/true, &cancel),
               core::BatchCancelled);
  // Nothing ran, nothing was journaled — and the store is still a valid
  // resume base: clearing the flag completes the remaining (all) points.
  EXPECT_EQ(store.appended(), 0u);
  cancel.store(false);
  const core::SweepReport resumed =
      core::run_sweep(spec, points, 1, &store, /*resume=*/true, &cancel);
  EXPECT_EQ(core::report_to_csv(resumed), reference_csv());
  EXPECT_EQ(store.appended(), 6u);
}

TEST(SweepCancel, NullCancelBehavesExactlyAsBefore) {
  const core::SweepSpec spec = core::parse_sweep_spec(kUnitSpec);
  const std::vector<core::SweepPoint> points = core::expand_sweep(spec);
  const core::SweepReport report = core::run_sweep(spec, points, 2, nullptr, false, nullptr);
  EXPECT_EQ(core::report_to_csv(report), reference_csv());
}

TEST(SweepCancel, MidBatchCancelJournalsExactlyTheFinishedJob) {
  // One worker, and the first job's completion raises the flag: the job
  // that finished is journaled, every later one is skipped.
  const std::string dir = fresh_dir("mid_batch");
  const core::SweepSpec spec = core::parse_sweep_spec(kUnitSpec);
  const std::vector<core::SweepPoint> points = core::expand_sweep(spec);
  const std::vector<std::string> keys = core::grid_keys(spec, points);
  std::vector<core::BatchJob> jobs;
  for (const core::SweepPoint& p : points) jobs.push_back(core::point_job(spec, p));
  {
    core::ResultStore store(dir);
    std::atomic<bool> cancel{false};
    EXPECT_THROW((void)core::run_batch(
                     jobs, 1,
                     [&](std::size_t i, const core::BatchResult& r) {
                       store.put(keys[i], core::StoredResult{r.cycles, r.data_accesses});
                       cancel.store(true);
                     },
                     &cancel),
                 core::BatchCancelled);
    EXPECT_EQ(store.appended(), 1u);
    EXPECT_NE(store.find(keys[0]), nullptr);
  }
  core::ResultStore store(dir);
  EXPECT_EQ(store.loaded(), 1u);
  const core::SweepReport resumed = core::run_sweep(spec, points, 1, &store, /*resume=*/true);
  EXPECT_EQ(core::report_to_csv(resumed), reference_csv());
  EXPECT_EQ(store.appended(), points.size() - 1);
}

TEST(SweepCancel, EarlierJobErrorOutranksMidBatchCancel) {
  // Job 0 fails (unroll 5 is rejected by the kernel generators); job 1
  // finishes and its completion cancels the rest. The error is what the
  // caller must see, not the interrupt it did not ask for.
  const core::SweepSpec spec = core::parse_sweep_spec(kUnitSpec);
  std::vector<core::BatchJob> jobs;
  for (const core::SweepPoint& p : core::expand_sweep(spec))
    jobs.push_back(core::point_job(spec, p));
  jobs[0].config.kernel.unroll = 5;
  std::atomic<bool> cancel{false};
  std::size_t delivered = 0;
  try {
    (void)core::run_batch(
        jobs, 1,
        [&](std::size_t, const core::BatchResult&) {
          ++delivered;
          cancel.store(true);
        },
        &cancel);
    FAIL() << "the failed job must be rethrown";
  } catch (const core::BatchCancelled& e) {
    FAIL() << "the cancel hid job 0's error: " << e.what();
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("unroll"), std::string::npos) << e.what();
  }
  EXPECT_EQ(delivered, 1u);
}

}  // namespace
}  // namespace indexmac
