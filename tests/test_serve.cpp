// Graceful sweep cancellation: run_sweep's cancel flag skips queued
// points, journals nothing wrong, and leaves the store a valid resume base
// whose completed report is byte-identical to an uninterrupted sweep.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <vector>

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
  return core::report_to_csv(core::run_sweep(spec, /*threads=*/1));
}

TEST(SweepCancel, PresetCancelSkipsEverythingButJournalsNothingWrong) {
  const std::string dir = fresh_dir("cancel");
  const core::SweepSpec spec = core::parse_sweep_spec(kUnitSpec);
  const std::vector<core::SweepPoint> points = core::expand_sweep(spec);
  core::ResultStore store(dir + "/store");
  core::SweepCache cache;
  cache.attach_store(store, /*preload=*/true);
  core::BatchRunner pool(1);
  std::atomic<bool> cancel{true};
  EXPECT_THROW((void)core::run_sweep(spec, points, pool, &cache, &cancel),
               core::BatchCancelled);
  // Nothing ran, nothing was journaled — and the store is still a valid
  // resume base: clearing the flag completes the remaining (all) points.
  EXPECT_EQ(store.appended(), 0u);
  cancel.store(false);
  const core::SweepReport resumed = core::run_sweep(spec, points, pool, &cache, &cancel);
  EXPECT_EQ(core::report_to_csv(resumed), reference_csv());
  EXPECT_EQ(store.appended(), 6u);
}

TEST(SweepCancel, NullCancelBehavesExactlyAsBefore) {
  const core::SweepSpec spec = core::parse_sweep_spec(kUnitSpec);
  const std::vector<core::SweepPoint> points = core::expand_sweep(spec);
  core::BatchRunner pool(2);
  const core::SweepReport report = core::run_sweep(spec, points, pool, nullptr, nullptr);
  EXPECT_EQ(core::report_to_csv(report), reference_csv());
}

}  // namespace
}  // namespace indexmac
