// Declarative sweep engine: a JSON spec names workload suites and a
// RunConfig / ProcessorConfig grid; the engine expands the cross product,
// executes every unique measurement once through run_batch (repeated
// (shape, sparsity, config) points share one measurement, and a result
// store can serve and journal them across processes), and emits a stable
// CSV report suitable for golden-file regression tests.
//
// Spec format (JSON subset, see common/json.h):
//
//   {
//     "name": "tiny-exact",                       // ASCII letters, digits, . _ -
//     "workloads": ["tiny"],                      // registry suite names
//     "sparsities": ["1:4", "2:4"],               // optional: suite default
//     "algorithms": ["rowwise", "indexmac"],      // optional: both sparse
//     "unroll": [1, 4],                           // optional: [4]
//     "dataflows": ["b"],                         // optional: ["b"]; sampled: b only
//     "tile_rows": [16],                          // optional: [16]
//     "mode": "exact",                            // or "sampled" (default)
//     "engine": "threaded",                       // optional, ignored (see below)
//     "seed": 1,                                  // exact-mode problem seed
//     "sample_rows": 16, "sample_full_strips": 3, // sampled-mode controls
//     "processor": {"vector.mac_latency": 5}      // optional overrides
//   }
//
// "engine" is accepted for old specs and ignored: the values it took,
// "interp" and "threaded", parse and anything else is rejected. It never
// entered cache keys, journals or reports, so stores written under either
// value stay valid.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/batch.h"
#include "core/result_store.h"
#include "workloads/workloads.h"

namespace indexmac::core {

/// How each sweep point is measured.
enum class SweepMode {
  kExact,    ///< run_exact on a seeded random problem (cycle-accurate)
  kSampled,  ///< run_sampled extrapolation (whole-network scale)
};

[[nodiscard]] const char* sweep_mode_name(SweepMode mode);

/// The spec and CSV id of a dataflow: "a", "b" or "c".
[[nodiscard]] const char* dataflow_id(kernels::Dataflow dataflow);

/// A parsed, validated sweep specification.
struct SweepSpec {
  std::string name;
  std::vector<std::string> suites;
  /// Empty means "each suite's default sparsity list".
  std::vector<sparse::Sparsity> sparsities;
  std::vector<Algorithm> algorithms = {Algorithm::kRowwiseSpmm, Algorithm::kIndexmac};
  std::vector<unsigned> unrolls = {4};
  std::vector<kernels::Dataflow> dataflows = {kernels::Dataflow::kBStationary};
  std::vector<unsigned> tile_rows = {16};
  SweepMode mode = SweepMode::kSampled;
  std::uint32_t seed = 1;
  SampleParams sample;
  timing::ProcessorConfig processor;
};

/// Parses and validates a spec document; throws SimError on unknown keys,
/// unknown suites/algorithms, or empty grids.
[[nodiscard]] SweepSpec parse_sweep_spec(const std::string& json_text);

/// Convenience: reads `path` and parses it.
[[nodiscard]] SweepSpec parse_sweep_spec_file(const std::string& path);

/// One fully-resolved measurement of the expanded grid.
struct SweepPoint {
  std::string suite;
  std::string workload;
  unsigned count = 1;
  kernels::GemmDims dims;
  sparse::Sparsity sp;
  RunConfig config;
  SweepMode mode = SweepMode::kSampled;

  /// Canonical serialization of everything the measurement depends on
  /// (shape, sparsity, kernel config, mode, seed/sample controls, processor
  /// digest) — the result-cache key. Suite/workload names are deliberately
  /// excluded: identical shapes share one simulation.
  [[nodiscard]] std::string cache_key(const SweepSpec& spec) const;
};

/// The BatchJob measuring one expanded point — exactly the job run_sweep
/// builds, factored out so a point can be re-measured outside a sweep
/// bit-identically.
[[nodiscard]] BatchJob point_job(const SweepSpec& spec, const SweepPoint& point);

/// Cache keys of every expanded point in expansion order.
[[nodiscard]] std::vector<std::string> grid_keys(const SweepSpec& spec,
                                                 const std::vector<SweepPoint>& points);

/// FNV-1a digest chained over the keys in order: the SweepReport::spec_hash
/// that run_sweep and assemble_report record.
[[nodiscard]] std::uint64_t grid_hash(const std::vector<std::string>& keys);

/// Expands the spec's cross product in deterministic report order:
/// suite -> sparsity -> workload -> algorithm -> dataflow -> unroll ->
/// tile_rows. Structurally-unsupported cells are skipped rather than
/// errored (indexmac exists only B-stationary; the dense baseline only at
/// unroll 1), so mixed ablation grids stay expressible; an all-skipped
/// grid throws.
[[nodiscard]] std::vector<SweepPoint> expand_sweep(const SweepSpec& spec);

/// A measured point.
struct SweepRow {
  SweepPoint point;
  double cycles = 0;
  std::uint64_t data_accesses = 0;
};

struct SweepReport {
  std::string spec_name;
  /// grid_hash of every expanded cache key in expansion order: identifies
  /// the measurement sequence independent of suite or workload naming (two
  /// reports with equal hashes measured the same points in the same order
  /// with the same inputs).
  std::uint64_t spec_hash = 0;
  std::vector<SweepRow> rows;
};

/// Runs the sweep over `points`, usually expand_sweep(spec) or a shard of
/// it (run_sweep never looks a suite up), on `threads` workers (at least
/// 1). Duplicate points are simulated once. Rows come back in the order of
/// `points` regardless of thread count.
///
/// `store` (optional) journals every simulated point from its worker the
/// moment it finishes, so a sweep killed mid-run keeps everything measured
/// so far. With `resume` (which needs a store), points already journaled
/// are served from the store instead of simulated. Without it they are
/// simulated again, and ResultStore::put throws unless they reproduce the
/// journaled metrics: a cross-check against model drift under a warm store.
///
/// `cancel` (optional) is the graceful-interrupt hook: once it reads true,
/// queued measurements are skipped, in-flight ones finish and journal, and
/// run_sweep throws BatchCancelled instead of returning a report (a
/// partially-measured grid must never render as a complete one).
[[nodiscard]] SweepReport run_sweep(const SweepSpec& spec, const std::vector<SweepPoint>& points,
                                    unsigned threads, ResultStore* store = nullptr,
                                    bool resume = false,
                                    const std::atomic<bool>* cancel = nullptr);

// --- sharding and merging -------------------------------------------------

/// A 1-based shard selector: this process owns shard `index` of `count`
/// equal digest-partitions of the expanded grid.
struct ShardSpec {
  unsigned index = 1;
  unsigned count = 1;
};

/// Parses the CLI form "i/N" (1 <= i <= N <= 4096); SimError otherwise.
[[nodiscard]] ShardSpec parse_shard(const std::string& text);

/// Deterministic owner test: a point belongs to shard i/N iff
/// fnv1a(cache_key) % N == i-1. Purely a function of the key, so every
/// shard of every process partitions identically, duplicate points land on
/// one shard, and re-partitioning with a different N is safe.
[[nodiscard]] bool shard_owns(const ShardSpec& shard, const std::string& cache_key);

/// Filters an expanded grid down to the shard's points, preserving
/// expansion order. A shard may legitimately own zero points of a small
/// grid; the resulting report is then header-only.
[[nodiscard]] std::vector<SweepPoint> filter_shard(const SweepSpec& spec,
                                                   const std::vector<SweepPoint>& points,
                                                   const ShardSpec& shard);

/// Folds one shard's measurements into `merged`, keyed by canonical cache
/// key under `spec`. Throws SimError when two inputs disagree about one
/// key (no silent wrong merges).
void accumulate_results(const SweepSpec& spec, const SweepReport& shard,
                        std::map<std::string, StoredResult>& merged);
void accumulate_results(const ResultStore& store, std::map<std::string, StoredResult>& merged);

/// Reassembles the canonical single-process report of `spec` from merged
/// shard measurements: rows in expansion order, spec_hash the grid_hash
/// run_sweep records — so the rendered CSV is byte-identical to a
/// single-process run. Throws SimError naming the first missing
/// point when the shards do not cover the full grid.
[[nodiscard]] SweepReport assemble_report(const SweepSpec& spec,
                                          const std::map<std::string, StoredResult>& merged);

/// Stable CSV rendition: fixed header, one row per point in report order,
/// '\n' line endings, exact-mode cycles printed as integers. Byte-stable
/// across platforms/compilers for identical measurements.
[[nodiscard]] std::string report_to_csv(const SweepReport& report);

/// Parses a CSV produced by report_to_csv (the `report` CLI subcommand and
/// round-trip tests); throws SimError on malformed input.
[[nodiscard]] SweepReport parse_csv_report(const std::string& csv);

}  // namespace indexmac::core
