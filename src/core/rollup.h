// Whole-network rollups: folds a sweep's count-weighted per-layer cycles
// into end-to-end network latency and a bytes-moved energy proxy per
// (suite x sparsity x algorithm x kernel config x mode) group.
//
// A sweep measures each unique GEMM shape once and records its suite
// multiplicity (`count`); a rollup multiplies every row back out and sums,
// answering "what does one full forward pass of this model cost on this
// core" instead of "what does one GEMM cost". Rendered as a `# rollup`
// CSV section appended after the per-point rows (parse_csv_report stops at
// the marker, so rollup-bearing CSVs stay loadable, mergeable and
// shardable), byte-stable and golden-tested like the per-point report.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/sweep.h"

namespace indexmac::core {

/// One network total: every sweep row of the group, weighted by count.
struct RollupRow {
  std::string suite;
  sparse::Sparsity sp;
  Algorithm algorithm{};
  kernels::Dataflow dataflow = kernels::Dataflow::kBStationary;
  unsigned unroll = 1;
  unsigned tile_rows = 16;
  SweepMode mode = SweepMode::kSampled;
  std::size_t layers = 0;     ///< count-weighted layer instances folded in
  std::size_t workloads = 0;  ///< distinct measured shapes folded in
  /// Sum of per-shape cycles x count: one full pass, end to end.
  double cycles = 0;
  /// Sum of per-shape data accesses x count (scalar + vector reads and
  /// writes at instruction granularity, the Fig. 6 metric).
  std::uint64_t data_accesses = 0;
  /// Bytes-moved energy proxy: data_accesses x 64 (one cache line per
  /// access — an upper bound; scalar accesses touch at most 8 bytes).
  [[nodiscard]] std::uint64_t energy_proxy_bytes() const { return data_accesses * 64; }
};

struct RollupReport {
  std::string spec_name;
  std::uint64_t spec_hash = 0;
  std::vector<RollupRow> rows;
};

/// First line of the CSV rollup section. parse_csv_report treats any line
/// starting with this prefix as end-of-point-data.
inline constexpr const char* kRollupMarkerPrefix = "# rollup";

/// Groups report rows by (suite, sparsity, algorithm, dataflow, unroll,
/// tile_rows, mode) in first-occurrence order and folds each group into a
/// count-weighted network total. Deterministic for a deterministic report.
[[nodiscard]] RollupReport compute_rollup(const SweepReport& report);

/// Stable CSV rendition: the `# rollup` marker line, a header, one row per
/// group. Appended verbatim after report_to_csv output by `sweep --rollup`.
[[nodiscard]] std::string rollup_to_csv(const RollupReport& rollup);

}  // namespace indexmac::core
