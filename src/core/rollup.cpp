#include "core/rollup.h"

#include <cstdio>

#include "common/format.h"

namespace indexmac::core {
namespace {

using workloads::sparsity_label;

bool same_group(const RollupRow& g, const SweepPoint& p) {
  return g.suite == p.suite && g.sp.n == p.sp.n && g.sp.m == p.sp.m &&
         g.algorithm == p.config.algorithm && g.dataflow == p.config.kernel.dataflow &&
         g.unroll == p.config.kernel.unroll && g.tile_rows == p.config.tile_rows &&
         g.mode == p.mode;
}

/// Weighted network cycles, formatted like the per-point cycles column:
/// exact-mode totals are exact integers, sampled totals keep 2 decimals.
std::string cycles_field(const RollupRow& row) {
  if (row.mode == SweepMode::kExact)
    return std::to_string(static_cast<std::uint64_t>(row.cycles));
  return fmt_fixed(row.cycles, 2);
}

}  // namespace

RollupReport compute_rollup(const SweepReport& report) {
  RollupReport out;
  out.spec_name = report.spec_name;
  out.spec_hash = report.spec_hash;
  for (const SweepRow& row : report.rows) {
    const SweepPoint& p = row.point;
    RollupRow* group = nullptr;
    for (RollupRow& g : out.rows)
      if (same_group(g, p)) {
        group = &g;
        break;
      }
    if (group == nullptr) {
      RollupRow g;
      g.suite = p.suite;
      g.sp = p.sp;
      g.algorithm = p.config.algorithm;
      g.dataflow = p.config.kernel.dataflow;
      g.unroll = p.config.kernel.unroll;
      g.tile_rows = p.config.tile_rows;
      g.mode = p.mode;
      out.rows.push_back(std::move(g));
      group = &out.rows.back();
    }
    group->layers += p.count;
    group->workloads += 1;
    group->cycles += row.cycles * p.count;
    group->data_accesses += row.data_accesses * p.count;
  }
  return out;
}

std::string rollup_to_csv(const RollupReport& rollup) {
  char hash[24];
  std::snprintf(hash, sizeof hash, "%016llx", static_cast<unsigned long long>(rollup.spec_hash));
  std::string out = std::string(kRollupMarkerPrefix) + ": spec=" + rollup.spec_name +
                    " hash=" + hash + "\n";
  out +=
      "suite,sparsity,algorithm,dataflow,unroll,tile_rows,mode,layers,workloads,"
      "cycles,data_accesses,energy_proxy_bytes\n";
  for (const RollupRow& row : rollup.rows) {
    out += row.suite + "," + sparsity_label(row.sp) + "," + algorithm_row(row.algorithm).id +
           "," + dataflow_id(row.dataflow) + "," + std::to_string(row.unroll) + "," +
           std::to_string(row.tile_rows) + "," + sweep_mode_name(row.mode) + "," +
           std::to_string(row.layers) + "," + std::to_string(row.workloads) + "," +
           cycles_field(row) + "," + std::to_string(row.data_accesses) + "," +
           std::to_string(row.energy_proxy_bytes()) + "\n";
  }
  return out;
}

}  // namespace indexmac::core
