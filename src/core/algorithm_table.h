// The kernel-family table: one row per core::Algorithm. Sweep parsing and
// expansion, operand placement (prepare), the sampled runner, report
// pairing and `imac_run list-algorithms` all read it, so a family is
// defined in exactly one place. Row order is the presentation order
// everywhere: known-id errors, `list-algorithms` and the README table.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "asm/program.h"
#include "kernels/kernels.h"
#include "kernels/layout.h"
#include "sparse/packing.h"

namespace indexmac::core {

/// Which kernel executes the multiplication. Row i of algorithm_table()
/// describes enumerator i.
enum class Algorithm {
  kRowwiseSpmm,   ///< Algorithm 2 ("Row-Wise-SpMM")
  kIndexmac,      ///< Algorithm 3 ("Proposed"): vindexmac + preloaded B tiles
  kIndexmac4,     ///< Algorithm 4: packed-index + dual-row vindexmac variants
  kDenseRowwise,  ///< Algorithm 1 (dense baseline; ignores sparsity)
  kSsr,           ///< Algorithm 5: SSR-streamed A operands + vindexmacs MACs
};

/// Number of families: one past the last enumerator.
inline constexpr std::size_t kNumAlgorithms = static_cast<std::size_t>(Algorithm::kSsr) + 1;

/// Role a family plays when `imac_run report` pairs measurements of the
/// same grid point into speedup columns.
enum class PairingRole {
  kBaseline,    ///< speedup denominator (Algorithm 2)
  kProposed,    ///< the paper's proposal, sped up vs the baseline (Algorithm 3)
  kProposedV2,  ///< follow-up proposal: the report's v2 columns (Algorithm 4)
  kStandalone,  ///< own report line; never folded into a speedup pair
};

[[nodiscard]] const char* pairing_role_name(PairingRole role);

/// Inputs to a family's program emitter. The dense_a_* fields are set only
/// for families with dense_operands.
struct EmitContext {
  const kernels::SpmmLayout& layout;
  const kernels::KernelOptions& options;
  std::uint64_t dense_a_base = 0;
  std::size_t dense_a_pitch_elems = 0;
};

/// Everything the stack needs to know about one kernel family.
struct AlgorithmRow {
  Algorithm algorithm;
  const char* id;            ///< stable CLI/CSV/cache-key identifier ("indexmac")
  const char* display_name;  ///< human-readable name (algorithm_name())
  const char* description;   ///< one-line summary for `list-algorithms`
  PairingRole pairing;
  bool supports_sampled;         ///< accepted by run_sampled and sampled sweeps
  bool dense_operands;           ///< A is placed dense, with no sparse packing
  sparse::IndexMode index_mode;  ///< how A's indices are packed (sparse families)
  /// Grid cells the family supports; sweep expansion skips (not errors on)
  /// the rest, so mixed ablations stay expressible.
  bool (*supports)(kernels::Dataflow dataflow, unsigned unroll);
  Program (*emit)(const EmitContext& ctx);
  /// Analytic footprint for sampled runs; null when the family has no
  /// analytic memory model and must be measured exactly.
  kernels::KernelFootprint (*footprint)(const kernels::SpmmLayout& layout);
};

/// Every row, in presentation order; row i describes Algorithm i.
[[nodiscard]] std::span<const AlgorithmRow, kNumAlgorithms> algorithm_table();

/// The row of `a`; throws SimError for a value outside Algorithm.
[[nodiscard]] const AlgorithmRow& algorithm_row(Algorithm a);

/// The family whose id is `id`; throws SimError naming every known id.
[[nodiscard]] Algorithm parse_algorithm(const std::string& id);

/// The family's display name ("Row-Wise-SpMM").
[[nodiscard]] const char* algorithm_name(Algorithm a);

}  // namespace indexmac::core
