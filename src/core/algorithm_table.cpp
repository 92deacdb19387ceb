#include "core/algorithm_table.h"

#include "common/error.h"

namespace indexmac::core {
namespace {

using kernels::Dataflow;
using sparse::IndexMode;

constexpr bool b_stationary(Dataflow dataflow, unsigned) {
  return dataflow == Dataflow::kBStationary;
}

constexpr bool b_stationary_unroll_1(Dataflow dataflow, unsigned unroll) {
  return dataflow == Dataflow::kBStationary && unroll == 1;
}

constexpr AlgorithmRow kRows[] = {
    // Algorithm 2: the paper's vectorized software baseline, and the only
    // family with a free dataflow axis (A-, B- or C-stationary).
    {Algorithm::kRowwiseSpmm, "rowwise", "Row-Wise-SpMM",
     "Algorithm 2: per non-zero, load the B row (vle32) and vfmacc", PairingRole::kBaseline,
     /*supports_sampled=*/true, /*dense_operands=*/false, IndexMode::kByteOffset,
     [](Dataflow, unsigned) { return true; },
     [](const EmitContext& c) { return kernels::emit_rowwise_spmm_kernel(c.layout, c.options); },
     kernels::predict_rowwise_footprint},
    // Algorithm 3: preloaded B tiles + the custom vindexmac instruction's
    // indirect VRF read. B-stationary by construction.
    {Algorithm::kIndexmac, "indexmac", "Proposed (vindexmac)",
     "Algorithm 3: preloaded B tile + indirect-VRF vindexmac MACs", PairingRole::kProposed,
     /*supports_sampled=*/true, /*dense_operands=*/false, IndexMode::kVrfIndex, b_stationary,
     [](const EmitContext& c) { return kernels::emit_indexmac_kernel(c.layout, c.options); },
     kernels::predict_indexmac_footprint},
    // Algorithm 4 (arXiv:2501.10189): packed 64-bit nibble index words +
    // dual-row vindexmac2 MACs. B-stationary by construction.
    {Algorithm::kIndexmac4, "indexmac4", "Proposed-v2 (packed/dual vindexmac)",
     "Algorithm 4: packed nibble indices + dual-row vindexmac2 MACs", PairingRole::kProposedV2,
     /*supports_sampled=*/true, /*dense_operands=*/false, IndexMode::kPackedNibble,
     b_stationary,
     [](const EmitContext& c) { return kernels::emit_algorithm4(c.layout, c.options); },
     kernels::predict_algorithm4_footprint},
    // Algorithm 1: the dense baseline. A is placed dense, so it has no
    // sparse packing and no analytic footprint, and exists only at unroll 1.
    {Algorithm::kDenseRowwise, "dense", "Dense row-wise",
     "Algorithm 1: dense row-wise baseline (ignores sparsity)", PairingRole::kStandalone,
     /*supports_sampled=*/false, /*dense_operands=*/true, IndexMode::kByteOffset,
     b_stationary_unroll_1,
     [](const EmitContext& c) {
       return kernels::emit_dense_rowwise_kernel(c.layout, c.dense_a_base,
                                                 c.dense_a_pitch_elems, c.options);
     },
     nullptr},
    // Algorithm 5 (after arXiv:2305.05559 / arXiv:2011.08070): two SSR
    // streams feed vindexmacs.v, bypassing the VRF. Packs A like Algorithm
    // 3, so every result bit matches it. Unroll 1 only: the streams deliver
    // A in strict [ktile][row][slot] order, which an interleaved row group
    // would consume out of order.
    {Algorithm::kSsr, "ssr", "SSR streaming (vindexmacs)",
     "Algorithm 5: SSR-streamed A operands + vindexmacs MACs", PairingRole::kStandalone,
     /*supports_sampled=*/true, /*dense_operands=*/false, IndexMode::kVrfIndex,
     b_stationary_unroll_1,
     [](const EmitContext& c) { return kernels::emit_algorithm_ssr(c.layout, c.options); },
     kernels::predict_ssr_footprint},
};

constexpr bool rows_follow_the_enum() {
  for (std::size_t i = 0; i < kNumAlgorithms; ++i)
    if (kRows[i].algorithm != static_cast<Algorithm>(i) || kRows[i].supports == nullptr ||
        kRows[i].emit == nullptr)
      return false;
  return true;
}
static_assert(std::size(kRows) == kNumAlgorithms && rows_follow_the_enum(),
              "row i must describe Algorithm i and set supports and emit");

}  // namespace

const char* pairing_role_name(PairingRole role) {
  switch (role) {
    case PairingRole::kBaseline: return "baseline";
    case PairingRole::kProposed: return "proposed";
    case PairingRole::kProposedV2: return "proposed-v2";
    case PairingRole::kStandalone: return "standalone";
  }
  raise("unknown pairing role");
}

std::span<const AlgorithmRow, kNumAlgorithms> algorithm_table() { return kRows; }

const AlgorithmRow& algorithm_row(Algorithm a) {
  const auto i = static_cast<std::size_t>(a);
  IMAC_CHECK(i < kNumAlgorithms, "unknown algorithm");
  return kRows[i];
}

Algorithm parse_algorithm(const std::string& id) {
  std::string known;
  for (const AlgorithmRow& row : kRows) {
    if (id == row.id) return row.algorithm;
    known += known.empty() ? row.id : std::string(", ") + row.id;
  }
  raise("unknown algorithm \"" + id + "\" (known: " + known + ")");
}

const char* algorithm_name(Algorithm a) { return algorithm_row(a).display_name; }

}  // namespace indexmac::core
