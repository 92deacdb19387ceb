// Code generators for the paper's three matrix-multiplication kernels.
//
//  * Algorithm 1 — dense row-wise vector matmul (baseline for examples).
//  * Algorithm 2 — "Row-Wise-SpMM": vectorized structured-sparse x dense
//    matmul; per non-zero it loads the selected B row from memory
//    (vle32) and multiply-accumulates (vfmacc.vf). Supports the A-, B- and
//    C-stationary dataflows compared in Section IV-A.
//  * Algorithm 3 — "Proposed": B tiles are preloaded into v[base..base+L)
//    and the per-non-zero vector load is replaced by the custom
//    vindexmac instruction's indirect VRF read.
//  * Algorithm 4 — follow-up paper (arXiv:2501.10189): like Algorithm 3,
//    but the per-(row, k-tile) indices arrive as one packed 64-bit nibble
//    word loaded with a scalar ld and consumed with scalar shifts —
//    eliminating Algorithm 3's per-slot vmv.x.s round trips — and
//    adjacent slot pairs issue as one dual-row vindexmac2 MAC, halving
//    the dependent-MAC chain on each accumulator.
//  * Algorithm 5 — SSR streaming baseline (after arXiv:2305.05559 /
//    arXiv:2011.08070): the A value and index streams never touch the
//    vector register file. Two SSR address generators are configured once
//    over the whole [ktile][row][slot] A sequence (wrapping per column
//    strip) and the vindexmacs.v streaming MAC pops both operands, so the
//    per-row body collapses to load C, slots_per_tile MACs, store C.
//
// All generators emit complete, self-contained programs (addresses baked as
// immediates) that halt with ebreak; loop unrolling over U output rows
// follows [17] as applied in the paper's evaluation.
#pragma once

#include <cstdint>
#include <vector>

#include "asm/program.h"
#include "kernels/layout.h"

namespace indexmac::kernels {

/// Dataflow (operand kept stationary in registers) for Algorithm 2.
/// Algorithm 3 is B-stationary by construction.
enum class Dataflow { kAStationary, kBStationary, kCStationary };

/// Element interpretation of the 32-bit lanes.
enum class ElemType { kF32, kI32 };

/// Marker ids emitted when KernelOptions::emit_markers is set. Markers are
/// architectural no-ops whose commit cycles the timing simulator records;
/// the sampled runner reconstructs per-phase costs from the event sequence.
enum MarkerId : std::int32_t {
  kMarkerKernelStart = 1,
  kMarkerPreloadDone = 2,   ///< after each B-tile preload (Algorithm 3)
  kMarkerRowGroupDone = 3,  ///< after each unrolled row-group body
  kMarkerKernelEnd = 4,
};

struct KernelOptions {
  unsigned unroll = 4;            ///< U: output rows per row-group ([17])
  Dataflow dataflow = Dataflow::kBStationary;
  ElemType elem = ElemType::kF32;
  bool emit_markers = false;

  friend auto operator<=>(const KernelOptions&, const KernelOptions&) = default;
};

/// First vector register of the preloaded B tile: the tile occupies the top
/// of the register file (v[32-L] .. v31). Operand packing must use this as
/// PackConfig::base_vreg so packed indices land in the tile.
[[nodiscard]] constexpr unsigned b_tile_base_vreg(unsigned tile_rows) {
  return isa::kNumVRegs - tile_rows;
}

/// Algorithm 3 ("Proposed"): requires layout.tile_rows + unroll * 3 <= 32
/// vector registers (B tile in v[32-L..31], C/value/index groups below).
[[nodiscard]] Program emit_indexmac_kernel(const SpmmLayout& layout,
                                           const KernelOptions& options);

/// Algorithm 2 ("Row-Wise-SpMM") with the selected dataflow.
[[nodiscard]] Program emit_rowwise_spmm_kernel(const SpmmLayout& layout,
                                               const KernelOptions& options);

/// Algorithm 4 (packed-index + dual-row vindexmac variants). B-stationary
/// by construction, like Algorithm 3; honors unroll and markers. Requires
/// the B tile in the upper register-file half (tile_rows <= 16) and
/// layout.slots_per_tile <= 16 (one packed 64-bit index word per row).
[[nodiscard]] Program emit_algorithm4(const SpmmLayout& layout, const KernelOptions& options);

/// Algorithm 5 (SSR streaming). B-stationary by construction and restricted
/// to unroll=1: the streams deliver A in strict [ktile][row][slot] order,
/// which an interleaved row group would consume out of order.
[[nodiscard]] Program emit_algorithm_ssr(const SpmmLayout& layout,
                                         const KernelOptions& options);

/// Algorithm 1 (dense row-wise). A is stored dense, row-major with pitch
/// round_up(k,16); the sparse layout fields a_values/a_indices are unused —
/// pass the dense A base via `a_dense_base`.
[[nodiscard]] Program emit_dense_rowwise_kernel(const SpmmLayout& layout,
                                                std::uint64_t a_dense_base,
                                                std::size_t a_pitch_elems,
                                                const KernelOptions& options);

/// Static instruction/operation counts per whole-kernel execution, used by
/// tests to cross-check the dynamic counts the simulators report.
struct KernelFootprint {
  std::uint64_t vector_loads = 0;   ///< vle32 executed
  std::uint64_t vector_stores = 0;  ///< vse32 executed
  std::uint64_t macs = 0;           ///< MAC operations (dual-row forms count 2)
  std::uint64_t scalar_loads = 0;   ///< ld/lw executed (Algorithm 4's index words)
};

/// Predicts dynamic memory-operation counts for Algorithm 3.
[[nodiscard]] KernelFootprint predict_indexmac_footprint(const SpmmLayout& layout);
/// Predicts dynamic memory-operation counts for Algorithm 2, B-stationary.
[[nodiscard]] KernelFootprint predict_rowwise_footprint(const SpmmLayout& layout);
/// Predicts dynamic memory-operation counts for Algorithm 4.
[[nodiscard]] KernelFootprint predict_algorithm4_footprint(const SpmmLayout& layout);
/// Predicts dynamic memory-operation counts for Algorithm 5. Stream-side
/// 64-byte line fetches count as vector loads, matching the timing model.
[[nodiscard]] KernelFootprint predict_ssr_footprint(const SpmmLayout& layout);

}  // namespace indexmac::kernels
