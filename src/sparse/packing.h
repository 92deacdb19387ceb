// Operand packing: turns the slots of an N:M matrix (an NmMatrix, or rows
// of one as NmDraw hands them out) into the flat, k-tiled value/index
// streams the vectorized kernels consume, one k-tile at a time
// (pack_ktile) or whole (pack_a), and gives the padded row-major image of
// a dense matrix (to_padded_rows).
//
// Index stream variants (Section II/III of the paper):
//  * kByteOffset — for Algorithm 2 ("Row-Wise-SpMM"): each slot holds the
//    byte offset of its B row (global row * row pitch). The kernel adds the
//    strip base address with one vadd.vx (paper Alg. 2, line 5) and then
//    uses the element directly as a load address.
//  * kVrfIndex — for Algorithm 3 (vindexmac): each slot holds the vector
//    register number that holds its B row once the L-row tile is preloaded
//    (base_vreg + row-within-tile). Structured sparsity bounds the in-block
//    index by M, which is what makes this precomputation possible.
//  * kPackedNibble — for Algorithm 4 (vindexmacp/vindexmac2, the
//    follow-up paper's packed-index variants): all of a row's per-k-tile
//    indices are packed as 4-bit nibbles into one 64-bit word (slot s in
//    bits [4s, 4s+4)). Each nibble addresses the upper half of the
//    register file — VRF[16 | nibble] — which the B tile occupies by
//    convention, so the kernel loads one scalar word per (row, k-tile)
//    and feeds successive slots to the MAC with plain scalar shifts.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "sparse/nm_matrix.h"

namespace indexmac::sparse {

enum class IndexMode { kByteOffset, kVrfIndex, kPackedNibble };

/// Parameters shared by the packer and the kernel generators.
struct PackConfig {
  unsigned tile_rows = 16;       ///< L: B-tile rows held in the VRF (multiple of M)
  IndexMode mode = IndexMode::kVrfIndex;
  std::uint32_t b_pitch_bytes = 0;  ///< B row pitch (kByteOffset mode)
  unsigned base_vreg = 16;          ///< first B-tile vector register (kVrfIndex mode)
};

/// Geometry of A's k-tiled streams. Both are k-tile-major: k-tile t holds
/// every row's slots for that tile, row by row, in one contiguous run of
/// tile_values() values and one of tile_index_words() index words.
struct PackShape {
  Sparsity sp;
  std::size_t rows = 0;
  std::size_t slots_per_row = 0; ///< slots A stores per row: N per block
  std::size_t k_padded = 0;      ///< k padded to a multiple of tile_rows
  unsigned tile_rows = 0;        ///< L
  std::size_t num_ktiles = 0;
  unsigned slots_per_tile = 0;   ///< non-zero slots per (row, ktile) = N * L / M
  IndexMode mode = IndexMode::kVrfIndex;

  [[nodiscard]] std::size_t tile_values() const { return rows * slots_per_tile; }
  /// Index words per row of a k-tile: one per slot, or for kPackedNibble
  /// two, the little-endian halves of the 64-bit packed index word.
  [[nodiscard]] std::size_t row_index_words() const {
    return mode == IndexMode::kPackedNibble ? 2 : slots_per_tile;
  }
  [[nodiscard]] std::size_t tile_index_words() const { return rows * row_index_words(); }
  [[nodiscard]] std::size_t slot_offset(std::size_t ktile, std::size_t row) const {
    IMAC_CHECK(ktile < num_ktiles && row < rows, "PackedA index out of range");
    return (ktile * rows + row) * slots_per_tile;
  }
};

/// The checked shape of a rows x cols N:M matrix packed under `config`.
[[nodiscard]] inline PackShape pack_shape(std::size_t rows, std::size_t cols, Sparsity sp,
                                          const PackConfig& config) {
  IMAC_CHECK(config.tile_rows % checked(sp).m == 0, "tile_rows (L) must be a multiple of M");
  IMAC_CHECK(config.mode != IndexMode::kByteOffset || config.b_pitch_bytes > 0,
             "byte-offset packing requires the B row pitch");
  PackShape out;
  out.sp = sp;
  out.rows = rows;
  out.slots_per_row = ceil_div(cols, sp.m) * sp.n;
  out.tile_rows = config.tile_rows;
  out.k_padded = round_up(round_up(cols, sp.m), config.tile_rows);
  out.num_ktiles = out.k_padded / config.tile_rows;
  out.slots_per_tile = config.tile_rows / sp.m * sp.n;
  out.mode = config.mode;
  if (config.mode == IndexMode::kPackedNibble) {
    // Nibble addressing covers VRF[16..31]: the tile must sit in the upper
    // half of the register file, and all slots must fit one 64-bit word.
    IMAC_CHECK(config.base_vreg >= 16 && config.base_vreg + config.tile_rows <= 32,
               "packed-nibble indices require the B tile in v16..v31");
    IMAC_CHECK(out.slots_per_tile <= 16,
               "packed index word holds at most 16 nibble slots per (row, k-tile)");
  }
  return out;
}

/// Packs k-tile `t` of some consecutive rows of A into `values` and
/// `indices`, that tile's run of each stream for those rows. `row_values`
/// and `row_indices` hold the rows' slots as NmMatrix stores them:
/// shape.slots_per_row per row, N per block. A k-tile's slots are one run of
/// each row's slots, and blocks past the row's end are padding.
template <typename T>
void pack_ktile(const PackShape& shape, const PackConfig& config, std::size_t t,
                std::span<const T> row_values, std::span<const std::uint8_t> row_indices,
                std::span<T> values, std::span<std::int32_t> indices) {
  const Sparsity sp = shape.sp;
  const unsigned spt = shape.slots_per_tile;
  const std::size_t rows = values.size() / spt;
  IMAC_CHECK(values.size() == rows * spt && indices.size() == rows * shape.row_index_words() &&
                 row_values.size() == rows * shape.slots_per_row &&
                 row_indices.size() == row_values.size() && t < shape.num_ktiles,
             "k-tile buffers must hold one tile of each stream for the given rows");
  const std::size_t first = t * spt;  // the tile's first slot in a row
  const std::size_t stored = first < shape.slots_per_row
                                 ? std::min<std::size_t>(spt, shape.slots_per_row - first)
                                 : 0;
  const unsigned blocks_per_tile = shape.tile_rows / sp.m;
  if (shape.mode == IndexMode::kPackedNibble) std::fill(indices.begin(), indices.end(), 0);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t from = r * shape.slots_per_row + first;
    for (unsigned bt = 0; bt < blocks_per_tile; ++bt)
      for (unsigned n = 0; n < sp.n; ++n) {
        const unsigned tile_slot = bt * sp.n + n;
        const std::size_t slot = r * spt + tile_slot;
        const bool real = tile_slot < stored;
        values[slot] = real ? row_values[from + tile_slot] : T{};
        // Padding has a zero value and local index m-1.
        const std::uint32_t local = real ? row_indices[from + tile_slot] : sp.m - 1;
        const std::uint32_t row_in_tile = bt * sp.m + local;
        if (shape.mode == IndexMode::kVrfIndex) {
          indices[slot] = static_cast<std::int32_t>(config.base_vreg + row_in_tile);
        } else if (shape.mode == IndexMode::kPackedNibble) {
          const std::uint32_t nibble = config.base_vreg + row_in_tile - 16;
          const std::size_t word = r * 2 + (tile_slot >> 3);
          indices[word] = static_cast<std::int32_t>(static_cast<std::uint32_t>(indices[word]) |
                                                    (nibble << ((tile_slot & 7) * 4)));
        } else {
          const std::uint64_t global_row = t * shape.tile_rows + row_in_tile;
          indices[slot] = static_cast<std::int32_t>(global_row * config.b_pitch_bytes);
        }
      }
  }
}

/// Flat k-tiled operand streams for one whole structured-sparse A matrix:
/// every k-tile of pack_ktile, in order.
template <typename T>
struct PackedA : PackShape {
  /// values[(t * rows + r) * slots_per_tile + s]
  std::vector<T> values;
  /// kByteOffset/kVrfIndex: one word per slot, parallel to `values`.
  /// kPackedNibble: two words per (ktile, row) — the little-endian halves
  /// of the 64-bit packed index word (slot s in bits [4s, 4s+4)).
  std::vector<std::int32_t> indices;
};

template <typename T>
[[nodiscard]] PackedA<T> pack_a(const NmMatrix<T>& a, const PackConfig& config) {
  PackedA<T> out{pack_shape(a.rows(), a.cols(), a.sparsity(), config), {}, {}};
  const std::size_t tile_values = out.tile_values();
  const std::size_t tile_words = out.tile_index_words();
  out.values.resize(out.num_ktiles * tile_values);
  out.indices.resize(out.num_ktiles * tile_words);
  for (std::size_t t = 0; t < out.num_ktiles; ++t)
    pack_ktile(out, config, t, a.values(), a.indices(),
               std::span(out.values).subspan(t * tile_values, tile_values),
               std::span(out.indices).subspan(t * tile_words, tile_words));
  return out;
}

/// Lays out `m` row-major with `pitch_elems` elements per row (>= cols) and
/// `total_rows` rows (>= rows; extra rows zero-filled): the image that
/// prepare() gives B, with 64-byte-aligned rows and k padded to the tile
/// size, though it writes only the matrix's own rows.
template <typename T>
[[nodiscard]] std::vector<T> to_padded_rows(const DenseMatrix<T>& m, std::size_t pitch_elems,
                                            std::size_t total_rows) {
  IMAC_CHECK(pitch_elems >= m.cols(), "pitch must cover all columns");
  IMAC_CHECK(total_rows >= m.rows(), "row padding cannot shrink the matrix");
  std::vector<T> out(total_rows * pitch_elems, T{});
  for (std::size_t r = 0; r < m.rows(); ++r)
    for (std::size_t c = 0; c < m.cols(); ++c) out[r * pitch_elems + c] = m.at(r, c);
  return out;
}

/// Host-side model of Algorithm 3's arithmetic on packed operands: applies
/// every (value, index) slot against the B image exactly as the kernel
/// would. Validates packing independent of the ISA pipeline.
template <typename T>
[[nodiscard]] DenseMatrix<T> packed_spmm_reference(const PackedA<T>& a,
                                                   const std::vector<T>& b_image,
                                                   std::size_t b_pitch_elems,
                                                   std::size_t b_cols,
                                                   unsigned base_vreg = 16) {
  DenseMatrix<T> c(a.rows, b_cols);
  const unsigned l = a.tile_rows;
  for (std::size_t t = 0; t < a.num_ktiles; ++t)
    for (std::size_t r = 0; r < a.rows; ++r) {
      const std::size_t base = a.slot_offset(t, r);
      for (unsigned s = 0; s < a.slots_per_tile; ++s) {
        const T value = a.values[base + s];
        if (value == T{}) continue;
        std::size_t row;
        if (a.mode == IndexMode::kVrfIndex) {
          row = t * l + (static_cast<std::uint32_t>(a.indices[base + s]) - base_vreg);
        } else if (a.mode == IndexMode::kPackedNibble) {
          const std::size_t word = (t * a.rows + r) * 2 + (s >> 3);
          const std::uint32_t nibble =
              (static_cast<std::uint32_t>(a.indices[word]) >> ((s & 7) * 4)) & 0xf;
          row = t * l + (16 + nibble - base_vreg);
        } else {
          row = static_cast<std::uint32_t>(a.indices[base + s]) / (b_pitch_elems * sizeof(T));
        }
        for (std::size_t j = 0; j < b_cols; ++j)
          c.at(r, j) += value * b_image[row * b_pitch_elems + j];
      }
    }
  return c;
}

}  // namespace indexmac::sparse
