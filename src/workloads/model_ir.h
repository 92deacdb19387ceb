// Model IR: the one representation of a workload suite.
//
// A ModelGraph is a list of LayerRecords — conv / depthwise / linear /
// attention-projection layers, each carrying its im2col GEMM geometry, a
// repeat count (identical shapes cost identical simulated time, so each is
// measured once and weighted), and a per-layer SparsityProfile that is
// either declared (an assumed N:M pattern) or measured from the real
// weights of an imported checkpoint. The registry (workloads.h) holds the
// graphs themselves: sweep expansion, the CLI and the tests all read these
// records, so a model imported at runtime is immediately sweepable
// everywhere.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "kernels/layout.h"
#include "sparse/nm_matrix.h"

namespace indexmac::cnn {
struct CnnModel;
}

namespace indexmac::workloads {

/// Structural role of a layer. Determines how checkpoint weights map onto
/// the GEMM operand A and which manifest keys the importer expects.
enum class LayerKind {
  kConv,           ///< dense conv: A = [out_ch x in_ch*kh*kw] im2col weights
  kDepthwise,      ///< grouped 3x3 proxy: A = [channels x kh*kw] stacked filters
  kLinear,         ///< fully connected / MLP: A = [out_features x in_features]
  kAttentionProj,  ///< attention Q/K/V/O projection (a linear with GQA-aware repeats)
};

/// Stable lowercase identifier ("conv", "depthwise", "linear",
/// "attention-proj") used by manifests and machine-readable listings.
[[nodiscard]] const char* layer_kind_id(LayerKind kind);

/// Inverse of layer_kind_id; throws SimError naming the unknown id.
[[nodiscard]] LayerKind parse_layer_kind(const std::string& id);

/// How sparse a layer's weights are. Declared profiles assume an ideal N:M
/// pattern; measured profiles record what an imported checkpoint actually
/// contains, against the N:M pattern the layer is intended to run under.
struct SparsityProfile {
  sparse::Sparsity pattern{2, 4};  ///< target N:M pattern of the layer
  bool measured = false;           ///< true when derived from real weights
  double density = 0.5;            ///< nonzero fraction (declared: n/m)
  /// Fraction of M-aligned blocks with at most N nonzeros (1.0 when the
  /// checkpoint conforms exactly to the declared pattern).
  double nm_conformity = 1.0;
  /// Padding fraction of the real weights with every row padded to the
  /// densest row's nonzero count (ELLPACK's row-length imbalance); 0 for
  /// declared profiles.
  double row_imbalance = 0.0;

  [[nodiscard]] static SparsityProfile declared(sparse::Sparsity sp);
};

/// One layer of a model: geometry plus sparsity, count-weighted.
struct LayerRecord {
  std::string name;
  LayerKind kind = LayerKind::kLinear;
  kernels::GemmDims gemm{};
  unsigned repeat = 1;
  SparsityProfile sparsity = SparsityProfile::declared(sparse::kSparsity24);

  /// Dense multiply-accumulates of all `repeat` instances.
  [[nodiscard]] std::uint64_t macs() const;
};

/// The one rule for the names a sweep report carries (model, layer and
/// sweep-spec names): non-empty, and only ASCII letters, digits, '.', '_'
/// or '-'. Reports write them unquoted into CSV fields and the
/// `# indexmac sweep: spec=NAME` line, so a comma, a space or a newline
/// would not read back. Throws SimError naming `what` and the value.
void check_name(const std::string& what, const std::string& name);

/// A whole network in execution order: the unit of registration (see
/// workloads::register_model).
struct ModelGraph {
  std::string name;          ///< registry key (lowercase, CLI-friendly)
  std::string display_name;  ///< paper-style name for tables ("ResNet50")
  std::string description;
  /// Sparsity patterns the model is evaluated under by default.
  std::vector<sparse::Sparsity> default_sparsities;
  std::vector<LayerRecord> layers;
  bool measured = false;  ///< true when built by the checkpoint importer

  /// Count-weighted layer total: the layers of the source network.
  [[nodiscard]] std::size_t layer_count() const;

  /// Total dense multiply-accumulates of one full pass, count-weighted.
  [[nodiscard]] std::uint64_t total_macs() const;

  /// Structural invariants: model and layer names that pass check_name,
  /// at least one layer, unique layer names, nonzero GEMM dims and repeats,
  /// at least one valid default sparsity. Throws SimError naming the graph
  /// and offending layer.
  void validate() const;
};

/// Builds a graph from a CNN layer table via the im2col GEMM mapping. Layers
/// with identical GEMM shapes share one record, in first-occurrence order,
/// named after the shape's first layer, with `repeat` = the number of layers
/// of that shape. Depthwise proxy layers (in_channels == 1 with a spatial
/// kernel) are tagged kDepthwise.
[[nodiscard]] ModelGraph graph_from_cnn(const cnn::CnnModel& model, std::string name,
                                        std::string description,
                                        std::vector<sparse::Sparsity> sparsities);

}  // namespace indexmac::workloads
