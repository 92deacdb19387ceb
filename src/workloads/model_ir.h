// Model IR: the one representation of a workload suite.
//
// A ModelGraph is a list of LayerRecords, each carrying a layer's im2col
// GEMM geometry and a repeat count (identical shapes cost identical
// simulated time, so each is measured once and weighted). A sweep reads
// only these shapes and repeat counts, together with its spec's N:M
// patterns, and draws every operand from the spec's seed. The registry
// (workloads.h) holds the graphs themselves: sweep expansion, the CLI and
// the tests all read these records.
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

/// One layer of a model: its GEMM geometry, count-weighted.
struct LayerRecord {
  std::string name;
  kernels::GemmDims gemm{};
  unsigned repeat = 1;

  /// Dense multiply-accumulates of all `repeat` instances.
  [[nodiscard]] std::uint64_t macs() const;
};

/// The one rule for the names a sweep report carries (model, layer and
/// sweep-spec names): non-empty, and only ASCII letters, digits, '.', '_'
/// or '-'. Reports write them unquoted into CSV fields and the
/// `# indexmac sweep: spec=NAME` line, so a comma, a space or a newline
/// would not read back. Throws SimError naming `what` and the value.
void check_name(const std::string& what, const std::string& name);

/// A whole network in execution order: one suite of the registry.
struct ModelGraph {
  std::string name;  ///< registry key (lowercase, CLI-friendly)
  std::string description;
  /// Sparsity patterns the model is evaluated under by default.
  std::vector<sparse::Sparsity> default_sparsities;
  std::vector<LayerRecord> layers;

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
/// of that shape.
[[nodiscard]] ModelGraph graph_from_cnn(const cnn::CnnModel& model, std::string name,
                                        std::string description,
                                        std::vector<sparse::Sparsity> sparsities);

}  // namespace indexmac::workloads
