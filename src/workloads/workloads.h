// Workload registry: the named suites of GEMM shapes the simulator
// evaluates. A suite is a ModelGraph (model_ir.h): the paper's CNN tables
// (ResNet50/DenseNet121/InceptionV3 im2col GEMMs), MobileNetV1-style
// depthwise/pointwise GEMMs, transformer (BERT-base / ViT-base)
// attention/MLP projection GEMMs, LLM-decode skinny-activation GEMMs, the
// CI-sized `tiny` suite and the ablation shapes. The registry is a fixed
// table of these suites, built once; the sweep engine and the CLI read its
// graphs directly, so a suite added to the table is sweepable everywhere.
#pragma once

#include <string>
#include <vector>

#include "workloads/model_ir.h"

namespace indexmac::workloads {

/// Suite names, in table order.
[[nodiscard]] std::vector<std::string> suite_names();

/// Looks a suite up by name; throws SimError listing the known names.
[[nodiscard]] const ModelGraph& model_graph(const std::string& name);

/// Clamps each GEMM dimension to the matching dimension of `cap`: the
/// test-sized replica of a production shape (aspect ratios flatten, but
/// kernel structure — strip counts, tails, k-tiling — is preserved).
[[nodiscard]] kernels::GemmDims shrink(const kernels::GemmDims& dims,
                                       const kernels::GemmDims& cap);

/// Parses "1:4"-style sparsity labels. Throws SimError naming the label on
/// anything degenerate: non-digit characters, N == 0, N >= M (a dense or
/// over-full pattern), or fields beyond 4096.
[[nodiscard]] sparse::Sparsity parse_sparsity(const std::string& label);

/// Renders a Sparsity back to its "N:M" label.
[[nodiscard]] std::string sparsity_label(sparse::Sparsity sp);

}  // namespace indexmac::workloads
