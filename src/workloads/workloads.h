// Workload registry: the named suites of GEMM shapes the simulator
// evaluates. A suite is a registered ModelGraph (model_ir.h): the paper's
// CNN tables (ResNet50/DenseNet121/InceptionV3 im2col GEMMs),
// MobileNetV1-style depthwise/pointwise GEMMs, transformer (BERT-base /
// ViT-base) attention/MLP projection GEMMs, LLM-decode skinny-activation
// GEMMs, and any model imported from a pruned checkpoint at runtime
// (model_import.h). The sweep engine and the CLI read the registered graphs
// directly, so registering a model makes it sweepable everywhere at once.
#pragma once

#include <string>
#include <vector>

#include "workloads/model_ir.h"

namespace indexmac::workloads {

/// Registered suite names, in registration order (built-ins first, then
/// runtime-registered models). By value: register_model may extend the set.
[[nodiscard]] std::vector<std::string> suite_names();

[[nodiscard]] bool has_suite(const std::string& name);

/// Looks a suite up by name; throws SimError listing the known names.
/// References stay valid across register_model calls.
[[nodiscard]] const ModelGraph& model_graph(const std::string& name);

/// Registers a model (validated). Throws SimError on a duplicate name. Used
/// by `imac_run sweep --import` to make checkpoint-derived models sweepable
/// next to the built-ins.
void register_model(ModelGraph graph);

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
