#include "workloads/model_ir.h"

#include <algorithm>
#include <unordered_set>

#include "cnn/conv_layer.h"
#include "common/error.h"

namespace indexmac::workloads {

const char* layer_kind_id(LayerKind kind) {
  switch (kind) {
    case LayerKind::kConv: return "conv";
    case LayerKind::kDepthwise: return "depthwise";
    case LayerKind::kLinear: return "linear";
    case LayerKind::kAttentionProj: return "attention-proj";
  }
  raise("invalid LayerKind");
}

LayerKind parse_layer_kind(const std::string& id) {
  for (const LayerKind kind : {LayerKind::kConv, LayerKind::kDepthwise, LayerKind::kLinear,
                               LayerKind::kAttentionProj})
    if (id == layer_kind_id(kind)) return kind;
  raise("unknown layer kind \"" + id +
        "\" (known: conv, depthwise, linear, attention-proj)");
}

SparsityProfile SparsityProfile::declared(sparse::Sparsity sp) {
  SparsityProfile out;
  out.pattern = sp;
  out.measured = false;
  out.density = static_cast<double>(sp.n) / static_cast<double>(sp.m);
  out.nm_conformity = 1.0;
  out.row_imbalance = 0.0;
  return out;
}

std::uint64_t LayerRecord::macs() const {
  return static_cast<std::uint64_t>(gemm.rows_a) * gemm.k * gemm.cols_b * repeat;
}

std::size_t ModelGraph::layer_count() const {
  std::size_t total = 0;
  for (const LayerRecord& layer : layers) total += layer.repeat;
  return total;
}

std::uint64_t ModelGraph::total_macs() const {
  std::uint64_t total = 0;
  for (const LayerRecord& layer : layers) total += layer.macs();
  return total;
}

void check_name(const std::string& what, const std::string& name) {
  const bool ok = !name.empty() && std::ranges::all_of(name, [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
           c == '.' || c == '_' || c == '-';
  });
  IMAC_CHECK(ok, what + " \"" + name +
                     "\" must be one or more ASCII letters, digits, '.', '_' or '-'");
}

void ModelGraph::validate() const {
  check_name("model name", name);
  IMAC_CHECK(!layers.empty(), "model \"" + name + "\" has no layers");
  IMAC_CHECK(!default_sparsities.empty(),
             "model \"" + name + "\" declares no default sparsities");
  for (const sparse::Sparsity sp : default_sparsities)
    IMAC_CHECK(sp.n >= 1 && sp.n < sp.m,
               "model \"" + name + "\" has an invalid default sparsity " +
                   std::to_string(sp.n) + ":" + std::to_string(sp.m));
  std::unordered_set<std::string> seen;
  for (const LayerRecord& layer : layers) {
    check_name("model \"" + name + "\" layer name", layer.name);
    const std::string where = "model \"" + name + "\" layer \"" + layer.name + "\"";
    IMAC_CHECK(seen.insert(layer.name).second, where + " is duplicated");
    IMAC_CHECK(layer.gemm.rows_a > 0 && layer.gemm.k > 0 && layer.gemm.cols_b > 0,
               where + " has a zero GEMM dimension");
    IMAC_CHECK(layer.repeat >= 1, where + " has repeat 0");
    IMAC_CHECK(layer.sparsity.density >= 0.0 && layer.sparsity.density <= 1.0,
               where + " has density outside [0, 1]");
    IMAC_CHECK(layer.sparsity.nm_conformity >= 0.0 && layer.sparsity.nm_conformity <= 1.0,
               where + " has N:M conformity outside [0, 1]");
  }
}

ModelGraph graph_from_cnn(const cnn::CnnModel& model, std::string name,
                          std::string description,
                          std::vector<sparse::Sparsity> sparsities) {
  ModelGraph out;
  out.name = std::move(name);
  out.display_name = model.name;
  out.description = std::move(description);
  out.default_sparsities = std::move(sparsities);
  for (const cnn::ConvLayer& conv : model.layers) {
    const kernels::GemmDims dims = conv.gemm();
    const auto same = std::ranges::find(out.layers, dims, &LayerRecord::gemm);
    if (same != out.layers.end()) {
      ++same->repeat;
      continue;
    }
    const bool depthwise = conv.in_channels == 1 && conv.kernel_h * conv.kernel_w > 1;
    out.layers.push_back({conv.name, depthwise ? LayerKind::kDepthwise : LayerKind::kConv, dims,
                          1, SparsityProfile::declared(out.default_sparsities.front())});
  }
  out.validate();
  return out;
}

}  // namespace indexmac::workloads
