#include "workloads/model_ir.h"

#include <algorithm>
#include <unordered_set>

#include "cnn/conv_layer.h"
#include "common/error.h"

namespace indexmac::workloads {

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
  }
}

ModelGraph graph_from_cnn(const cnn::CnnModel& model, std::string name,
                          std::string description,
                          std::vector<sparse::Sparsity> sparsities) {
  ModelGraph out;
  out.name = std::move(name);
  out.description = std::move(description);
  out.default_sparsities = std::move(sparsities);
  for (const cnn::ConvLayer& conv : model.layers) {
    const kernels::GemmDims dims = conv.gemm();
    const auto same = std::ranges::find(out.layers, dims, &LayerRecord::gemm);
    if (same != out.layers.end()) {
      ++same->repeat;
      continue;
    }
    out.layers.push_back({conv.name, dims, 1});
  }
  return out;
}

}  // namespace indexmac::workloads
