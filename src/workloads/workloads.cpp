#include "workloads/workloads.h"

#include <algorithm>
#include <utility>

#include "cnn/conv_layer.h"
#include "common/error.h"

namespace indexmac::workloads {
namespace {

using kernels::GemmDims;

const std::vector<sparse::Sparsity> kPaperSparsities = {sparse::kSparsity14,
                                                        sparse::kSparsity24};

/// Encoder-transformer GEMMs under weight sparsity: A is the [out x in]
/// projection weight, B the [in x seq] activation block, so only the four
/// per-layer weight GEMMs appear (QK^T / PV score GEMMs multiply two dense
/// activations and are outside the N:M weight-pruning scheme).
ModelGraph transformer_graph(std::string name, std::string description, unsigned layers,
                             unsigned hidden, unsigned ffn, unsigned seq) {
  ModelGraph out;
  out.name = std::move(name);
  out.description = std::move(description);
  out.default_sparsities = kPaperSparsities;
  out.layers = {
      {"attention.qkv_proj", {hidden, hidden, seq}, 3 * layers},
      {"attention.out_proj", {hidden, hidden, seq}, layers},
      {"mlp.up_proj", {ffn, hidden, seq}, layers},
      {"mlp.down_proj", {hidden, ffn, seq}, layers},
  };
  return out;
}

ModelGraph bert_base() {
  return transformer_graph(
      "bert-base",
      "BERT-base encoder projection GEMMs (12 layers, hidden 768, seq 128)",
      /*layers=*/12, /*hidden=*/768, /*ffn=*/3072, /*seq=*/128);
}

ModelGraph vit_base() {
  ModelGraph out = transformer_graph(
      "vit-base", "ViT-B/16 encoder GEMMs (12 layers, hidden 768, 197 tokens @224x224)",
      /*layers=*/12, /*hidden=*/768, /*ffn=*/3072, /*seq=*/197);
  // Patch embedding: a 16x16/s16 conv == [768 x 3*16*16] x [768 x 196] GEMM.
  out.layers.insert(out.layers.begin(), {"patch_embed", {768, 768, 196}, 1});
  out.layers.push_back({"head", {1000, 768, 1}, 1});
  return out;
}

/// LLM decode step (Llama-3-8B-class geometry, GQA 32q/8kv heads, batch 8):
/// the skinny-activation GEMMs that dominate modern inference traffic.
/// cols_b is the decode batch — far below one vector strip — so these
/// shapes exercise the kernels' tail-only path at production row counts.
/// Evaluated at 2:4 and the coarser 2:8 the decode-bound regime favors.
ModelGraph llm_decode() {
  ModelGraph out;
  out.name = "llm-decode";
  out.description =
      "LLM decode-step GEMMs (8B-class GQA geometry, batch 8, skinny activations)";
  out.default_sparsities = {sparse::kSparsity24, sparse::Sparsity{2, 8}};
  const unsigned layers = 32, hidden = 4096, kv = 1024, ffn = 14336, batch = 8;
  out.layers = {
      {"attn.q_proj", {hidden, hidden, batch}, layers},
      {"attn.kv_proj", {kv, hidden, batch}, 2 * layers},
      {"attn.o_proj", {hidden, hidden, batch}, layers},
      {"mlp.gate_up_proj", {ffn, hidden, batch}, 2 * layers},
      {"mlp.down_proj", {hidden, ffn, batch}, layers},
      {"lm_head", {128256, hidden, batch}, 1},
  };
  return out;
}

ModelGraph tiny() {
  ModelGraph out;
  out.name = "tiny";
  out.description = "CI-sized shapes for golden-file regression tests (exact-mode friendly)";
  out.default_sparsities = kPaperSparsities;
  out.layers = {
      {"tiny.square", {16, 64, 32}, 1},
      {"tiny.wide", {8, 32, 48}, 2},
      // cols_b % 16 != 0: exercises the tail path.
      {"tiny.ragged", {12, 48, 20}, 1},
  };
  return out;
}

/// The GEMMs the ablation specs in bench/specs/ sweep, one suite per
/// ablation so no spec simulates a shape it does not report.
ModelGraph ablation_graph(std::string name, std::string description,
                          std::vector<std::pair<std::string, GemmDims>> shapes) {
  ModelGraph out;
  out.name = std::move(name);
  out.description = std::move(description);
  out.default_sparsities = kPaperSparsities;
  for (auto& [layer, dims] : shapes) out.layers.push_back({std::move(layer), dims, 1});
  return out;
}

/// The suite table, built and validated once.
const std::vector<ModelGraph>& registry() {
  static const std::vector<ModelGraph> graphs = [] {
    std::vector<ModelGraph> out;
    auto add = [&out](ModelGraph graph) {
      graph.validate();
      out.push_back(std::move(graph));
    };
    add(graph_from_cnn(cnn::resnet50(), "resnet50",
                       "ResNet50 conv GEMMs, ImageNet geometry (paper Figs. 4-6)",
                       kPaperSparsities));
    add(graph_from_cnn(cnn::densenet121(), "densenet121",
                       "DenseNet121 conv GEMMs, ImageNet geometry (paper Figs. 5-6)",
                       kPaperSparsities));
    add(graph_from_cnn(cnn::inceptionv3(), "inceptionv3",
                       "InceptionV3 conv GEMMs, 299x299 geometry (paper Figs. 5-6)",
                       kPaperSparsities));
    add(graph_from_cnn(cnn::mobilenetv1(), "mobilenetv1",
                       "MobileNetV1 depthwise/pointwise GEMMs (width 1.0, 224x224)",
                       kPaperSparsities));
    add(bert_base());
    add(vit_base());
    add(llm_decode());
    add(tiny());
    add(ablation_graph("ablation-gemm",
                       "64x576x98 GEMM of the kernel, tile-rows and sparsity ablations",
                       {{"gemm", {64, 576, 98}}}));
    // Early layers: few A rows, many B columns; late layers the opposite.
    add(ablation_graph("ablation-dataflow",
                       "Early/mid/late-layer-shaped GEMMs of the dataflow ablation",
                       {{"early-layer", {16, 144, 392}},
                        {"mid-layer", {32, 288, 98}},
                        {"late-layer", {128, 576, 49}}}));
    add(ablation_graph("ablation-processor",
                       "128x1152x196 mid-network GEMM of the processor ablation",
                       {{"gemm", {128, 1152, 196}}}));
    return out;
  }();
  return graphs;
}

}  // namespace

std::vector<std::string> suite_names() {
  std::vector<std::string> out;
  for (const ModelGraph& graph : registry()) out.push_back(graph.name);
  return out;
}

const ModelGraph& model_graph(const std::string& name) {
  const auto it = std::ranges::find(registry(), name, &ModelGraph::name);
  if (it != registry().end()) return *it;
  std::string known;
  for (const std::string& n : suite_names()) known += (known.empty() ? "" : ", ") + n;
  raise("unknown workload suite \"" + name + "\" (known: " + known + ")");
}

kernels::GemmDims shrink(const kernels::GemmDims& dims, const kernels::GemmDims& cap) {
  return {std::min(dims.rows_a, cap.rows_a), std::min(dims.k, cap.k),
          std::min(dims.cols_b, cap.cols_b)};
}

sparse::Sparsity parse_sparsity(const std::string& label) {
  const std::size_t colon = label.find(':');
  IMAC_CHECK(colon != std::string::npos && colon > 0 && colon + 1 < label.size(),
             "sparsity must be \"N:M\", got \"" + label + "\"");
  unsigned n = 0, m = 0;
  for (std::size_t i = 0; i < label.size(); ++i) {
    if (i == colon) continue;
    const char c = label[i];
    IMAC_CHECK(c >= '0' && c <= '9', "sparsity must be \"N:M\", got \"" + label + "\"");
    unsigned& field = i < colon ? n : m;
    field = field * 10 + static_cast<unsigned>(c - '0');
    IMAC_CHECK(field <= 4096, "sparsity label \"" + label + "\" is out of range (fields must be <= 4096)");
  }
  IMAC_CHECK(n >= 1, "sparsity \"" + label + "\" is degenerate: N must be >= 1");
  IMAC_CHECK(n < m, "sparsity \"" + label + "\" is degenerate: N must be < M (N == M is dense)");
  return sparse::Sparsity{n, m};
}

std::string sparsity_label(sparse::Sparsity sp) {
  return std::to_string(sp.n) + ":" + std::to_string(sp.m);
}

}  // namespace indexmac::workloads
