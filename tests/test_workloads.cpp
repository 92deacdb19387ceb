// Workload registry: the suites that generalize the paper's CNN tables.
// The CNN suites must group their conv layers by GEMM shape (the figure
// specs rely on identical layer lists), the transformer and ablation
// suites must carry their documented shapes, and ModelGraph::validate must
// reject a graph a sweep report could not carry.
#include "workloads/workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "cnn/conv_layer.h"

namespace indexmac::workloads {
namespace {

TEST(Workloads, RegistryHasTheAdvertisedSuites) {
  // The fixed table of built-in suites, in list-workloads order.
  EXPECT_EQ(suite_names(),
            (std::vector<std::string>{"resnet50", "densenet121", "inceptionv3", "mobilenetv1",
                                      "bert-base", "vit-base", "llm-decode", "tiny",
                                      "ablation-gemm", "ablation-dataflow",
                                      "ablation-processor"}));
  for (const std::string& name : suite_names()) {
    EXPECT_EQ(model_graph(name).name, name);
    EXPECT_FALSE(model_graph(name).layers.empty()) << name;
  }
  // An unknown name is an error that lists the known ones.
  try {
    (void)model_graph("no-such-net");
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("\"no-such-net\""), std::string::npos) << what;
    EXPECT_NE(what.find("resnet50, densenet121"), std::string::npos) << what;
  }
}

TEST(ModelGraph, ValidateRejectsWhatASweepReportCannotCarry) {
  const auto graph = [](std::string model, std::string layer) {
    ModelGraph out;
    out.name = std::move(model);
    out.default_sparsities = {sparse::kSparsity24};
    out.layers = {{std::move(layer), {4, 8, 16}, 1}};
    return out;
  };
  graph("x", "fc").validate();
  // Sweep reports write model and layer names unquoted, so each must be
  // one or more ASCII letters, digits, '.', '_' or '-'; the error names it.
  const std::tuple<const char*, const char*, const char*> bad_names[] = {
      {"a b", "fc", R"(model name "a b")"},
      {"a\nb", "fc", "model name \"a\nb\""},
      {"x", "fc,1", R"(model "x" layer name "fc,1")"},
      {"x", "", R"(model "x" layer name "")"}};
  for (const auto& [model, layer, message] : bad_names) {
    SCOPED_TRACE(message);
    try {
      graph(model, layer).validate();
      ADD_FAILURE() << "accepted";
    } catch (const SimError& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos) << e.what();
    }
  }
  // The structural rules: a layer, unique layer names, nonzero dims and
  // repeats, and a default sparsity with 1 <= N < M.
  ModelGraph empty = graph("x", "fc");
  empty.layers.clear();
  ModelGraph duplicated = graph("x", "fc");
  duplicated.layers.push_back(duplicated.layers.front());
  ModelGraph zero_dim = graph("x", "fc");
  zero_dim.layers.front().gemm.k = 0;
  ModelGraph zero_repeat = graph("x", "fc");
  zero_repeat.layers.front().repeat = 0;
  ModelGraph no_sparsity = graph("x", "fc");
  no_sparsity.default_sparsities.clear();
  ModelGraph dense = graph("x", "fc");
  dense.default_sparsities = {sparse::Sparsity{4, 4}};
  for (const ModelGraph* bad : {&empty, &duplicated, &zero_dim, &zero_repeat, &no_sparsity, &dense})
    EXPECT_THROW(bad->validate(), SimError);
}

TEST(Workloads, CnnSuitesGroupLayersByGemmShape) {
  // One record per distinct im2col GEMM shape, in first-occurrence order,
  // named after the shape's first layer and repeated once per layer of it.
  const struct {
    const char* suite_name;
    cnn::CnnModel (*model)();
  } cases[] = {{"resnet50", cnn::resnet50},
               {"densenet121", cnn::densenet121},
               {"inceptionv3", cnn::inceptionv3},
               {"mobilenetv1", cnn::mobilenetv1}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.suite_name);
    const ModelGraph& graph = model_graph(c.suite_name);
    const cnn::CnnModel model = c.model();
    EXPECT_LT(graph.layers.size(), model.layers.size());
    EXPECT_EQ(graph.layer_count(), model.layers.size());
    std::size_t opened = 0;  // records whose first layer has been seen
    for (const cnn::ConvLayer& conv : model.layers) {
      const auto it = std::ranges::find(graph.layers, conv.gemm(), &LayerRecord::gemm);
      ASSERT_NE(it, graph.layers.end()) << conv.name;
      const auto at = static_cast<std::size_t>(it - graph.layers.begin());
      ASSERT_LE(at, opened) << conv.name;  // a new shape opens the next record
      if (at == opened) {
        EXPECT_EQ(it->name, conv.name);
        ++opened;
      }
    }
    EXPECT_EQ(opened, graph.layers.size());
    for (const LayerRecord& record : graph.layers)
      EXPECT_EQ(std::ranges::count(model.layers, record.gemm, &cnn::ConvLayer::gemm),
                static_cast<std::ptrdiff_t>(record.repeat))
          << record.name;
  }
  // ResNet50's 64->256 1x1 shape at 56x56 is the conv3 expansion of all
  // three layer1 blocks plus the block-0 projection shortcut.
  const std::vector<LayerRecord>& resnet = model_graph("resnet50").layers;
  const auto conv3 =
      std::ranges::find(resnet, kernels::GemmDims{256, 64, 3136}, &LayerRecord::gemm);
  ASSERT_NE(conv3, resnet.end());
  EXPECT_EQ(conv3->name, "layer1.0.conv3");
  EXPECT_EQ(conv3->repeat, 4u);
}

TEST(Workloads, MobilenetContainsDepthwiseAndPointwiseShapes) {
  const ModelGraph& graph = model_graph("mobilenetv1");
  bool saw_dw = false, saw_pw = false;
  for (const LayerRecord& l : graph.layers) {
    if (l.name.find(".dw") != std::string::npos) {
      saw_dw = true;
      EXPECT_EQ(l.gemm.k, 9u) << l.name;  // 3x3 single-channel filter proxy
    }
    if (l.name.find(".pw") != std::string::npos) {
      saw_pw = true;
      EXPECT_GE(l.gemm.k, 32u) << l.name;  // pointwise 1x1: k == in_channels
    }
  }
  EXPECT_TRUE(saw_dw);
  EXPECT_TRUE(saw_pw);
  // MobileNetV1 @224: 0.57 GMACs dense (the well-known headline count).
  EXPECT_NEAR(static_cast<double>(graph.total_macs()) / 1e9, 0.57, 0.02);
}

TEST(Workloads, TransformerSuitesCarryProjectionShapes) {
  const std::vector<LayerRecord>& bert = model_graph("bert-base").layers;
  ASSERT_EQ(bert.size(), 4u);
  EXPECT_EQ(bert[0].name, "attention.qkv_proj");
  EXPECT_EQ(bert[0].repeat, 36u);  // 3 projections x 12 layers
  for (const LayerRecord& l : bert) EXPECT_EQ(l.gemm.cols_b, 128u) << l.name;
  // FFN up/down are transposes of each other.
  EXPECT_EQ(bert[2].gemm.rows_a, 3072u);
  EXPECT_EQ(bert[2].gemm.k, 768u);
  EXPECT_EQ(bert[3].gemm.rows_a, 768u);
  EXPECT_EQ(bert[3].gemm.k, 3072u);

  const std::vector<LayerRecord>& vit = model_graph("vit-base").layers;
  EXPECT_EQ(vit.front().name, "patch_embed");
  EXPECT_EQ(vit.front().gemm.k, 768u);  // 3*16*16
  bool found_encoder = false;
  for (const LayerRecord& l : vit)
    if (l.name == "attention.qkv_proj") {
      found_encoder = true;
      EXPECT_EQ(l.gemm.cols_b, 197u);  // 196 patches + CLS token
    }
  EXPECT_TRUE(found_encoder);
}

TEST(Workloads, AblationSuitesHoldOnlyTheirAblationsShapes) {
  // bench/specs/ablation_*.json sweep these suites whole, so each holds
  // exactly the GEMMs its ablation reports and nothing else.
  const auto shapes = [](const char* name) {
    std::vector<kernels::GemmDims> out;
    for (const LayerRecord& l : model_graph(name).layers) out.push_back(l.gemm);
    return out;
  };
  using D = kernels::GemmDims;
  EXPECT_EQ(shapes("ablation-gemm"), (std::vector<D>{{64, 576, 98}}));
  EXPECT_EQ(shapes("ablation-dataflow"),
            (std::vector<D>{{16, 144, 392}, {32, 288, 98}, {128, 576, 49}}));
  EXPECT_EQ(shapes("ablation-processor"), (std::vector<D>{{128, 1152, 196}}));
}

TEST(Workloads, ShrinkClampsEachDimension) {
  const kernels::GemmDims big{3072, 768, 197};
  const kernels::GemmDims cap{32, 64, 48};
  const kernels::GemmDims small = shrink(big, cap);
  EXPECT_EQ(small.rows_a, 32u);
  EXPECT_EQ(small.k, 64u);
  EXPECT_EQ(small.cols_b, 48u);
  const kernels::GemmDims tiny_dims = shrink({8, 16, 20}, cap);
  EXPECT_EQ(tiny_dims.rows_a, 8u);
  EXPECT_EQ(tiny_dims.k, 16u);
  EXPECT_EQ(tiny_dims.cols_b, 20u);
}

TEST(Workloads, ShrinkCornerCases) {
  const kernels::GemmDims cap{32, 64, 48};
  // Every dimension exactly at the cap: unchanged.
  const kernels::GemmDims at_cap = shrink({32, 64, 48}, cap);
  EXPECT_EQ(at_cap.rows_a, 32u);
  EXPECT_EQ(at_cap.k, 64u);
  EXPECT_EQ(at_cap.cols_b, 48u);
  // Mixed: one dimension over, one exactly at, one under the cap.
  const kernels::GemmDims mixed = shrink({128, 64, 7}, cap);
  EXPECT_EQ(mixed.rows_a, 32u);
  EXPECT_EQ(mixed.k, 64u);
  EXPECT_EQ(mixed.cols_b, 7u);
  // Degenerate k=1 / cols_b=1 shapes survive (skinny LLM-decode limits).
  const kernels::GemmDims skinny = shrink({4096, 1, 1}, cap);
  EXPECT_EQ(skinny.rows_a, 32u);
  EXPECT_EQ(skinny.k, 1u);
  EXPECT_EQ(skinny.cols_b, 1u);
}

TEST(Workloads, SparsityLabelsRoundTrip) {
  EXPECT_EQ(parse_sparsity("1:4"), sparse::kSparsity14);
  EXPECT_EQ(parse_sparsity("2:4"), sparse::kSparsity24);
  EXPECT_EQ(sparsity_label(parse_sparsity("12:16")), "12:16");
  EXPECT_THROW((void)parse_sparsity("14"), SimError);
  EXPECT_THROW((void)parse_sparsity(":4"), SimError);
  EXPECT_THROW((void)parse_sparsity("1:"), SimError);
  EXPECT_THROW((void)parse_sparsity("4:1"), SimError);  // N > M
  EXPECT_THROW((void)parse_sparsity("0:4"), SimError);
  EXPECT_THROW((void)parse_sparsity("a:b"), SimError);
}

TEST(Workloads, ParseSparsityRejectsDegenerateLabels) {
  // N == M is dense, not a sparsity pattern.
  EXPECT_THROW((void)parse_sparsity("4:4"), SimError);
  EXPECT_THROW((void)parse_sparsity("1:1"), SimError);
  // Over-full (N > M), including the small-field case.
  EXPECT_THROW((void)parse_sparsity("3:2"), SimError);
  // Whitespace anywhere in the label is malformed, never trimmed.
  EXPECT_THROW((void)parse_sparsity(" 2:4"), SimError);
  EXPECT_THROW((void)parse_sparsity("2:4 "), SimError);
  EXPECT_THROW((void)parse_sparsity("2 :4"), SimError);
  EXPECT_THROW((void)parse_sparsity("2: 4"), SimError);
  // Fields beyond the 4096 bound (including u32-overflowing digits).
  EXPECT_THROW((void)parse_sparsity("2:4097"), SimError);
  EXPECT_THROW((void)parse_sparsity("5000:8000"), SimError);
  EXPECT_THROW((void)parse_sparsity("1:99999999999999999999"), SimError);
  // The boundary itself is accepted, and errors name the offending label.
  EXPECT_EQ(sparsity_label(parse_sparsity("2048:4096")), "2048:4096");
  try {
    (void)parse_sparsity("4:4");
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("4:4"), std::string::npos) << e.what();
  }
}

TEST(Workloads, LlmDecodeCarriesGqaDecodeShapes) {
  const ModelGraph& graph = model_graph("llm-decode");
  // Decode-step activations are batch-sized (skinny): every GEMM has the
  // same tiny cols_b.
  for (const LayerRecord& l : graph.layers) EXPECT_EQ(l.gemm.cols_b, 8u) << l.name;
  // GQA: the fused K/V projection is narrower than Q and repeats twice per
  // block (K and V), 2 x 32 blocks.
  const LayerRecord* kv = nullptr;
  for (const LayerRecord& l : graph.layers)
    if (l.name == "attn.kv_proj") kv = &l;
  ASSERT_NE(kv, nullptr);
  EXPECT_EQ(kv->gemm.rows_a, 1024u);
  EXPECT_EQ(kv->gemm.k, 4096u);
  EXPECT_EQ(kv->repeat, 64u);
  // Default evaluation grid: 2:4 plus the coarser 2:8 pattern.
  ASSERT_EQ(graph.default_sparsities.size(), 2u);
  EXPECT_EQ(sparsity_label(graph.default_sparsities[0]), "2:4");
  EXPECT_EQ(sparsity_label(graph.default_sparsities[1]), "2:8");
  // 8B-class decode step: ~60 GMACs dominated by the MLP and lm_head.
  EXPECT_NEAR(static_cast<double>(graph.total_macs()) / 1e9, 60.0, 1.0);
}

TEST(Workloads, AllShapesAreLayoutCompatible) {
  // Every registered shape must survive layout construction at the paper's
  // L=16 tile under both paper sparsities (the sweep engine's precondition).
  for (const std::string& name : suite_names()) {
    const ModelGraph& graph = model_graph(name);
    for (const sparse::Sparsity sp : graph.default_sparsities)
      for (const LayerRecord& l : graph.layers) {
        AddressAllocator alloc;
        const auto layout = kernels::make_layout(l.gemm, sp, 16, alloc);
        EXPECT_GT(layout.num_ktiles, 0u) << name << "/" << l.name;
      }
  }
}

}  // namespace
}  // namespace indexmac::workloads
