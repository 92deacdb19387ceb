// Layer-table invariants for the three evaluated CNNs: conv counts,
// feature-map geometry, channel bookkeeping and the conv->GEMM mapping.
#include <gtest/gtest.h>

#include "cnn/conv_layer.h"

namespace indexmac::cnn {
namespace {

TEST(ConvLayer, OutputGeometry) {
  const ConvLayer conv{"c", 3, 64, 7, 7, 2, 3, 3, 224, 224};
  EXPECT_EQ(conv.out_h(), 112u);
  EXPECT_EQ(conv.out_w(), 112u);
}

TEST(ConvLayer, NonSquareKernels) {
  const ConvLayer conv{"c", 128, 128, 1, 7, 1, 0, 3, 17, 17};
  EXPECT_EQ(conv.out_h(), 17u);
  EXPECT_EQ(conv.out_w(), 17u);
  EXPECT_EQ(conv.gemm().k, 128u * 7);
}

TEST(ConvLayer, GemmMapping) {
  const ConvLayer conv{"c", 64, 256, 3, 3, 1, 1, 1, 56, 56};
  const auto g = conv.gemm();
  EXPECT_EQ(g.rows_a, 256u);
  EXPECT_EQ(g.k, 64u * 9);
  EXPECT_EQ(g.cols_b, 56u * 56);
  EXPECT_EQ(conv.macs(), 256ull * 576 * 3136);
}

TEST(ConvLayer, GeometryUnderflowThrows) {
  const ConvLayer conv{"c", 3, 8, 7, 7, 1, 0, 0, 5, 5};
  EXPECT_THROW((void)conv.out_h(), SimError);
}

TEST(Resnet50, HasFiftyThreeConvLayers) {
  EXPECT_EQ(resnet50().layers.size(), 53u);
}

TEST(Resnet50, FirstAndLastLayersMatchArchitecture) {
  const auto model = resnet50();
  const ConvLayer& first = model.layers.front();
  EXPECT_EQ(first.name, "conv1");
  EXPECT_EQ(first.gemm().k, 3u * 49);
  EXPECT_EQ(first.gemm().cols_b, 112u * 112);
  const ConvLayer& last = model.layers.back();
  // layer4.2.conv3: 512 -> 2048 at 7x7.
  EXPECT_EQ(last.out_channels, 2048u);
  EXPECT_EQ(last.gemm().cols_b, 49u);
}

TEST(Resnet50, StageGeometry) {
  const auto model = resnet50();
  for (const ConvLayer& l : model.layers) {
    if (l.name.rfind("layer1", 0) == 0) {
      EXPECT_EQ(l.gemm().cols_b, 56u * 56) << l.name;
    }
    if (l.name.rfind("layer4", 0) == 0 && l.name.find("conv1") == std::string::npos &&
        l.name.find("downsample") == std::string::npos) {
      EXPECT_EQ(l.gemm().cols_b, 49u) << l.name;
    }
  }
}

TEST(Resnet50, DownsampleProjectionsPresent) {
  const auto model = resnet50();
  unsigned downsamples = 0;
  for (const ConvLayer& l : model.layers)
    if (l.name.find("downsample") != std::string::npos) {
      ++downsamples;
      EXPECT_EQ(l.kernel_h, 1u);
    }
  EXPECT_EQ(downsamples, 4u);
}

TEST(Resnet50, TotalMacsMatchKnownBudget) {
  // ResNet50 conv MACs ~= 4.09 GMac at 224x224 (excluding the FC layer).
  std::uint64_t macs = 0;
  for (const ConvLayer& l : resnet50().layers) macs += l.macs();
  EXPECT_GT(macs, 3'900'000'000ull);
  EXPECT_LT(macs, 4'200'000'000ull);
}

TEST(Densenet121, HasOneHundredTwentyConvLayers) {
  EXPECT_EQ(densenet121().layers.size(), 120u);
}

TEST(Densenet121, ChannelBookkeeping) {
  const auto model = densenet121();
  // First dense layer consumes 64 channels; last consumes 512 + 15*32.
  const ConvLayer* first_dense = nullptr;
  const ConvLayer* last_dense = nullptr;
  for (const ConvLayer& l : model.layers) {
    if (l.name == "denseblock1.denselayer1.conv1") first_dense = &l;
    if (l.name == "denseblock4.denselayer16.conv1") last_dense = &l;
  }
  ASSERT_NE(first_dense, nullptr);
  ASSERT_NE(last_dense, nullptr);
  EXPECT_EQ(first_dense->in_channels, 64u);
  EXPECT_EQ(last_dense->in_channels, 512u + 15 * 32);
  EXPECT_EQ(last_dense->gemm().cols_b, 49u);
}

TEST(Densenet121, TransitionsHalveChannels) {
  const auto model = densenet121();
  for (const ConvLayer& l : model.layers)
    if (l.name.rfind("transition", 0) == 0) {
      EXPECT_EQ(l.out_channels, l.in_channels / 2) << l.name;
    }
}

TEST(Inceptionv3, HasNinetyFourConvLayers) {
  EXPECT_EQ(inceptionv3().layers.size(), 94u);
}

TEST(Inceptionv3, StemGeometry) {
  const auto model = inceptionv3();
  EXPECT_EQ(model.layers[0].gemm().cols_b, 149u * 149);
  EXPECT_EQ(model.layers[1].gemm().cols_b, 147u * 147);
  EXPECT_EQ(model.layers[4].gemm().cols_b, 71u * 71);  // Conv2d_4a_3x3
}

TEST(Inceptionv3, MixedBlockInputChannels) {
  const auto model = inceptionv3();
  auto find = [&model](const std::string& name) -> const ConvLayer& {
    for (const ConvLayer& l : model.layers)
      if (l.name == name) return l;
    ADD_FAILURE() << "missing layer " << name;
    static ConvLayer dummy{};
    return dummy;
  };
  EXPECT_EQ(find("Mixed_5b.branch1x1").in_channels, 192u);
  EXPECT_EQ(find("Mixed_5c.branch1x1").in_channels, 256u);
  EXPECT_EQ(find("Mixed_5d.branch1x1").in_channels, 288u);
  EXPECT_EQ(find("Mixed_6b.branch1x1").in_channels, 768u);
  EXPECT_EQ(find("Mixed_7b.branch1x1").in_channels, 1280u);
  EXPECT_EQ(find("Mixed_7c.branch1x1").in_channels, 2048u);
  // 17x17 seven-wide factorized convs.
  EXPECT_EQ(find("Mixed_6b.branch7x7_2").kernel_w, 7u);
  EXPECT_EQ(find("Mixed_6b.branch7x7_2").gemm().cols_b, 17u * 17);
}

TEST(Inceptionv3, FactorizedConvIm2colMatchesHandComputation) {
  // The 1x7 / 7x1 factorized pair of Mixed_6b.branch7x7, im2col'd by hand.
  // branch7x7_2: 128 -> 128, 1x7 kernel, pad (0,3), 17x17 input:
  //   out = 17x17 (height untouched, width padded back to 17),
  //   A = [128 x 128*1*7], B columns = 289.
  // branch7x7_3: 128 -> 192, 7x1 kernel, pad (3,0) — the transpose-shaped
  // sibling with the same k.
  const auto model = inceptionv3();
  const ConvLayer* h = nullptr;
  const ConvLayer* v = nullptr;
  for (const ConvLayer& l : model.layers) {
    if (l.name == "Mixed_6b.branch7x7_2") h = &l;
    if (l.name == "Mixed_6b.branch7x7_3") v = &l;
  }
  ASSERT_NE(h, nullptr);
  ASSERT_NE(v, nullptr);

  EXPECT_EQ(h->kernel_h, 1u);
  EXPECT_EQ(h->kernel_w, 7u);
  EXPECT_EQ(h->out_h(), 17u);
  EXPECT_EQ(h->out_w(), (17u + 2 * 3 - 7) / 1 + 1);  // 17
  EXPECT_EQ(h->gemm().rows_a, 128u);
  EXPECT_EQ(h->gemm().k, 128u * 1 * 7);
  EXPECT_EQ(h->gemm().cols_b, 289u);
  EXPECT_EQ(h->macs(), 128ull * 896 * 289);

  EXPECT_EQ(v->kernel_h, 7u);
  EXPECT_EQ(v->kernel_w, 1u);
  EXPECT_EQ(v->pad_h, 3u);
  EXPECT_EQ(v->pad_w, 0u);
  EXPECT_EQ(v->gemm().rows_a, 192u);
  EXPECT_EQ(v->gemm().k, 128u * 7 * 1);
  EXPECT_EQ(v->gemm().cols_b, 289u);
}

}  // namespace
}  // namespace indexmac::cnn
