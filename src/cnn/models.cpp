// Layer tables for ResNet50, DenseNet121 and InceptionV3 (standard
// torchvision geometry, batch 1, ImageNet inputs). These reproduce the
// workloads of the paper's evaluation; weights themselves are synthetic
// (see docs/architecture.md, "Deliberate simplifications and substitutions").
#include <tuple>

#include "cnn/conv_layer.h"

namespace indexmac::cnn {
namespace {

/// Convenience builder collecting layers while tracking feature-map state.
class Net {
 public:
  Net(unsigned channels, unsigned hw) : channels_(channels), h_(hw), w_(hw) {}

  /// Adds a conv layer that consumes the current feature map.
  void conv(const std::string& name, unsigned out_c, unsigned kh, unsigned kw, unsigned stride,
            unsigned ph, unsigned pw, bool advance = true) {
    ConvLayer layer{name, channels_, out_c, kh, kw, stride, ph, pw, h_, w_};
    const unsigned oh = layer.out_h();
    const unsigned ow = layer.out_w();
    layers_.push_back(std::move(layer));
    if (advance) {
      channels_ = out_c;
      h_ = oh;
      w_ = ow;
    }
  }

  /// Square-kernel shorthand.
  void conv(const std::string& name, unsigned out_c, unsigned k, unsigned stride, unsigned pad,
            bool advance = true) {
    conv(name, out_c, k, k, stride, pad, pad, advance);
  }

  /// Pooling: updates geometry only (no GEMM).
  void pool(unsigned k, unsigned stride, unsigned pad) {
    h_ = (h_ + 2 * pad - k) / stride + 1;
    w_ = (w_ + 2 * pad - k) / stride + 1;
  }

  void set_channels(unsigned c) { channels_ = c; }
  [[nodiscard]] unsigned channels() const { return channels_; }
  [[nodiscard]] unsigned height() const { return h_; }
  /// Appends a fully-specified layer without touching the tracked state
  /// (side branches such as projection shortcuts).
  void add_raw(ConvLayer layer) { layers_.push_back(std::move(layer)); }
  [[nodiscard]] std::vector<ConvLayer> take() { return std::move(layers_); }

 private:
  unsigned channels_;
  unsigned h_;
  unsigned w_;
  std::vector<ConvLayer> layers_;
};

}  // namespace

CnnModel resnet50() {
  Net net(3, 224);
  net.conv("conv1", 64, 7, 2, 3);
  net.pool(3, 2, 1);  // 112 -> 56

  struct Stage {
    unsigned blocks, width, out;
  };
  const Stage stages[4] = {{3, 64, 256}, {4, 128, 512}, {6, 256, 1024}, {3, 512, 2048}};
  for (unsigned s = 0; s < 4; ++s) {
    const Stage& st = stages[s];
    for (unsigned b = 0; b < st.blocks; ++b) {
      const std::string base = "layer" + std::to_string(s + 1) + "." + std::to_string(b);
      const unsigned stride = (s > 0 && b == 0) ? 2 : 1;
      const unsigned block_in_c = net.channels();
      const unsigned block_in_hw = net.height();
      net.conv(base + ".conv1", st.width, 1, 1, 0);
      net.conv(base + ".conv2", st.width, 3, stride, 1);
      net.conv(base + ".conv3", st.out, 1, 1, 0);
      if (b == 0) {
        // Projection shortcut: 1x1 conv on the block input (strided when
        // the block downsamples). Side branch: does not advance the state.
        net.add_raw(ConvLayer{base + ".downsample", block_in_c, st.out, 1, 1, stride, 0, 0,
                              block_in_hw, block_in_hw});
      }
    }
  }
  return CnnModel{net.take()};
}

CnnModel mobilenetv1() {
  Net net(3, 224);
  net.conv("conv1", 32, 3, 2, 1);  // 224 -> 112

  // One depthwise-separable block: a 3x3 depthwise conv (modeled as the
  // [C x 9] GEMM proxy of its stacked per-channel filters, see
  // conv_layer.h) followed by a 1x1 pointwise conv to out_c channels.
  unsigned block = 0;
  auto separable = [&net, &block](unsigned out_c, unsigned stride) {
    const std::string base = "block" + std::to_string(++block);
    const unsigned c = net.channels();
    const unsigned hw = net.height();
    ConvLayer dw{base + ".dw", 1, c, 3, 3, stride, 1, 1, hw, hw};
    const unsigned out_hw = dw.out_h();
    net.add_raw(std::move(dw));
    net.set_channels(c);
    // Advance the tracked geometry through the depthwise stride, then the
    // pointwise conv consumes the downsampled map.
    ConvLayer pw{base + ".pw", c, out_c, 1, 1, 1, 0, 0, out_hw, out_hw};
    net.add_raw(std::move(pw));
    net.set_channels(out_c);
    while (net.height() > out_hw) net.pool(1, 2, 0);  // geometry bookkeeping only
  };

  separable(64, 1);
  separable(128, 2);   // -> 56
  separable(128, 1);
  separable(256, 2);   // -> 28
  separable(256, 1);
  separable(512, 2);   // -> 14
  for (int i = 0; i < 5; ++i) separable(512, 1);
  separable(1024, 2);  // -> 7
  separable(1024, 1);
  return CnnModel{net.take()};
}

CnnModel densenet121() {
  Net net(3, 224);
  net.conv("features.conv0", 64, 7, 2, 3);
  net.pool(3, 2, 1);  // -> 56

  const unsigned growth = 32;
  const unsigned block_sizes[4] = {6, 12, 24, 16};
  for (unsigned b = 0; b < 4; ++b) {
    for (unsigned l = 0; l < block_sizes[b]; ++l) {
      const std::string base =
          "denseblock" + std::to_string(b + 1) + ".denselayer" + std::to_string(l + 1);
      const unsigned in_c = net.channels();
      net.conv(base + ".conv1", 4 * growth, 1, 1, 0);       // bottleneck
      net.conv(base + ".conv2", growth, 3, 1, 1);           // growth output
      net.set_channels(in_c + growth);                      // dense concatenation
    }
    if (b < 3) {
      net.conv("transition" + std::to_string(b + 1) + ".conv", net.channels() / 2, 1, 1, 0);
      net.pool(2, 2, 0);
    }
  }
  return CnnModel{net.take()};
}

CnnModel inceptionv3() {
  Net net(3, 299);
  net.conv("Conv2d_1a_3x3", 32, 3, 2, 0);   // 299 -> 149
  net.conv("Conv2d_2a_3x3", 32, 3, 1, 0);   // -> 147
  net.conv("Conv2d_2b_3x3", 64, 3, 1, 1);   // -> 147
  net.pool(3, 2, 0);                        // -> 73
  net.conv("Conv2d_3b_1x1", 80, 1, 1, 0);
  net.conv("Conv2d_4a_3x3", 192, 3, 1, 0);  // -> 71
  net.pool(3, 2, 0);                        // -> 35

  // Branch helper: emits a chain of convs starting from the block input
  // geometry (each inception branch consumes the block input).
  struct Branch {
    unsigned channels;
    unsigned h, w;
    std::vector<ConvLayer> layers;
    void conv(const std::string& name, unsigned out_c, unsigned kh, unsigned kw, unsigned stride,
              unsigned ph, unsigned pw) {
      ConvLayer layer{name, channels, out_c, kh, kw, stride, ph, pw, h, w};
      const unsigned oh = layer.out_h();
      const unsigned ow = layer.out_w();
      layers.push_back(std::move(layer));
      channels = out_c;
      h = oh;
      w = ow;
    }
  };
  std::vector<ConvLayer> extra;
  unsigned cur_c = net.channels();
  unsigned cur_hw = 35;

  auto run_branches =
      [&extra, &cur_c, &cur_hw](
          const std::string& mixed,
          const std::vector<std::vector<std::tuple<std::string, unsigned, unsigned, unsigned,
                                                   unsigned, unsigned, unsigned>>>& branches,
          unsigned out_channels, unsigned out_hw) {
        for (const auto& branch : branches) {
          Branch b{cur_c, cur_hw, cur_hw, {}};
          for (const auto& [name, out_c, kh, kw, stride, ph, pw] : branch)
            b.conv(mixed + "." + name, out_c, kh, kw, stride, ph, pw);
          for (ConvLayer& l : b.layers) extra.push_back(std::move(l));
        }
        cur_c = out_channels;
        cur_hw = out_hw;
      };

  using Spec = std::tuple<std::string, unsigned, unsigned, unsigned, unsigned, unsigned, unsigned>;
  auto inception_a = [&run_branches](const std::string& mixed, unsigned pool_features,
                                     unsigned out_c) {
    run_branches(mixed,
                 {{Spec{"branch1x1", 64, 1, 1, 1, 0, 0}},
                  {Spec{"branch5x5_1", 48, 1, 1, 1, 0, 0}, Spec{"branch5x5_2", 64, 5, 5, 1, 2, 2}},
                  {Spec{"branch3x3dbl_1", 64, 1, 1, 1, 0, 0},
                   Spec{"branch3x3dbl_2", 96, 3, 3, 1, 1, 1},
                   Spec{"branch3x3dbl_3", 96, 3, 3, 1, 1, 1}},
                  {Spec{"branch_pool", pool_features, 1, 1, 1, 0, 0}}},
                 out_c, 35);
  };
  inception_a("Mixed_5b", 32, 256);
  inception_a("Mixed_5c", 64, 288);
  inception_a("Mixed_5d", 64, 288);

  // InceptionB: 35 -> 17.
  run_branches("Mixed_6a",
               {{Spec{"branch3x3", 384, 3, 3, 2, 0, 0}},
                {Spec{"branch3x3dbl_1", 64, 1, 1, 1, 0, 0},
                 Spec{"branch3x3dbl_2", 96, 3, 3, 1, 1, 1},
                 Spec{"branch3x3dbl_3", 96, 3, 3, 2, 0, 0}}},
               768, 17);

  auto inception_c = [&run_branches](const std::string& mixed, unsigned c7) {
    run_branches(
        mixed,
        {{Spec{"branch1x1", 192, 1, 1, 1, 0, 0}},
         {Spec{"branch7x7_1", c7, 1, 1, 1, 0, 0}, Spec{"branch7x7_2", c7, 1, 7, 1, 0, 3},
          Spec{"branch7x7_3", 192, 7, 1, 1, 3, 0}},
         {Spec{"branch7x7dbl_1", c7, 1, 1, 1, 0, 0}, Spec{"branch7x7dbl_2", c7, 7, 1, 1, 3, 0},
          Spec{"branch7x7dbl_3", c7, 1, 7, 1, 0, 3}, Spec{"branch7x7dbl_4", c7, 7, 1, 1, 3, 0},
          Spec{"branch7x7dbl_5", 192, 1, 7, 1, 0, 3}},
         {Spec{"branch_pool", 192, 1, 1, 1, 0, 0}}},
        768, 17);
  };
  inception_c("Mixed_6b", 128);
  inception_c("Mixed_6c", 160);
  inception_c("Mixed_6d", 160);
  inception_c("Mixed_6e", 192);

  // InceptionD: 17 -> 8.
  run_branches("Mixed_7a",
               {{Spec{"branch3x3_1", 192, 1, 1, 1, 0, 0}, Spec{"branch3x3_2", 320, 3, 3, 2, 0, 0}},
                {Spec{"branch7x7x3_1", 192, 1, 1, 1, 0, 0},
                 Spec{"branch7x7x3_2", 192, 1, 7, 1, 0, 3},
                 Spec{"branch7x7x3_3", 192, 7, 1, 1, 3, 0},
                 Spec{"branch7x7x3_4", 192, 3, 3, 2, 0, 0}}},
               1280, 8);

  auto inception_e = [&run_branches](const std::string& mixed) {
    run_branches(mixed,
                 {{Spec{"branch1x1", 320, 1, 1, 1, 0, 0}},
                  {Spec{"branch3x3_1", 384, 1, 1, 1, 0, 0},
                   Spec{"branch3x3_2a", 384, 1, 3, 1, 0, 1},
                   Spec{"branch3x3_2b", 384, 3, 1, 1, 1, 0}},
                  {Spec{"branch3x3dbl_1", 448, 1, 1, 1, 0, 0},
                   Spec{"branch3x3dbl_2", 384, 3, 3, 1, 1, 1},
                   Spec{"branch3x3dbl_3a", 384, 1, 3, 1, 0, 1},
                   Spec{"branch3x3dbl_3b", 384, 3, 1, 1, 1, 0}},
                  {Spec{"branch_pool", 192, 1, 1, 1, 0, 0}}},
                 2048, 8);
  };
  inception_e("Mixed_7b");
  inception_e("Mixed_7c");

  CnnModel model{net.take()};
  for (ConvLayer& l : extra) model.layers.push_back(std::move(l));
  return model;
}

}  // namespace indexmac::cnn
