// Convolution-layer descriptors and the conv -> GEMM (im2col) mapping used
// by the paper's evaluation: each conv layer becomes C = A x B with
//   A = [out_channels x in_channels*kh*kw]   (structured-sparse weights)
//   B = [in_channels*kh*kw x out_h*out_w]    (dense im2col input features)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.h"
#include "kernels/layout.h"

namespace indexmac::cnn {

/// One convolution layer (batch 1). Non-square kernels (Inception's 1x7 /
/// 7x1) carry separate h/w geometry.
struct ConvLayer {
  std::string name;
  unsigned in_channels = 0;
  unsigned out_channels = 0;
  unsigned kernel_h = 1;
  unsigned kernel_w = 1;
  unsigned stride = 1;
  unsigned pad_h = 0;
  unsigned pad_w = 0;
  unsigned in_h = 0;
  unsigned in_w = 0;

  [[nodiscard]] unsigned out_h() const {
    IMAC_CHECK(in_h + 2 * pad_h >= kernel_h, "conv does not fit input height");
    return (in_h + 2 * pad_h - kernel_h) / stride + 1;
  }
  [[nodiscard]] unsigned out_w() const {
    IMAC_CHECK(in_w + 2 * pad_w >= kernel_w, "conv does not fit input width");
    return (in_w + 2 * pad_w - kernel_w) / stride + 1;
  }

  /// GEMM dimensions under the im2col mapping.
  [[nodiscard]] kernels::GemmDims gemm() const {
    return kernels::GemmDims{
        .rows_a = out_channels,
        .k = static_cast<std::size_t>(in_channels) * kernel_h * kernel_w,
        .cols_b = static_cast<std::size_t>(out_h()) * out_w(),
    };
  }

  /// Multiply-accumulate count of the dense layer (2*MACs = FLOPs).
  [[nodiscard]] std::uint64_t macs() const {
    const auto g = gemm();
    return static_cast<std::uint64_t>(g.rows_a) * g.k * g.cols_b;
  }
};

/// A whole network: conv layers in execution order.
struct CnnModel {
  std::vector<ConvLayer> layers;
};

/// The three CNNs of the paper's evaluation (ImageNet geometry).
[[nodiscard]] CnnModel resnet50();      ///< 53 conv layers, 224x224 input
[[nodiscard]] CnnModel densenet121();   ///< 120 conv layers, 224x224 input
[[nodiscard]] CnnModel inceptionv3();   ///< 94 conv layers, 299x299 input

/// MobileNetV1 (width 1.0, 224x224): the depthwise/pointwise workload of
/// the related structured-sparsity evaluations. Depthwise 3x3 layers are
/// modeled as a [channels x 9] x [9 x out_hw] GEMM proxy (the stacked
/// per-channel filters; identical MAC count to the real grouped conv).
[[nodiscard]] CnnModel mobilenetv1();   ///< 27 conv layers

}  // namespace indexmac::cnn
