// Real im2col lowering and a direct-convolution reference. Sweeps only need
// layer *dimensions* (ConvLayer::gemm()); this module carries actual feature
// maps through the same mapping so end-to-end tests can check that a
// convolution computed by the simulated vindexmac kernel equals a direct
// convolution with the same (pruned) weights.
#pragma once

#include <cstdint>
#include <vector>

#include "cnn/conv_layer.h"
#include "sparse/dense_matrix.h"

namespace indexmac::cnn {

/// A CHW feature map (batch 1).
struct FeatureMap {
  unsigned channels = 0;
  unsigned height = 0;
  unsigned width = 0;
  std::vector<float> data;  ///< data[(c*height + y)*width + x]

  FeatureMap() = default;
  FeatureMap(unsigned c, unsigned h, unsigned w)
      : channels(c), height(h), width(w), data(static_cast<std::size_t>(c) * h * w, 0.0f) {}

  [[nodiscard]] float at(unsigned c, unsigned y, unsigned x) const {
    IMAC_CHECK(c < channels && y < height && x < width, "FeatureMap index out of range");
    return data[(static_cast<std::size_t>(c) * height + y) * width + x];
  }
  [[nodiscard]] float& at(unsigned c, unsigned y, unsigned x) {
    IMAC_CHECK(c < channels && y < height && x < width, "FeatureMap index out of range");
    return data[(static_cast<std::size_t>(c) * height + y) * width + x];
  }

  /// Reads a pixel with zero padding outside the map.
  [[nodiscard]] float padded(unsigned c, int y, int x) const {
    if (y < 0 || x < 0 || y >= static_cast<int>(height) || x >= static_cast<int>(width))
      return 0.0f;
    return at(c, static_cast<unsigned>(y), static_cast<unsigned>(x));
  }
};

/// Deterministic random feature map in [-1, 1].
[[nodiscard]] FeatureMap random_feature_map(unsigned channels, unsigned height, unsigned width,
                                            std::uint32_t seed);

/// Lowers `input` to the B matrix of layer's GEMM:
/// B[(c*kh + i)*kw + j, y*out_w + x] = input[c, y*s - ph + i, x*s - pw + j].
[[nodiscard]] sparse::DenseMatrix<float> im2col(const FeatureMap& input, const ConvLayer& layer);

/// Direct convolution (no GEMM): the golden model for end-to-end tests.
/// `weights` is [out_channels x in_channels*kh*kw], matching layer.gemm().
[[nodiscard]] FeatureMap conv_reference(const FeatureMap& input, const ConvLayer& layer,
                                        const sparse::DenseMatrix<float>& weights);

/// Reinterprets a GEMM result C [out_channels x out_h*out_w] as a map.
[[nodiscard]] FeatureMap gemm_result_to_map(const sparse::DenseMatrix<float>& c,
                                            const ConvLayer& layer);

}  // namespace indexmac::cnn
