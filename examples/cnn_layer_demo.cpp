// CNN layer demo: map a real ResNet50 convolution to a sparse x dense GEMM
// (the paper's Section IV workload construction), run both kernels on the
// timing model, and report the per-layer numbers behind Fig. 4.
//
//   ./build/examples/cnn_layer_demo [layer-index]
//
// layer-index picks one of ResNet50's distinct GEMM shapes (0-based, in
// `imac_run list-workloads resnet50` order); anything else exits 1.
#include <algorithm>
#include <cstdio>

#include "cnn/conv_layer.h"
#include "common/error.h"
#include "common/format.h"
#include "core/runner.h"
#include "workloads/workloads.h"

namespace {

int run(int argc, char** argv) {
  using namespace indexmac;
  using core::Algorithm;
  using core::RunConfig;

  // One record per distinct GEMM shape, named after its first conv layer.
  const workloads::ModelGraph& graph = workloads::model_graph("resnet50");
  if (argc > 2) raise("usage: cnn_layer_demo [layer-index]");
  std::size_t index = 7;  // layer2.0.conv2 by default: a mid-network 3x3
  if (argc == 2) index = parse_uint(argv[1], "layer-index", graph.layers.size() - 1);
  const workloads::LayerRecord& layer = graph.layers[index];
  const cnn::CnnModel model = cnn::resnet50();
  const cnn::ConvLayer& conv = *std::ranges::find(model.layers, layer.name, &cnn::ConvLayer::name);

  std::printf("ResNet50 layer %s: conv %ux%u, %u -> %u channels, %ux%u -> %ux%u\n",
              conv.name.c_str(), conv.kernel_h, conv.kernel_w, conv.in_channels,
              conv.out_channels, conv.in_h, conv.in_w, conv.out_h(), conv.out_w());
  std::printf("im2col GEMM: A[%zu x %zu] (weights, structured-sparse) x B[%zu x %zu] (features)\n",
              layer.gemm.rows_a, layer.gemm.k, layer.gemm.k, layer.gemm.cols_b);
  std::printf("this shape appears %u times in the network\n\n", layer.repeat);

  const timing::ProcessorConfig proc{};
  for (const auto sp : {sparse::kSparsity14, sparse::kSparsity24}) {
    const RunConfig rowwise{.algorithm = Algorithm::kRowwiseSpmm, .kernel = {.unroll = 4}};
    const RunConfig proposed{.algorithm = Algorithm::kIndexmac, .kernel = {.unroll = 4}};
    const auto r2 = core::run_sampled(layer.gemm, sp, rowwise, proc);
    const auto r3 = core::run_sampled(layer.gemm, sp, proposed, proc);
    std::printf("%u:%u sparsity:\n", sp.n, sp.m);
    std::printf("  Row-Wise-SpMM : %12.0f cycles  (%llu memory accesses)\n", r2.cycles,
                static_cast<unsigned long long>(r2.data_accesses));
    std::printf("  Proposed      : %12.0f cycles  (%llu memory accesses)\n", r3.cycles,
                static_cast<unsigned long long>(r3.data_accesses));
    std::printf("  speedup %.2fx | per-row steady cost %.1f vs %.1f cycles\n\n",
                r2.cycles / r3.cycles, r2.rowgroup_cycles_per_row, r3.rowgroup_cycles_per_row);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const indexmac::SimError& e) {
    std::fprintf(stderr, "cnn_layer_demo: %s\n", e.what());
    return 1;
  }
}
