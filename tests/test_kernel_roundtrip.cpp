// Fuzz-style assembler round-trip over every generated kernel: each
// program the kernel generators emit is disassembled to text, re-assembled
// with the text assembler, and must come back with identical encodings.
// This pins the text assembler to the full vocabulary the generators
// actually use (all algorithms x dataflows x unrolls x element types,
// markers included), not just the hand-picked instructions of
// test_text_assembler.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "asm/text_assembler.h"
#include "kernels/kernels.h"
#include "workloads/workloads.h"

namespace indexmac::kernels {
namespace {

/// Disassembles `program`, re-assembles the text at the same base, and
/// expects bit-identical instruction words.
void expect_round_trip(const Program& program, const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_GT(program.size(), 0u);
  const std::string text = program_to_source(program);
  const Program again = assemble_text(text, program.base());
  ASSERT_EQ(again.size(), program.size());
  EXPECT_EQ(again.words(), program.words());
}

SpmmLayout layout_for(const GemmDims& dims, sparse::Sparsity sp, unsigned tile_rows) {
  AddressAllocator alloc;
  return make_layout(dims, sp, tile_rows, alloc);
}

TEST(KernelRoundTrip, IndexmacAllUnrollsSparsitiesMarkers) {
  const GemmDims dims{16, 64, 40};  // full strips + ragged tail
  for (const auto sp : {sparse::kSparsity14, sparse::kSparsity24})
    for (const unsigned unroll : {1u, 2u, 4u})
      for (const bool markers : {false, true}) {
        KernelOptions options{.unroll = unroll, .emit_markers = markers};
        const SpmmLayout layout = layout_for(dims, sp, 16);
        expect_round_trip(emit_indexmac_kernel(layout, options),
                          "indexmac u" + std::to_string(unroll) + " " + std::to_string(sp.n) +
                              ":" + std::to_string(sp.m) + (markers ? " markers" : ""));
      }
}

TEST(KernelRoundTrip, Algorithm4AllUnrollsSparsitiesMarkers) {
  const GemmDims dims{16, 64, 40};  // full strips + ragged tail
  for (const auto sp : {sparse::kSparsity14, sparse::kSparsity24})
    for (const unsigned unroll : {1u, 2u, 4u})
      for (const bool markers : {false, true}) {
        KernelOptions options{.unroll = unroll, .emit_markers = markers};
        const SpmmLayout layout = layout_for(dims, sp, 16);
        expect_round_trip(emit_algorithm4(layout, options),
                          "algorithm4 u" + std::to_string(unroll) + " " + std::to_string(sp.n) +
                              ":" + std::to_string(sp.m) + (markers ? " markers" : ""));
      }
}

TEST(KernelRoundTrip, Algorithm4IntegerLanesAndOddSlots) {
  KernelOptions options{.unroll = 2, .elem = ElemType::kI32};
  const SpmmLayout layout = layout_for({8, 32, 16}, sparse::kSparsity14, 16);
  expect_round_trip(emit_algorithm4(layout, options), "algorithm4 i32");
  // 3 slots per (row, k-tile): dual MAC plus trailing packed single.
  KernelOptions odd{.unroll = 2};
  const SpmmLayout odd_layout = layout_for({8, 32, 16}, sparse::Sparsity{3, 8}, 8);
  expect_round_trip(emit_algorithm4(odd_layout, odd), "algorithm4 odd slots");
}

TEST(KernelRoundTrip, SsrSparsitiesAndMarkers) {
  // Pins the text assembler to the SSR vocabulary the generator emits
  // (ssrcfg/ssren and the operand-less streaming MACs).
  const GemmDims dims{16, 64, 40};  // full strips + ragged tail
  for (const auto sp : {sparse::kSparsity14, sparse::kSparsity24})
    for (const bool markers : {false, true}) {
      KernelOptions options{.unroll = 1, .emit_markers = markers};
      const SpmmLayout layout = layout_for(dims, sp, 16);
      expect_round_trip(emit_algorithm_ssr(layout, options),
                        "ssr " + std::to_string(sp.n) + ":" + std::to_string(sp.m) +
                            (markers ? " markers" : ""));
    }
  KernelOptions i32{.unroll = 1, .elem = ElemType::kI32};
  expect_round_trip(emit_algorithm_ssr(layout_for({8, 32, 16}, sparse::kSparsity14, 8), i32),
                    "ssr i32");
}

TEST(KernelRoundTrip, RowwiseAllDataflowsAndUnrolls) {
  const GemmDims dims{16, 64, 40};
  for (const auto df :
       {Dataflow::kAStationary, Dataflow::kBStationary, Dataflow::kCStationary})
    for (const unsigned unroll : {1u, 2u, 4u}) {
      KernelOptions options{.unroll = unroll, .dataflow = df};
      const SpmmLayout layout = layout_for(dims, sparse::kSparsity24, 16);
      expect_round_trip(emit_rowwise_spmm_kernel(layout, options),
                        std::string("rowwise df=") + std::to_string(static_cast<int>(df)) +
                            " u" + std::to_string(unroll));
    }
}

TEST(KernelRoundTrip, RowwiseIntegerLanes) {
  KernelOptions options{.unroll = 2, .elem = ElemType::kI32};
  const SpmmLayout layout = layout_for({8, 32, 16}, sparse::kSparsity14, 16);
  expect_round_trip(emit_rowwise_spmm_kernel(layout, options), "rowwise i32");
  options.elem = ElemType::kF32;
  expect_round_trip(emit_rowwise_spmm_kernel(layout, options), "rowwise f32");
}

TEST(KernelRoundTrip, DenseBaseline) {
  AddressAllocator alloc;
  const SpmmLayout layout = make_layout({8, 32, 24}, sparse::kSparsity14, 16, alloc);
  const std::uint64_t a_dense = alloc.alloc(8 * 32 * 4);
  for (const auto elem : {ElemType::kF32, ElemType::kI32}) {
    KernelOptions options{.unroll = 1, .elem = elem};
    expect_round_trip(emit_dense_rowwise_kernel(layout, a_dense, 32, options),
                      elem == ElemType::kF32 ? "dense f32" : "dense i32");
  }
}

TEST(KernelRoundTrip, RegistryShapesSurviveGeneration) {
  // Shrunk versions of every registry suite's first shapes still produce
  // round-trippable kernels (guards new suites against emitting shapes the
  // generators cannot encode).
  const kernels::GemmDims cap{16, 64, 48};
  for (const std::string& name : workloads::suite_names()) {
    const std::vector<workloads::LayerRecord>& layers = workloads::model_graph(name).layers;
    const std::size_t take = std::min<std::size_t>(2, layers.size());
    for (std::size_t i = 0; i < take; ++i) {
      const GemmDims dims = workloads::shrink(layers[i].gemm, cap);
      const SpmmLayout layout = layout_for(dims, sparse::kSparsity24, 16);
      KernelOptions options{.unroll = 4};
      expect_round_trip(emit_indexmac_kernel(layout, options), name + "/" + layers[i].name);
    }
  }
}

}  // namespace
}  // namespace indexmac::kernels
