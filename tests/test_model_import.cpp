// Checkpoint importer: IMACTNSR tensor decoding (f32/f16, bit-exact),
// sparsity measurement against the declared N:M pattern, manifest
// validation, and the import -> register -> sweep pipeline that makes a
// checkpoint-derived model a first-class workload suite.
#include "workloads/model_import.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <tuple>

#include "core/sweep.h"
#include "workloads/workloads.h"

namespace indexmac::workloads {
namespace {

namespace fs = std::filesystem;

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void put_u64(std::string& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

std::string tensor_header(std::uint32_t version, std::uint32_t dtype, std::uint64_t rows,
                          std::uint64_t cols) {
  std::string out = "IMACTNSR";
  put_u32(out, version);
  put_u32(out, dtype);
  put_u64(out, rows);
  put_u64(out, cols);
  return out;
}

std::string f32_blob(std::uint64_t rows, std::uint64_t cols, const std::vector<float>& values) {
  std::string out = tensor_header(1, 0, rows, cols);
  for (const float v : values) {
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    put_u32(out, bits);
  }
  return out;
}

std::string f16_blob(std::uint64_t rows, std::uint64_t cols,
                     const std::vector<std::uint16_t>& halves) {
  std::string out = tensor_header(1, 1, rows, cols);
  for (const std::uint16_t h : halves) {
    out.push_back(static_cast<char>(h & 0xff));
    out.push_back(static_cast<char>(h >> 8));
  }
  return out;
}

void write_file(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Fresh scratch directory per test (TempDir is shared by the binary).
fs::path scratch(const char* name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

TEST(LoadTensor, ReadsF32RowMajor) {
  const fs::path dir = scratch("load_f32");
  write_file(dir / "t.tensor", f32_blob(2, 3, {1, 2, 3, 4, 5, 6}));
  const auto m = load_tensor((dir / "t.tensor").string());
  ASSERT_EQ(m.rows(), 2u);
  ASSERT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.at(0, 0), 1.0f);
  EXPECT_EQ(m.at(0, 2), 3.0f);
  EXPECT_EQ(m.at(1, 0), 4.0f);
  EXPECT_EQ(m.at(1, 2), 6.0f);
}

TEST(LoadTensor, DecodesF16BitExactly) {
  // 1.0, 0.25, -1.0, smallest subnormal 2^-24, max finite 65504, -0.0.
  const fs::path dir = scratch("load_f16");
  write_file(dir / "t.tensor",
             f16_blob(1, 6, {0x3c00, 0x3400, 0xbc00, 0x0001, 0x7bff, 0x8000}));
  const auto m = load_tensor((dir / "t.tensor").string());
  EXPECT_EQ(m.at(0, 0), 1.0f);
  EXPECT_EQ(m.at(0, 1), 0.25f);
  EXPECT_EQ(m.at(0, 2), -1.0f);
  EXPECT_EQ(m.at(0, 3), std::ldexp(1.0f, -24));
  EXPECT_EQ(m.at(0, 4), 65504.0f);
  EXPECT_EQ(m.at(0, 5), 0.0f);
  EXPECT_TRUE(std::signbit(m.at(0, 5)));
}

TEST(LoadTensor, RejectsMalformedBlobs) {
  const fs::path dir = scratch("load_bad");
  EXPECT_THROW((void)load_tensor((dir / "missing.tensor").string()), SimError);

  std::string bad_magic = f32_blob(1, 1, {1});
  bad_magic[0] = 'X';
  write_file(dir / "magic.tensor", bad_magic);
  EXPECT_THROW((void)load_tensor((dir / "magic.tensor").string()), SimError);

  write_file(dir / "version.tensor", tensor_header(2, 0, 1, 1) + std::string(4, '\0'));
  EXPECT_THROW((void)load_tensor((dir / "version.tensor").string()), SimError);

  write_file(dir / "dtype.tensor", tensor_header(1, 7, 1, 1) + std::string(4, '\0'));
  EXPECT_THROW((void)load_tensor((dir / "dtype.tensor").string()), SimError);

  write_file(dir / "short.tensor", std::string("IMACTNSR\x01"));
  EXPECT_THROW((void)load_tensor((dir / "short.tensor").string()), SimError);

  // Header promises 2x2 f32 but only 3 elements follow.
  write_file(dir / "trunc.tensor", tensor_header(1, 0, 2, 2) + std::string(12, '\0'));
  EXPECT_THROW((void)load_tensor((dir / "trunc.tensor").string()), SimError);

  write_file(dir / "zero.tensor", tensor_header(1, 0, 0, 4));
  EXPECT_THROW((void)load_tensor((dir / "zero.tensor").string()), SimError);
}

TEST(MeasureProfile, ComputesDensityConformityAndImbalance) {
  // 2x8 against 2:4 — row 0: block 0 holds 2 nnz (conforming), block 1
  // holds 3 (violating); row 1: 1 nnz then an empty block.
  sparse::DenseMatrix<float> w(2, 8);
  w.at(0, 0) = 1;
  w.at(0, 2) = 1;
  w.at(0, 4) = 1;
  w.at(0, 5) = 1;
  w.at(0, 7) = 1;
  w.at(1, 3) = 1;
  const SparsityProfile p = measure_profile(w, sparse::kSparsity24);
  EXPECT_TRUE(p.measured);
  EXPECT_EQ(p.pattern, sparse::kSparsity24);
  EXPECT_DOUBLE_EQ(p.density, 6.0 / 16.0);
  EXPECT_DOUBLE_EQ(p.nm_conformity, 3.0 / 4.0);
  // ELLPACK pads both rows to the densest row's 5 slots: 4 of 10 wasted.
  EXPECT_DOUBLE_EQ(p.row_imbalance, 4.0 / 10.0);
}

TEST(MeasureProfile, ConformingMatrixScoresPerfectly) {
  // Exactly 1:4 — every block one nnz, every row equally long.
  sparse::DenseMatrix<float> w(3, 8);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t b = 0; b < 2; ++b) w.at(r, b * 4 + r) = 1;
  const SparsityProfile p = measure_profile(w, sparse::kSparsity14);
  EXPECT_DOUBLE_EQ(p.density, 0.25);
  EXPECT_DOUBLE_EQ(p.nm_conformity, 1.0);
  EXPECT_DOUBLE_EQ(p.row_imbalance, 0.0);
  // An all-zero matrix has no slots to pad: its imbalance is 0, not 0/0.
  const SparsityProfile empty = measure_profile(sparse::DenseMatrix<float>(3, 8),
                                                sparse::kSparsity14);
  EXPECT_DOUBLE_EQ(empty.density, 0.0);
  EXPECT_DOUBLE_EQ(empty.nm_conformity, 1.0);
  EXPECT_DOUBLE_EQ(empty.row_imbalance, 0.0);
}

/// A minimal valid checkpoint: one linear layer, 2:4-conforming weights.
fs::path write_linear_checkpoint(const char* dirname, const std::string& model_name) {
  const fs::path dir = scratch(dirname);
  // 4x8, one nnz per 2:4 block: density 0.25.
  std::vector<float> w(4 * 8, 0.0f);
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t b = 0; b < 2; ++b) w[r * 8 + b * 4 + r % 4] = 1.0f;
  write_file(dir / "fc.tensor", f32_blob(4, 8, w));
  write_file(dir / "model.json", R"({
    "format": "imac-model/v1",
    "name": ")" + model_name + R"(",
    "sparsities": ["2:4"],
    "layers": [
      {"name": "fc", "kind": "linear", "repeat": 3,
       "out_features": 4, "in_features": 8, "tokens": 16,
       "weights": "fc.tensor"}
    ]
  })");
  return dir;
}

TEST(ImportModel, BuildsMeasuredGraph) {
  const fs::path dir = write_linear_checkpoint("import_ok", "imptest");
  const ModelGraph graph = import_model(dir.string());
  EXPECT_EQ(graph.name, "imptest");
  EXPECT_TRUE(graph.measured);
  ASSERT_EQ(graph.layers.size(), 1u);
  const LayerRecord& fc = graph.layers[0];
  EXPECT_EQ(fc.kind, LayerKind::kLinear);
  EXPECT_EQ(fc.repeat, 3u);
  EXPECT_EQ(fc.gemm.rows_a, 4u);
  EXPECT_EQ(fc.gemm.k, 8u);
  EXPECT_EQ(fc.gemm.cols_b, 16u);
  EXPECT_TRUE(fc.sparsity.measured);
  EXPECT_DOUBLE_EQ(fc.sparsity.density, 0.25);
  EXPECT_DOUBLE_EQ(fc.sparsity.nm_conformity, 1.0);
  EXPECT_EQ(graph.layer_count(), 3u);
  EXPECT_EQ(graph.total_macs(), 3ull * 4 * 8 * 16);
}

TEST(ImportModel, ConvGeometryMapsThroughIm2col) {
  const fs::path dir = scratch("import_conv");
  // 8 out-channels, 2 in-channels, 3x3 @ 6x6 pad 1: GEMM 8 x 18 x 36.
  write_file(dir / "c.tensor", f32_blob(8, 18, std::vector<float>(8 * 18, 1.0f)));
  write_file(dir / "model.json", R"({
    "format": "imac-model/v1",
    "name": "impconv",
    "sparsities": ["2:4"],
    "layers": [
      {"name": "c", "kind": "conv", "out_channels": 8, "in_channels": 2,
       "kernel_h": 3, "kernel_w": 3, "stride": 1, "pad_h": 1, "pad_w": 1,
       "in_h": 6, "in_w": 6, "weights": "c.tensor"}
    ]
  })");
  const ModelGraph graph = import_model(dir.string());
  ASSERT_EQ(graph.layers.size(), 1u);
  EXPECT_EQ(graph.layers[0].kind, LayerKind::kConv);
  EXPECT_EQ(graph.layers[0].gemm.rows_a, 8u);
  EXPECT_EQ(graph.layers[0].gemm.k, 18u);
  EXPECT_EQ(graph.layers[0].gemm.cols_b, 36u);
  // All-ones weights: dense; the four full 2:4 blocks per row are
  // over-full, only the 2-wide tail block (18 % 4) conforms trivially.
  EXPECT_DOUBLE_EQ(graph.layers[0].sparsity.density, 1.0);
  EXPECT_DOUBLE_EQ(graph.layers[0].sparsity.nm_conformity, 1.0 / 5.0);
}

TEST(ImportModel, RejectsMalformedManifests) {
  const auto import_with = [](const char* dirname, const std::string& manifest,
                              std::uint64_t rows = 4, std::uint64_t cols = 8) {
    const fs::path dir = scratch(dirname);
    write_file(dir / "fc.tensor",
               f32_blob(rows, cols, std::vector<float>(rows * cols, 1.0f)));
    write_file(dir / "model.json", manifest);
    return import_model(dir.string());
  };
  const char* ok_layer = R"({"name": "fc", "kind": "linear",
    "out_features": 4, "in_features": 8, "tokens": 16, "weights": "fc.tensor"})";

  EXPECT_THROW((void)import_model(scratch("imp_nodir").string() + "/nope"), SimError);
  // Wrong format tag.
  EXPECT_THROW((void)import_with("imp_fmt", std::string(R"({"format": "imac-model/v9",
    "name": "x", "sparsities": ["2:4"], "layers": [)") + ok_layer + "]}"),
               SimError);
  // Unknown top-level and layer-level keys are typo errors, not ignored.
  EXPECT_THROW((void)import_with("imp_topkey", std::string(R"({"format": "imac-model/v1",
    "name": "x", "sparsitees": ["2:4"], "layers": [)") + ok_layer + "]}"),
               SimError);
  EXPECT_THROW((void)import_with("imp_laykey", R"({"format": "imac-model/v1",
    "name": "x", "sparsities": ["2:4"], "layers": [
      {"name": "fc", "kind": "linear", "out_features": 4, "in_features": 8,
       "tokens": 16, "wieghts": "fc.tensor"}]})"),
               SimError);
  EXPECT_THROW((void)import_with("imp_kind", R"({"format": "imac-model/v1",
    "name": "x", "sparsities": ["2:4"], "layers": [
      {"name": "fc", "kind": "dropout", "out_features": 4, "in_features": 8,
       "tokens": 16, "weights": "fc.tensor"}]})"),
               SimError);
  // Tensor shape contradicting the declared geometry.
  EXPECT_THROW((void)import_with("imp_shape", std::string(R"({"format": "imac-model/v1",
    "name": "x", "sparsities": ["2:4"], "layers": [)") + ok_layer + "]}",
                                 /*rows=*/4, /*cols=*/9),
               SimError);
  // Depthwise takes "channels", not "in_channels"/"out_channels".
  EXPECT_THROW((void)import_with("imp_dw", R"({"format": "imac-model/v1",
    "name": "x", "sparsities": ["2:4"], "layers": [
      {"name": "fc", "kind": "depthwise", "out_channels": 4, "in_channels": 1,
       "kernel_h": 3, "kernel_w": 3, "stride": 1, "pad_h": 1, "pad_w": 1,
       "in_h": 6, "in_w": 6, "weights": "fc.tensor"}]})"),
               SimError);
  // No sparsities at all.
  EXPECT_THROW((void)import_with("imp_nosp", std::string(R"({"format": "imac-model/v1",
    "name": "x", "sparsities": [], "layers": [)") + ok_layer + "]}"),
               SimError);
  // Sweep reports write model and layer names unquoted, so each must be
  // one or more ASCII letters, digits, '.', '_' or '-'; the error names it.
  const std::tuple<const char*, const char*, const char*> bad_names[] = {
      {"a b", "fc", R"(model name "a b")"},
      {R"(a\nb)", "fc", "model name \"a\nb\""},
      {"x", "fc,1", R"(model "x" layer name "fc,1")"},
      {"x", "", R"(model "x" layer name "")"}};
  for (const auto& [model, layer, message] : bad_names) {
    SCOPED_TRACE(message);
    try {
      (void)import_with("imp_name", std::string(R"({"format": "imac-model/v1", "name": ")") +
                                        model + R"(", "sparsities": ["2:4"], "layers": [
        {"name": ")" + layer + R"(", "kind": "linear", "out_features": 4,
         "in_features": 8, "tokens": 16, "weights": "fc.tensor"}]})");
      ADD_FAILURE() << "accepted";
    } catch (const SimError& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos) << e.what();
    }
  }
}

TEST(ImportModel, RegisteredModelIsSweepable) {
  // The tentpole acceptance path in-process: import -> register -> the
  // model behaves exactly like a built-in suite, including sweeping.
  const fs::path dir = write_linear_checkpoint("import_sweep", "impsweep");
  register_model(import_model(dir.string()));
  ASSERT_TRUE(has_suite("impsweep"));
  const ModelGraph& graph = model_graph("impsweep");
  ASSERT_EQ(graph.layers.size(), 1u);
  EXPECT_EQ(graph.layers[0].repeat, 3u);

  // Duplicate registration must be rejected (first registration wins).
  EXPECT_THROW(register_model(import_model(dir.string())), SimError);

  const core::SweepSpec spec = core::parse_sweep_spec(R"({
    "name": "imp", "workloads": ["impsweep"],
    "algorithms": ["rowwise", "indexmac"], "mode": "exact"})");
  const core::SweepReport report = core::run_sweep(spec, core::expand_sweep(spec), /*threads=*/2);
  ASSERT_EQ(report.rows.size(), 2u);  // 1 shape x 1 sparsity x 2 algorithms
  for (const core::SweepRow& row : report.rows) {
    EXPECT_EQ(row.point.suite, "impsweep");
    EXPECT_EQ(row.point.count, 3u);
    EXPECT_GT(row.cycles, 0.0);
  }
}

}  // namespace
}  // namespace indexmac::workloads
