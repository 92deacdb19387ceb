#include "workloads/model_import.h"

#include <algorithm>
#include <cstring>
#include <fstream>

#include "cnn/conv_layer.h"
#include "common/error.h"
#include "common/json.h"
#include "workloads/workloads.h"

namespace indexmac::workloads {
namespace {

constexpr char kMagic[8] = {'I', 'M', 'A', 'C', 'T', 'N', 'S', 'R'};
constexpr std::size_t kHeaderBytes = 32;
constexpr std::uint32_t kVersion = 1;

std::uint32_t read_u32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t read_u64(const unsigned char* p) {
  return static_cast<std::uint64_t>(read_u32(p)) |
         static_cast<std::uint64_t>(read_u32(p + 4)) << 32;
}

/// IEEE binary16 -> binary32, bit-exact including subnormals/inf/NaN.
float f16_to_f32(std::uint16_t h) {
  const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u) << 16;
  std::uint32_t exp = (h >> 10) & 0x1fu;
  std::uint32_t man = h & 0x3ffu;
  std::uint32_t bits;
  if (exp == 0) {
    if (man == 0) {
      bits = sign;  // +-0
    } else {
      // Subnormal: renormalize into the f32 exponent range.
      exp = 113;  // 127 - 15 + 1
      while ((man & 0x400u) == 0) {
        man <<= 1;
        --exp;
      }
      bits = sign | (exp << 23) | ((man & 0x3ffu) << 13);
    }
  } else if (exp == 31) {
    bits = sign | 0x7f800000u | (man << 13);  // inf / NaN
  } else {
    bits = sign | ((exp + 112) << 23) | (man << 13);
  }
  float out;
  std::memcpy(&out, &bits, sizeof out);
  return out;
}

/// Rejects manifest objects carrying keys outside `allowed`, mirroring the
/// sweep-spec parser: silent typos must not silently change a model.
void check_keys(const JsonValue& obj, std::initializer_list<const char*> allowed,
                const std::string& what) {
  for (const auto& [key, value] : obj.members()) {
    bool known = false;
    for (const char* a : allowed)
      if (key == a) {
        known = true;
        break;
      }
    IMAC_CHECK(known, what + ": unknown key \"" + key + "\"");
  }
}

unsigned layer_uint(const JsonValue& layer, const char* key, const std::string& where) {
  const std::uint64_t v = layer.at(key).as_uint();
  IMAC_CHECK(v >= 1 && v <= 1u << 24, where + ": \"" + std::string(key) +
                                          "\" must be in [1, 2^24], got " + std::to_string(v));
  return static_cast<unsigned>(v);
}

/// Conv geometry shared by the conv and depthwise kinds. Depthwise layers
/// use the stacked-filter proxy (in_channels == 1), matching the
/// MobileNetV1 tables in cnn/models.cpp.
cnn::ConvLayer conv_geometry(const JsonValue& layer, LayerKind kind, const std::string& name,
                             const std::string& where) {
  cnn::ConvLayer conv;
  conv.name = name;
  conv.in_channels =
      kind == LayerKind::kDepthwise ? 1 : layer_uint(layer, "in_channels", where);
  conv.out_channels = kind == LayerKind::kDepthwise ? layer_uint(layer, "channels", where)
                                                    : layer_uint(layer, "out_channels", where);
  conv.kernel_h = layer_uint(layer, "kernel_h", where);
  conv.kernel_w = layer_uint(layer, "kernel_w", where);
  conv.stride = layer_uint(layer, "stride", where);
  conv.pad_h = static_cast<unsigned>(layer.at("pad_h").as_uint());
  conv.pad_w = static_cast<unsigned>(layer.at("pad_w").as_uint());
  conv.in_h = layer_uint(layer, "in_h", where);
  conv.in_w = layer_uint(layer, "in_w", where);
  return conv;
}

}  // namespace

sparse::DenseMatrix<float> load_tensor(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  IMAC_CHECK(in.good(), "tensor " + path + ": cannot open");
  std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  IMAC_CHECK(bytes.size() >= kHeaderBytes,
             "tensor " + path + ": truncated header (" + std::to_string(bytes.size()) +
                 " bytes)");
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  IMAC_CHECK(std::memcmp(p, kMagic, sizeof kMagic) == 0,
             "tensor " + path + ": bad magic (expected \"IMACTNSR\")");
  const std::uint32_t version = read_u32(p + 8);
  IMAC_CHECK(version == kVersion,
             "tensor " + path + ": unsupported version " + std::to_string(version));
  const std::uint32_t dtype = read_u32(p + 12);
  IMAC_CHECK(dtype <= 1, "tensor " + path + ": unknown dtype " + std::to_string(dtype) +
                             " (0 = f32, 1 = f16)");
  const std::uint64_t rows = read_u64(p + 16);
  const std::uint64_t cols = read_u64(p + 24);
  IMAC_CHECK(rows >= 1 && cols >= 1 && rows <= 1u << 24 && cols <= 1u << 24,
             "tensor " + path + ": bad shape " + std::to_string(rows) + "x" +
                 std::to_string(cols));
  const std::size_t elem_bytes = dtype == 0 ? 4 : 2;
  const std::size_t expected = kHeaderBytes + rows * cols * elem_bytes;
  IMAC_CHECK(bytes.size() == expected,
             "tensor " + path + ": size " + std::to_string(bytes.size()) +
                 " does not match header (expected " + std::to_string(expected) + " bytes)");
  sparse::DenseMatrix<float> out(rows, cols);
  const unsigned char* data = p + kHeaderBytes;
  for (std::size_t i = 0; i < rows * cols; ++i) {
    if (dtype == 0) {
      const std::uint32_t bits = read_u32(data + i * 4);
      float v;
      std::memcpy(&v, &bits, sizeof v);
      out.data()[i] = v;
    } else {
      const auto half = static_cast<std::uint16_t>(
          static_cast<std::uint16_t>(data[i * 2]) |
          static_cast<std::uint16_t>(data[i * 2 + 1]) << 8);
      out.data()[i] = f16_to_f32(half);
    }
  }
  return out;
}

SparsityProfile measure_profile(const sparse::DenseMatrix<float>& weights,
                                sparse::Sparsity pattern) {
  SparsityProfile out;
  out.pattern = pattern;
  out.measured = true;
  std::size_t nnz = 0, max_row_nnz = 0;
  std::size_t blocks = 0, conforming = 0;
  for (std::size_t r = 0; r < weights.rows(); ++r) {
    std::size_t row_nnz = 0;
    for (std::size_t c0 = 0; c0 < weights.cols(); c0 += pattern.m) {
      const std::size_t c1 = std::min<std::size_t>(c0 + pattern.m, weights.cols());
      std::size_t block_nnz = 0;
      for (std::size_t c = c0; c < c1; ++c)
        if (weights.at(r, c) != 0.0f) ++block_nnz;
      row_nnz += block_nnz;
      ++blocks;
      if (block_nnz <= pattern.n) ++conforming;
    }
    nnz += row_nnz;
    max_row_nnz = std::max(max_row_nnz, row_nnz);
  }
  out.density = static_cast<double>(nnz) /
                (static_cast<double>(weights.rows()) * static_cast<double>(weights.cols()));
  out.nm_conformity = blocks == 0 ? 1.0 : static_cast<double>(conforming) / blocks;
  // Padding share when every row is padded to the densest row's length.
  const std::size_t slots = weights.rows() * max_row_nnz;
  out.row_imbalance =
      slots == 0 ? 0.0 : static_cast<double>(slots - nnz) / static_cast<double>(slots);
  return out;
}

ModelGraph import_model(const std::string& dir) {
  const std::string manifest_path = dir + "/model.json";
  std::ifstream in(manifest_path);
  IMAC_CHECK(in.good(), "model import: cannot open " + manifest_path);
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  JsonValue doc;
  try {
    doc = parse_json(text);
  } catch (const SimError& e) {
    raise(manifest_path + ": " + e.what());
  }
  IMAC_CHECK(doc.is_object(), manifest_path + ": manifest must be a JSON object");
  check_keys(doc, {"format", "name", "display_name", "description", "sparsities", "layers"},
             manifest_path);
  const std::string format = doc.at("format").as_string();
  IMAC_CHECK(format == "imac-model/v1",
             manifest_path + ": unsupported format \"" + format + "\"");

  ModelGraph graph;
  graph.name = doc.at("name").as_string();
  graph.display_name = doc.get("display_name") != nullptr
                           ? doc.at("display_name").as_string()
                           : graph.name;
  graph.description = doc.get("description") != nullptr
                          ? doc.at("description").as_string()
                          : "imported checkpoint (" + dir + ")";
  graph.measured = true;
  for (const JsonValue& label : doc.at("sparsities").as_array())
    graph.default_sparsities.push_back(parse_sparsity(label.as_string()));
  IMAC_CHECK(!graph.default_sparsities.empty(),
             manifest_path + ": \"sparsities\" must name at least one pattern");

  for (const JsonValue& layer : doc.at("layers").as_array()) {
    IMAC_CHECK(layer.is_object(), manifest_path + ": every layer must be an object");
    const std::string name = layer.at("name").as_string();
    const std::string where = manifest_path + " layer \"" + name + "\"";
    const LayerKind kind = parse_layer_kind(layer.at("kind").as_string());

    LayerRecord record;
    record.name = name;
    record.kind = kind;
    record.repeat =
        layer.get("repeat") != nullptr ? layer_uint(layer, "repeat", where) : 1;
    const sparse::Sparsity pattern =
        layer.get("sparsity") != nullptr ? parse_sparsity(layer.at("sparsity").as_string())
                                         : graph.default_sparsities.front();

    std::size_t weight_rows = 0, weight_cols = 0;
    if (kind == LayerKind::kLinear || kind == LayerKind::kAttentionProj) {
      check_keys(layer,
                 {"name", "kind", "repeat", "sparsity", "weights", "out_features",
                  "in_features", "tokens"},
                 where);
      weight_rows = layer_uint(layer, "out_features", where);
      weight_cols = layer_uint(layer, "in_features", where);
      record.gemm = {weight_rows, weight_cols, layer_uint(layer, "tokens", where)};
    } else {
      check_keys(layer,
                 {"name", "kind", "repeat", "sparsity", "weights", "out_channels",
                  "in_channels", "channels", "kernel_h", "kernel_w", "stride", "pad_h",
                  "pad_w", "in_h", "in_w"},
                 where);
      IMAC_CHECK((layer.get("channels") != nullptr) == (kind == LayerKind::kDepthwise),
                 where + ": \"channels\" is the depthwise form; conv layers take "
                         "\"in_channels\"/\"out_channels\"");
      const cnn::ConvLayer conv = conv_geometry(layer, kind, name, where);
      try {
        record.gemm = conv.gemm();
      } catch (const SimError& e) {
        raise(where + ": " + e.what());
      }
      weight_rows = conv.out_channels;
      weight_cols = record.gemm.k;
    }

    const std::string weights_path = dir + "/" + layer.at("weights").as_string();
    const sparse::DenseMatrix<float> weights = load_tensor(weights_path);
    IMAC_CHECK(weights.rows() == weight_rows && weights.cols() == weight_cols,
               where + ": weights are " + std::to_string(weights.rows()) + "x" +
                   std::to_string(weights.cols()) + " but the declared geometry needs " +
                   std::to_string(weight_rows) + "x" + std::to_string(weight_cols));
    record.sparsity = measure_profile(weights, pattern);
    graph.layers.push_back(std::move(record));
  }

  try {
    graph.validate();
  } catch (const SimError& e) {
    raise(manifest_path + ": " + e.what());
  }
  return graph;
}

}  // namespace indexmac::workloads
