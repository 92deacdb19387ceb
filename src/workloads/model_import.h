// Checkpoint importer: builds a measured ModelGraph from a pruned weight
// checkpoint on disk, stdlib-only (no numpy/protobuf dependency).
//
// The normative spec of the manifest and tensor-blob formats also lives
// in docs/formats.md ("Model checkpoint"); keep the two in sync.
//
// Checkpoint layout — an npz-style directory:
//
//   model.json        manifest: model metadata + one entry per layer
//   <name>.tensor     one binary blob per layer's weight matrix
//
// Manifest (JSON subset, see common/json.h; unknown keys are errors):
//
//   {
//     "format": "imac-model/v1",
//     "name": "synth24",                 // registry key
//     "display_name": "Synth-2:4",       // optional (default: name)
//     "description": "...",              // optional
//     "sparsities": ["2:4"],             // default evaluation patterns
//     "layers": [
//       {"name": "fc1", "kind": "linear", "repeat": 2, "sparsity": "2:4",
//        "out_features": 16, "in_features": 64, "tokens": 24,
//        "weights": "fc1.tensor"},
//       {"name": "conv1", "kind": "conv",
//        "out_channels": 8, "in_channels": 4, "kernel_h": 3, "kernel_w": 3,
//        "stride": 1, "pad_h": 1, "pad_w": 1, "in_h": 6, "in_w": 6,
//        "weights": "conv1.tensor"},
//       {"name": "dw1", "kind": "depthwise",
//        "channels": 8, "kernel_h": 3, "kernel_w": 3, "stride": 1,
//        "pad_h": 1, "pad_w": 1, "in_h": 6, "in_w": 6,
//        "weights": "dw1.tensor"}
//     ]
//   }
//
// kind selects the weight-to-GEMM mapping: linear / attention-proj layers
// are [out_features x in_features] against a [in_features x tokens]
// activation block; conv layers im2col to [out_channels x in_ch*kh*kw]
// (cnn::ConvLayer geometry); depthwise layers use the stacked-filter proxy
// [channels x kh*kw]. "repeat" defaults to 1 and "sparsity" to the first
// manifest sparsity. Model and layer names follow check_name (model_ir.h).
//
// Tensor blob: a 32-byte header followed by row-major little-endian data.
//
//   offset  size  field
//   0       8     magic "IMACTNSR"
//   8       4     u32 version (1)
//   12      4     u32 dtype: 0 = f32, 1 = f16 (IEEE binary16)
//   16      8     u64 rows
//   24      8     u64 cols
//   32      ...   rows*cols elements, row-major
//
// The importer measures each layer's true sparsity against its declared
// N:M pattern — unstructured density, N:M block conformity, and row
// imbalance — and returns a ModelGraph ready for workloads::register_model.
#pragma once

#include <string>

#include "sparse/dense_matrix.h"
#include "workloads/model_ir.h"

namespace indexmac::workloads {

/// Loads one tensor blob; throws SimError naming the path on a missing
/// file, bad magic/version/dtype, or a size that contradicts the header.
[[nodiscard]] sparse::DenseMatrix<float> load_tensor(const std::string& path);

/// Measures a weight matrix against its declared N:M pattern: nonzero
/// density, fraction of M-aligned column blocks with at most N nonzeros,
/// and row imbalance: the fraction of slots that would be padding if every
/// row were padded to the densest row's nonzero count (ELLPACK's padding).
[[nodiscard]] SparsityProfile measure_profile(const sparse::DenseMatrix<float>& weights,
                                              sparse::Sparsity pattern);

/// Imports a checkpoint directory into a validated, measured ModelGraph.
/// Throws SimError on a malformed manifest, missing or inconsistent
/// tensors, or weight shapes that contradict the declared geometry.
[[nodiscard]] ModelGraph import_model(const std::string& dir);

}  // namespace indexmac::workloads
