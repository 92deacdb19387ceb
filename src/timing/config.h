// Configuration of the simulated processor (Table I of the paper).
//
// The timing model replaces the authors' gem5 "1bDV" decoupled-vector
// setup [24]: an 8-way out-of-order scalar core plus a 512-bit, 16-lane
// decoupled vector engine whose load/store queues talk directly to the
// shared L2.
#pragma once

#include <compare>
#include <string>

#include "mem/memory_system.h"

namespace indexmac::timing {

/// Scalar out-of-order core parameters (Table I, "Scalar core").
struct ScalarCoreConfig {
  unsigned fetch_width = 8;        ///< instructions fetched per cycle
  unsigned issue_width = 8;        ///< 8-way issue out-of-order
  unsigned commit_width = 8;
  unsigned rob_entries = 60;       ///< 60-entry ROB
  unsigned lsq_entries = 16;       ///< 16-entry LSQ
  unsigned mispredict_penalty = 8; ///< front-end refill after a flush
  unsigned alu_latency = 1;
  unsigned mul_latency = 3;

  friend auto operator<=>(const ScalarCoreConfig&, const ScalarCoreConfig&) = default;
};

/// Decoupled vector engine parameters (Table I, "Vector engine").
struct VectorEngineConfig {
  unsigned lanes = 16;             ///< 32-bit elements x 16 execution lanes
  unsigned queue_entries = 16;     ///< vector instruction queue depth
  unsigned load_queues = 16;       ///< outstanding vector loads to L2
  unsigned store_queues = 16;      ///< outstanding vector stores to L2
  unsigned mac_latency = 5;        ///< vfmacc / vmacc / vindexmac pipeline
  unsigned alu_latency = 3;        ///< vadd and friends
  unsigned slide_latency = 2;      ///< vslide1down / vslidedown
  unsigned move_latency = 2;       ///< vmv family (engine-side)
  unsigned to_scalar_latency = 3;  ///< result transfer back to the scalar core
  unsigned dispatch_latency = 2;   ///< scalar core -> engine queue transfer

  friend auto operator<=>(const VectorEngineConfig&, const VectorEngineConfig&) = default;
};

/// Whole-processor configuration. Sweep specs change it only through the
/// dotted `"processor"` overrides core/sweep.cpp lists; `fetch_width` and
/// `commit_width` are not among them, so a spec's "4-issue" core sets
/// `scalar.issue_width` alone (bench/specs/ablation_processor_issue4.json).
struct ProcessorConfig {
  ScalarCoreConfig scalar;
  VectorEngineConfig vector;
  MemHierConfig memory;

  /// Human-readable rendition of the configuration (examples/table1_config).
  [[nodiscard]] std::string describe() const;

  friend auto operator<=>(const ProcessorConfig&, const ProcessorConfig&) = default;
};

}  // namespace indexmac::timing
