// Cycle-level timing model of the decoupled vector processor (Table I).
//
// Model style: execution-driven timestamp dataflow on the correct path.
// Every pc slot is bound once, at construction, to the timing handler of
// its StaticInstInfo class with registers and latencies resolved, the way
// fsim::Machine binds its functional handlers. Each handler reads the
// pre-execution operands its class needs (addresses, vl, indirect VRF
// sources, stream positions), steps the Machine, and then computes
// fetch/dispatch/issue/complete/commit cycles subject to
//   * front-end width and branch-mispredict refill (static BTFNT predictor),
//   * ROB and LSQ occupancy,
//   * 8-wide issue and per-op execution latencies on the scalar side,
//   * the decoupled vector path: vector instructions are shipped, in
//     program order and only past resolved branches (squash-free dispatch,
//     as decoupled designs require for vector architectural state), into a
//     16-entry vector instruction queue together with their scalar operand
//     values; the engine executes in order, one operation per cycle of
//     lane occupancy, with register-granular scoreboarding;
//   * vector loads/stores access the banked L2 through 16 load / 16 store
//     queues (no L1 on the vector path), with cache/DRAM contention from
//     mem::MemorySystem;
//   * vector->scalar moves (vmv.x.s / vfmv.f.s) return through the engine,
//     stalling dependent scalar work - the round trip both algorithms pay
//     per non-zero (twice for Row-Wise-SpMM, once for vindexmac).
//
// See docs/architecture.md, "Deliberate simplifications and substitutions".
#pragma once

#include <cstdint>
#include <vector>

#include "asm/program.h"
#include "mem/main_memory.h"
#include "mem/memory_system.h"
#include "timing/config.h"

namespace indexmac::timing {

/// Commit-time marker event (see kernels::MarkerId).
struct MarkerEvent {
  std::int32_t id = 0;
  std::uint64_t cycle = 0;        ///< commit cycle of the marker
  std::uint64_t instructions = 0; ///< instructions committed so far
};

/// Where vector dispatch time goes: for each vector instruction the model
/// attributes the wait between earliest-possible and actual send to its
/// binding constraint. Useful for understanding *why* a kernel is slow.
struct VectorDispatchStalls {
  std::uint64_t scalar_operand = 0;  ///< waiting on a scalar source (round trips!)
  std::uint64_t branch_shadow = 0;   ///< waiting for older branches to resolve
  std::uint64_t queue_full = 0;      ///< vector instruction queue had no slot
  std::uint64_t bandwidth = 0;       ///< one-per-cycle send port busy

  [[nodiscard]] std::uint64_t total() const {
    return scalar_operand + branch_shadow + queue_full + bandwidth;
  }
  friend bool operator==(const VectorDispatchStalls&, const VectorDispatchStalls&) = default;
};

/// Aggregate results of one timed execution.
struct TimingStats {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t scalar_instructions = 0;
  std::uint64_t vector_instructions = 0;
  std::uint64_t vector_loads = 0;
  std::uint64_t vector_stores = 0;
  std::uint64_t vector_macs = 0;          ///< vfmacc/vmacc/v(f)indexmac
  std::uint64_t vector_to_scalar_moves = 0;
  std::uint64_t branch_mispredicts = 0;
  VectorDispatchStalls dispatch_stalls;
  MemStats mem;

  [[nodiscard]] double ipc() const {
    return cycles == 0 ? 0.0 : static_cast<double>(instructions) / static_cast<double>(cycles);
  }
  friend bool operator==(const TimingStats&, const TimingStats&) = default;
};

/// Timing simulator for one program execution.
class TimingSim {
 public:
  TimingSim(const Program& program, MainMemory& memory, const ProcessorConfig& config);
  /// Would keep a dangling Program: the simulator holds a reference.
  TimingSim(Program&&, MainMemory&, const ProcessorConfig&) = delete;

  /// Runs to completion (ebreak/ecall). Throws SimError if the instruction
  /// budget is exhausted first (runaway program).
  const TimingStats& run(std::uint64_t max_instructions = 2'000'000'000);

  [[nodiscard]] const TimingStats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<MarkerEvent>& markers() const { return markers_; }
  [[nodiscard]] const ProcessorConfig& config() const { return config_; }

 private:
  const Program& program_;
  MainMemory& memory_;
  ProcessorConfig config_;
  TimingStats stats_;
  std::vector<MarkerEvent> markers_;
  bool ran_ = false;
};

}  // namespace indexmac::timing
