// Functional (architectural) simulator: executes programs instruction by
// instruction with exact RV64+RVV-subset semantics. It is the golden model
// the timing simulator is validated against, and the engine behind kernel
// correctness tests.
//
// Every pc slot of the (immutable) Program is bound once, at construction,
// to its op's handler with the operands resolved up front: sign-extended
// immediates, pc-relative branch and jump targets, link values and halt
// stop reasons. step() then calls the slot's handler through a plain
// function pointer. This table is the only implementation of instruction
// semantics: the timing model's per-slot handlers and `imac_run run` both
// step through it. step() is inline so that the timing handlers inline it;
// its fault path stays out of line. Nothing outside the Machine writes its
// architectural state.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "asm/program.h"
#include "isa/isa.h"
#include "mem/main_memory.h"

namespace indexmac {

/// Architectural register state. f registers hold raw fp32 bits in the low
/// word (the subset has no fp64); v registers hold kVlMax 32-bit elements.
struct ArchState {
  std::uint64_t pc = 0;
  std::array<std::uint64_t, isa::kNumXRegs> x{};
  std::array<std::uint32_t, isa::kNumFRegs> f{};
  std::array<std::array<std::uint32_t, isa::kVlMax>, isa::kNumVRegs> v{};
  std::uint32_t vl = 0;

  [[nodiscard]] float velem_f32(unsigned reg, unsigned lane) const;
};

/// One SSR address-generation state machine (Algorithm 5): a configured
/// base/length window over memory that the streaming MAC pops 32-bit words
/// from, wrapping at `count`. Architectural state — the timing model's
/// streaming-MAC handler reads it to resolve stream operands pre-execution.
struct SsrStream {
  std::uint64_t base = 0;  ///< first word address
  std::uint32_t count = 0; ///< words before wrap
  std::uint32_t pos = 0;   ///< next word index (< count when enabled)
  bool enabled = false;
};

/// Why a run loop stopped.
enum class StopReason { kRunning, kEbreak, kEcall, kMaxSteps };

/// Renders "pc 0x#### (`<disassembly>`)" for error messages, or a note that
/// the pc lies outside the program. Used by both simulators so faults carry
/// the faulting instruction, not just a bare message.
[[nodiscard]] std::string describe_pc(const Program& program, std::uint64_t pc);

/// One scalar core + vector engine executing a Program against MainMemory.
/// The Program must outlive the Machine.
class Machine {
 public:
  Machine(const Program& program, MainMemory& memory);
  /// Would keep a dangling Program: the machine holds a reference.
  Machine(Program&&, MainMemory&) = delete;

  /// Executes a single instruction; returns the stop reason (kRunning if
  /// execution may continue). Throws SimError on malformed execution (pc
  /// outside the program, an SSR pop from a disabled or empty stream) with
  /// the pc left on the faulting instruction; vindexmac with vl==0 never
  /// traps — the instruction simply does nothing.
  StopReason step() {
    // Explicit out-of-range fault: a pc below the program base (stray jump
    // through a cleared register, a negative branch out of the prologue)
    // must not reach the slot computation via unsigned wraparound of
    // pc - base_.
    const std::uint64_t pc = state_.pc;
    if (pc < base_ || pc - base_ >= code_bytes_ || ((pc - base_) & 3) != 0) [[unlikely]]
      left_program();
    const Slot& op = slots_[(pc - base_) >> 2];
    // The handler sees the pre-instruction pc (fault text); a
    // throwing handler leaves it on the faulting instruction.
    state_.pc = op.fn(*this, op);
    state_.x[0] = 0;  // x0 is hardwired to zero
    ++retired_;
    return op.stop;
  }

  /// Runs until ebreak/ecall or `max_steps`. Returns the stop reason.
  StopReason run(std::uint64_t max_steps = 100'000'000);

  [[nodiscard]] const ArchState& state() const { return state_; }
  [[nodiscard]] const Program& program() const { return program_; }
  [[nodiscard]] std::uint64_t instructions_retired() const { return retired_; }
  /// The four SSR address-generation state machines (index 0..3).
  [[nodiscard]] const std::array<SsrStream, 4>& ssr() const { return ssr_; }
  /// The backing memory — the timing model needs a pre-execution peek at
  /// the word the index stream will deliver.
  [[nodiscard]] const MainMemory& memory() const { return memory_; }

 private:
  struct Exec;  // the per-op handlers and their binder (machine.cpp)

  /// One pc slot, bound at construction. A handler executes the slot's
  /// instruction and returns the pc of the next one.
  struct Slot {
    std::uint64_t (*fn)(Machine&, const Slot&) = nullptr;
    std::uint8_t rd = 0, rs1 = 0, rs2 = 0;
    StopReason stop = StopReason::kRunning;  ///< kEbreak/kEcall on the halt ops
    std::int64_t imm = 0;      ///< sign-extended immediate
    std::uint64_t next = 0;    ///< pc + 4: fall-through and link value
    std::uint64_t target = 0;  ///< branch/jal target; lui/auipc result
  };

  /// Pops the next 32-bit word from stream `sid`, advancing and wrapping at
  /// the configured length. SimError if the stream is disabled or empty.
  std::uint32_t ssr_pop(unsigned sid);

  /// step()'s fault for a pc outside the program (SimError naming the pc).
  [[noreturn, gnu::noinline, gnu::cold]] void left_program() const;

  /// Raises, before memory is touched, unless MainMemory::in_bounds(addr,
  /// bytes).
  void check_range(std::uint64_t addr, std::uint64_t bytes) const {
    if (!MainMemory::in_bounds(addr, bytes)) [[unlikely]] address_fault(addr, bytes);
  }
  /// check_range's fault: SimError naming the access and the pc.
  [[noreturn, gnu::noinline, gnu::cold]] void address_fault(std::uint64_t addr,
                                                            std::uint64_t bytes) const;

  const Program& program_;
  MainMemory& memory_;
  std::uint64_t base_ = 0;
  std::uint64_t code_bytes_ = 0;
  std::vector<Slot> slots_;  ///< one per pc slot of program_
  ArchState state_;
  std::array<SsrStream, 4> ssr_{};
  std::uint64_t retired_ = 0;
};

}  // namespace indexmac
