// Dynamic instruction trace: the timing model is trace-driven off the
// functional simulator, which supplies the correct execution path, memory
// addresses, vector lengths and resolved vindexmac register indices.
// Wrong-path (mis-speculated) instructions are not simulated; the branch
// mispredict penalty models the front-end refill (see docs/architecture.md,
// "Deliberate simplifications and substitutions").
//
// The trace is zero-allocation: next() fills a caller-owned DynInst slot in
// place, and gather addresses live in a fixed scratch buffer owned by the
// TraceSource (vl never exceeds isa::kVlMax), so retiring an instruction —
// gathers included — performs no heap allocation.
#pragma once

#include <array>
#include <cstdint>

#include "common/error.h"
#include "fsim/machine.h"
#include "isa/isa.h"
#include "isa/static_info.h"

namespace indexmac::timing {

/// One dynamic (executed) instruction with everything timing needs.
/// `info` and `gather_addrs` point into Program / TraceSource storage; a
/// DynInst is only valid until the next TraceSource::next() call.
struct DynInst {
  isa::Instruction inst;
  const isa::StaticInstInfo* info = nullptr;  ///< predecoded metadata for inst
  std::uint64_t pc = 0;
  bool branch_taken = false;        ///< branches/jumps: control transferred
  bool is_halt = false;             ///< ebreak/ecall
  std::uint64_t mem_addr = 0;       ///< loads/stores: effective address
  std::uint32_t mem_bytes = 0;      ///< loads/stores: access size
  std::uint32_t vl = 0;             ///< vector length governing this op
  std::uint8_t indirect_vreg = 0;   ///< v(f)indexmac*: resolved VRF source
  std::uint8_t indirect_vreg2 = 0;  ///< dual-row forms: second VRF source
  std::uint64_t ssr_value_addr = 0;  ///< v(f)indexmacs: stream-0 word address
  std::uint64_t ssr_index_addr = 0;  ///< v(f)indexmacs: stream-1 word address
  std::uint32_t gather_count = 0;   ///< vluxei32: number of element addresses
  const std::uint64_t* gather_addrs = nullptr;  ///< vluxei32: per-element addresses
  std::int32_t marker_id = -1;      ///< markers: id, else -1
  /// ssrcfg/ssren: bit s set iff this op reprograms stream s's address
  /// generator (ssrcfg: the stream named by rd; ssren: the streams being
  /// enabled, which rewind to their base). Timing uses this to invalidate
  /// only the affected streams' line buffers.
  std::uint8_t ssr_ctl_mask = 0;
};

/// Pulls dynamic instructions from a functional Machine, one per step.
class TraceSource {
 public:
  explicit TraceSource(Machine& machine)
      : machine_(machine),
        code_(machine.program().decoded().data()),
        info_(machine.program().static_info().data()),
        base_(machine.program().base()),
        code_bytes_(machine.program().end() - machine.program().base()) {}

  /// Fills `out` with the next executed instruction and returns true, or
  /// returns false after the halt instruction has been delivered (the halt
  /// itself is delivered with is_halt=true). `out.gather_addrs` aliases
  /// scratch storage owned by this TraceSource: it is overwritten by the
  /// following next() call and must not outlive it.
  bool next(DynInst& out) {
    if (done_) return false;
    const ArchState& pre = machine_.state();
    const std::uint64_t pc = pre.pc;
    const std::uint64_t offset = pc - base_;
    if (pc < base_ || offset >= code_bytes_ || (offset & 3) != 0)
      raise("trace: " + describe_pc(machine_.program(), pc));
    const std::size_t slot = offset >> 2;
    const isa::Instruction& in = code_[slot];
    const isa::StaticInstInfo& si = info_[slot];
    out.inst = in;
    out.info = &si;
    out.pc = pc;
    out.vl = pre.vl;
    out.mem_addr = 0;
    out.mem_bytes = 0;
    out.indirect_vreg = 0;
    out.indirect_vreg2 = 0;
    out.ssr_value_addr = 0;
    out.ssr_index_addr = 0;
    out.gather_count = 0;
    out.gather_addrs = gather_scratch_.data();
    out.marker_id = -1;
    out.ssr_ctl_mask = 0;
    if (si.has(isa::kSiGather)) {
      const std::uint64_t base = pre.x[in.rs1];
      for (unsigned i = 0; i < pre.vl; ++i) gather_scratch_[i] = base + pre.v[in.rs2][i];
      out.gather_count = pre.vl;
      out.mem_bytes = pre.vl * 4;
    } else if (si.has(isa::kSiScalarLoad | isa::kSiScalarStore)) {
      out.mem_addr = pre.x[in.rs1] + static_cast<std::int64_t>(in.imm);
      out.mem_bytes = si.scalar_mem_bytes;
    } else if (si.has(isa::kSiVectorLoad | isa::kSiVectorStore)) {
      out.mem_addr = pre.x[in.rs1];
      out.mem_bytes = pre.vl * 4;
    } else if (si.has(isa::kSiIndirectVreg)) {
      const std::uint64_t packed = pre.x[in.rs1];
      if (si.has(isa::kSiPackedIndex)) {
        out.indirect_vreg = static_cast<std::uint8_t>(16u | (packed & 0xf));
        if (si.has(isa::kSiDualMac))
          out.indirect_vreg2 = static_cast<std::uint8_t>(16u | ((packed >> 4) & 0xf));
      } else {
        out.indirect_vreg = static_cast<std::uint8_t>(packed & 0x1f);
      }
    } else if (si.has(isa::kSiSsrMac)) {
      // Streaming MAC: resolve the stream word addresses and the indirect
      // VRF source before the machine advances the stream positions. The
      // machine itself raises on a disabled/empty stream during step().
      const auto& streams = machine_.ssr();
      out.ssr_value_addr = streams[0].base + 4ull * streams[0].pos;
      out.ssr_index_addr = streams[1].base + 4ull * streams[1].pos;
      if (streams[1].enabled && streams[1].count != 0)
        out.indirect_vreg = static_cast<std::uint8_t>(
            machine_.memory().read_u32(out.ssr_index_addr) & 0x1f);
    } else if (si.has(isa::kSiSsrCtl)) {
      out.ssr_ctl_mask = in.op == isa::Op::kSsrCfg
                             ? static_cast<std::uint8_t>(1u << in.rd)
                             : static_cast<std::uint8_t>(pre.x[in.rs1] & 0xf);
    } else if (si.has(isa::kSiMarker)) {
      out.marker_id = in.imm;
    }
    const StopReason stop = machine_.step();
    out.branch_taken =
        si.has(isa::kSiBranch | isa::kSiJump) && machine_.state().pc != pc + 4;
    out.is_halt = stop == StopReason::kEbreak || stop == StopReason::kEcall;
    done_ = out.is_halt;
    return true;
  }

 private:
  Machine& machine_;
  const isa::Instruction* code_;
  const isa::StaticInstInfo* info_;
  std::uint64_t base_;
  std::uint64_t code_bytes_;
  std::array<std::uint64_t, isa::kVlMax> gather_scratch_{};
  bool done_ = false;
};

}  // namespace indexmac::timing
