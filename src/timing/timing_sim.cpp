#include "timing/timing_sim.h"

#include <array>

#include "common/bitutil.h"
#include "common/error.h"
#include "fsim/machine.h"
#include "timing/port_scheduler.h"
#include "timing/trace.h"

namespace indexmac::timing {
namespace {

using isa::Op;

/// Fixed front-end depth between a fetch slot and rename/dispatch.
constexpr std::uint64_t kFrontendDepth = 4;

/// Recent scalar stores for store-to-load forwarding / disambiguation.
struct PendingStore {
  std::uint64_t addr = 0;
  std::uint32_t bytes = 0;
  std::uint64_t data_ready = 0;
};

class Model {
 public:
  Model(const Program& program, MainMemory& memory, const ProcessorConfig& config,
        TimingStats& stats, std::vector<MarkerEvent>& markers)
      : config_(config),
        machine_(program, memory),
        trace_(machine_),
        mem_(config.memory),
        fetch_ports_(config.scalar.fetch_width),
        issue_ports_(config.scalar.issue_width),
        commit_ports_(config.scalar.commit_width),
        rob_(config.scalar.rob_entries),
        lsq_(config.scalar.lsq_entries),
        viq_(config.vector.queue_entries),
        vlq_(config.vector.load_queues),
        vsq_(config.vector.store_queues),
        stats_(stats),
        markers_(markers) {
    x_ready_.fill(0);
    f_ready_.fill(0);
    v_ready_.fill(0);
    // Resolve the per-class vector-engine latencies once; the per-op
    // switch in process_vector becomes a table lookup.
    vlat_cycles_[static_cast<int>(isa::VLatClass::kNone)] = config_.vector.alu_latency;
    vlat_cycles_[static_cast<int>(isa::VLatClass::kAlu)] = config_.vector.alu_latency;
    vlat_cycles_[static_cast<int>(isa::VLatClass::kMac)] = config_.vector.mac_latency;
    vlat_cycles_[static_cast<int>(isa::VLatClass::kSlide)] = config_.vector.slide_latency;
    vlat_cycles_[static_cast<int>(isa::VLatClass::kMove)] = config_.vector.move_latency;
    vlat_cycles_[static_cast<int>(isa::VLatClass::kReduction)] =
        config_.vector.reduction_latency;
  }

  void run(std::uint64_t max_instructions) {
    DynInst d;
    for (std::uint64_t n = 0; n < max_instructions; ++n) {
      if (!trace_.next(d)) {
        raise("timing: trace ended without a halt instruction at " +
              describe_pc(machine_.program(), machine_.state().pc));
      }
      process(d);
      if (d.is_halt) {
        stats_.instructions = n + 1;
        stats_.mem = mem_.stats();
        return;
      }
    }
    raise("timing: instruction budget of " + std::to_string(max_instructions) +
          " exhausted (runaway program?) at " +
          describe_pc(machine_.program(), machine_.state().pc));
  }

 private:
  // ---- helpers ----

  std::uint64_t xr(unsigned r) const { return r == 0 ? 0 : x_ready_[r]; }

  void set_x(unsigned r, std::uint64_t cycle) {
    if (r != 0) x_ready_[r] = cycle;
  }

  std::uint64_t scalar_srcs(const DynInst& d) const {
    const std::uint32_t flags = d.info->flags;
    std::uint64_t ready = 0;
    if (flags & isa::kSiReadsXRs1) ready = std::max(ready, xr(d.inst.rs1));
    if (flags & isa::kSiReadsXRs2) ready = std::max(ready, xr(d.inst.rs2));
    if (flags & isa::kSiReadsFRs1) ready = std::max(ready, f_ready_[d.inst.rs1]);
    if (flags & isa::kSiReadsFRs2) ready = std::max(ready, f_ready_[d.inst.rs2]);
    return ready;
  }

  /// Store-to-load forwarding: completion if an older in-flight store
  /// overlaps this load.
  std::uint64_t forward_from_stores(std::uint64_t addr, std::uint32_t bytes,
                                    std::uint64_t issue) const {
    std::uint64_t ready = 0;
    for (const PendingStore& s : store_ring_) {
      if (s.bytes == 0) continue;
      const bool overlap = addr < s.addr + s.bytes && s.addr < addr + bytes;
      if (overlap) ready = std::max(ready, std::max(issue, s.data_ready) + 1);
    }
    return ready;
  }

  // ---- per-instruction model ----

  void process(const DynInst& d) {
    // Front end: fetch slot (stalled after a mispredict), fixed depth to
    // dispatch, ROB entry must be free.
    const std::uint64_t fetch = fetch_ports_.claim(fetch_blocked_until_);
    std::uint64_t disp = rob_.available(fetch + kFrontendDepth);

    std::uint64_t ready = 0;          // ROB-completion cycle
    bool is_store_commit = false;     // scalar stores write at commit

    if (d.info->has(isa::kSiVector)) {
      ready = process_vector(d, disp);
      ++stats_.vector_instructions;
    } else {
      ready = process_scalar(d, disp, is_store_commit);
      ++stats_.scalar_instructions;
    }

    // In-order commit.
    const std::uint64_t commit = commit_ports_.claim(std::max(ready, last_commit_));
    last_commit_ = commit;
    rob_.claim(commit + 1);

    if (is_store_commit) {
      (void)mem_.scalar_data(d.mem_addr, d.mem_bytes, /*is_store=*/true, commit + 1);
      lsq_.claim(commit + 1);
      store_ring_[store_ring_next_] = PendingStore{d.mem_addr, d.mem_bytes, ready};
      store_ring_next_ = (store_ring_next_ + 1) % store_ring_.size();
    }

    if (d.marker_id >= 0)
      markers_.push_back(MarkerEvent{d.marker_id, commit, committed_ + 1, mem_.stats()});
    ++committed_;
    stats_.cycles = commit;
  }

  std::uint64_t process_scalar(const DynInst& d, std::uint64_t disp, bool& is_store_commit) {
    const Op op = d.inst.op;
    const std::uint32_t flags = d.info->flags;
    const std::uint64_t srcs = scalar_srcs(d);

    if (flags & isa::kSiScalarLoad) {
      const std::uint64_t avail = lsq_.available(disp);
      const std::uint64_t issue = issue_ports_.claim(std::max(avail, srcs));
      std::uint64_t done = forward_from_stores(d.mem_addr, d.mem_bytes, issue);
      if (done == 0) done = mem_.scalar_data(d.mem_addr, d.mem_bytes, false, issue + 1);
      lsq_.claim(done);
      if (op == Op::kFlw)
        f_ready_[d.inst.rd] = done;
      else
        set_x(d.inst.rd, done);
      return done;
    }

    if (flags & isa::kSiScalarStore) {
      const std::uint64_t avail = lsq_.available(disp);
      const std::uint64_t issue = issue_ports_.claim(std::max(avail, srcs));
      is_store_commit = true;  // LSQ entry + write handled at commit
      return issue + 1;
    }

    if (flags & (isa::kSiBranch | isa::kSiJump)) {
      const std::uint64_t issue = issue_ports_.claim(std::max(disp, srcs));
      const std::uint64_t resolve = issue + config_.scalar.alu_latency;
      // Static BTFNT predictor for conditional branches; direct jumps and
      // returns are assumed predicted (decode target / return stack).
      if (flags & isa::kSiBranch) {
        const bool predicted_taken = d.inst.imm < 0;
        if (predicted_taken != d.branch_taken) {
          ++stats_.branch_mispredicts;
          fetch_blocked_until_ =
              std::max(fetch_blocked_until_, resolve + config_.scalar.mispredict_penalty);
        }
      }
      last_branch_resolve_ = std::max(last_branch_resolve_, resolve);
      if (flags & isa::kSiJump) set_x(d.inst.rd, resolve);
      return resolve;
    }

    if (flags & (isa::kSiHalt | isa::kSiMarker)) {
      // Architectural no-ops: occupy a dispatch slot, complete immediately.
      return disp;
    }

    if (flags & isa::kSiSsrCtl) {
      // Stream control (ssrcfg/ssren): reprograms the address-generation
      // state machines. No x-register destination — the rd field names a
      // stream, not a register — and later streaming MACs must not issue
      // before the new stream state is visible engine-side.
      const std::uint64_t issue = issue_ports_.claim(std::max(disp, srcs));
      const std::uint64_t done = issue + config_.scalar.alu_latency;
      last_ssr_ctl_done_ = std::max(last_ssr_ctl_done_, done);
      // Drop buffered lines only for the streams this op reprograms
      // (DynInst::ssr_ctl_mask): configuring or re-enabling a stream moves
      // its address generator, so the held line must be refetched, but
      // setup traffic on the *other* streams must not flush lines an
      // active stream is still amortizing pops against.
      for (unsigned s = 0; s < ssr_line_valid_.size(); ++s)
        if ((d.ssr_ctl_mask >> s) & 1) ssr_line_valid_[s] = false;
      return done;
    }

    // Plain ALU work (incl. vsetvli, which computes vl on the scalar side).
    const std::uint64_t issue = issue_ports_.claim(std::max(disp, srcs));
    const unsigned latency =
        op == Op::kMul ? config_.scalar.mul_latency : config_.scalar.alu_latency;
    const std::uint64_t done = issue + latency;
    set_x(d.inst.rd, done);
    if (op == Op::kVsetvli) last_vsetvli_done_ = done;
    return done;
  }

  std::uint64_t process_vector(const DynInst& d, std::uint64_t disp) {
    const Op op = d.inst.op;
    const VectorEngineConfig& vc = config_.vector;

    // Dispatch to the engine: in program order, squash-free (all older
    // branches resolved), scalar operands and the governing vl available,
    // and a vector-queue slot free. One vector instruction per cycle.
    // Attribute the wait to its binding constraint for the stall breakdown.
    std::uint64_t operand_ready = std::max(scalar_srcs(d), last_vsetvli_done_);
    if (d.info->has(isa::kSiSsrMac))
      operand_ready = std::max(operand_ready, last_ssr_ctl_done_);
    std::uint64_t send =
        std::max({disp, operand_ready, last_branch_resolve_, last_vector_send_ + 1});
    const std::uint64_t queue_ready = viq_.available(send);
    if (send > disp) {
      VectorDispatchStalls& st = stats_.dispatch_stalls;
      if (send == operand_ready && operand_ready > disp)
        st.scalar_operand += send - disp;
      else if (send == last_branch_resolve_ && last_branch_resolve_ > disp)
        st.branch_shadow += send - disp;
      else
        st.bandwidth += send - disp;
    }
    stats_.dispatch_stalls.queue_full += queue_ready - send;
    send = queue_ready;
    last_vector_send_ = send;

    // Engine-side in-order issue with register-granular scoreboarding; the
    // per-op source sets are predecoded into StaticInstInfo::vreg_reads.
    const std::uint8_t vreads = d.info->vreg_reads;
    std::uint64_t deps = 0;
    if (vreads & isa::kVReadRd) deps = std::max(deps, v_ready_[d.inst.rd]);
    if (vreads & isa::kVReadRs1) deps = std::max(deps, v_ready_[d.inst.rs1]);
    if (vreads & isa::kVReadRs2) deps = std::max(deps, v_ready_[d.inst.rs2]);
    if (d.info->has(isa::kSiIndirectVreg)) {
      deps = std::max(deps, v_ready_[d.indirect_vreg]);  // the indirect VRF read
      if (d.info->has(isa::kSiDualMac)) deps = std::max(deps, v_ready_[d.indirect_vreg2]);
    }
    if (d.info->has(isa::kSiSsrMac)) {
      deps = std::max(deps, v_ready_[d.indirect_vreg]);  // stream-resolved VRF read
      // Each stream fronts memory with a one-line (64 B) buffer: only a
      // line crossing costs a vector-load access, so sequential streaming
      // amortizes one fetch over 16 pops per stream.
      const std::uint64_t addrs[2] = {d.ssr_value_addr, d.ssr_index_addr};
      for (unsigned s = 0; s < 2; ++s) {
        const std::uint64_t line = addrs[s] & ~std::uint64_t{63};
        if (ssr_line_valid_[s] && ssr_line_[s] == line) {
          deps = std::max(deps, ssr_line_ready_[s]);
          continue;
        }
        const std::uint64_t start = vlq_.available(send + vc.dispatch_latency);
        const std::uint64_t done = mem_.vector_data(line, 64, false, start + 1);
        vlq_.claim(done);
        ++stats_.vector_loads;
        ssr_line_[s] = line;
        ssr_line_valid_[s] = true;
        ssr_line_ready_[s] = done;
        deps = std::max(deps, done);
      }
    }

    const std::uint64_t occupancy =
        std::max<std::uint64_t>(1, ceil_div(std::max<std::uint32_t>(d.vl, 1), vc.lanes));
    std::uint64_t e_issue = std::max({send + vc.dispatch_latency, engine_next_issue_, deps});

    std::uint64_t ready_for_rob = send;  // most vector ops complete at send
    std::uint64_t engine_ops = occupancy;  // lane time the engine is busy for

    if (d.info->has(isa::kSiGather)) {
      // Gather: one element access per address, a few addresses per cycle.
      e_issue = std::max(e_issue, vlq_.available(e_issue));
      std::uint64_t done = e_issue + 1;
      for (std::uint32_t i = 0; i < d.gather_count; ++i) {
        const std::uint64_t start = e_issue + 1 + i / vc.gather_lanes;
        done = std::max(done, mem_.vector_data(d.gather_addrs[i], 4, false, start));
      }
      vlq_.claim(done);
      v_ready_[d.inst.rd] = done;
      ++stats_.vector_loads;
      engine_next_issue_ =
          e_issue + std::max<std::uint64_t>(1, ceil_div(std::max<std::uint32_t>(d.vl, 1),
                                                        vc.gather_lanes));
      viq_.claim(e_issue);
      return ready_for_rob;
    }
    if (d.info->has(isa::kSiVectorLoad)) {  // vle32 (the gather returned above)
      e_issue = std::max(e_issue, vlq_.available(e_issue));
      const std::uint64_t done =
          d.mem_bytes == 0 ? e_issue + 1
                           : mem_.vector_data(d.mem_addr, d.mem_bytes, false, e_issue + 1);
      vlq_.claim(done);
      v_ready_[d.inst.rd] = done;
      ++stats_.vector_loads;
    } else if (d.info->has(isa::kSiVectorStore)) {
      e_issue = std::max(e_issue, vsq_.available(e_issue));
      const std::uint64_t done =
          d.mem_bytes == 0 ? e_issue + 1
                           : mem_.vector_data(d.mem_addr, d.mem_bytes, true, e_issue + 1);
      vsq_.claim(done);
      ++stats_.vector_stores;
    } else if (d.info->has(isa::kSiVectorToScalar)) {
      const std::uint64_t returned = e_issue + vc.move_latency + vc.to_scalar_latency;
      if (op == Op::kVmvXS)
        set_x(d.inst.rd, returned);
      else
        f_ready_[d.inst.rd] = returned;
      ready_for_rob = returned;  // commits only once the value is back
      ++stats_.vector_to_scalar_moves;
    } else {
      const unsigned latency = vlat_cycles_[static_cast<int>(d.info->vlat)];
      const bool dual = d.info->has(isa::kSiDualMac);
      if (d.info->has(isa::kSiVectorMac)) stats_.vector_macs += dual ? 2 : 1;
      // Dual-row MACs run two back-to-back operations through the MAC
      // pipeline: the second starts one occupancy slice after the first,
      // so the accumulator is ready one slice later and the engine stays
      // busy for two operations' worth of lane time — while costing a
      // single dispatch and a single queue slot.
      v_ready_[d.inst.rd] = e_issue + latency + (dual ? occupancy : 0);
      if (dual) engine_ops = 2 * occupancy;
    }

    engine_next_issue_ = e_issue + engine_ops;
    viq_.claim(e_issue);  // the queue slot frees when the engine issues
    return ready_for_rob;
  }

  ProcessorConfig config_;
  Machine machine_;
  TraceSource trace_;
  MemorySystem mem_;
  InOrderPorts fetch_ports_;
  PortScheduler issue_ports_;
  InOrderPorts commit_ports_;
  SlotPool rob_;
  SlotPool lsq_;
  SlotPool viq_;
  SlotPool vlq_;
  SlotPool vsq_;

  std::array<std::uint64_t, isa::kNumXRegs> x_ready_{};
  std::array<std::uint64_t, isa::kNumFRegs> f_ready_{};
  std::array<std::uint64_t, isa::kNumVRegs> v_ready_{};
  std::array<PendingStore, 16> store_ring_{};
  std::size_t store_ring_next_ = 0;

  /// Engine latency per isa::VLatClass, resolved from the config once.
  std::array<unsigned, static_cast<int>(isa::VLatClass::kCount)> vlat_cycles_{};

  /// SSR stream-side line buffers (value stream 0, index stream 1): the
  /// last fetched 64-byte line and the cycle it becomes usable. Invalidated
  /// by stream-control ops, which reprogram the address generators.
  std::array<std::uint64_t, 2> ssr_line_{};
  std::array<bool, 2> ssr_line_valid_{};
  std::array<std::uint64_t, 2> ssr_line_ready_{};

  std::uint64_t fetch_blocked_until_ = 0;
  std::uint64_t last_commit_ = 0;
  std::uint64_t last_branch_resolve_ = 0;
  std::uint64_t last_vector_send_ = 0;
  std::uint64_t last_vsetvli_done_ = 0;
  std::uint64_t last_ssr_ctl_done_ = 0;
  std::uint64_t engine_next_issue_ = 0;
  std::uint64_t committed_ = 0;

  TimingStats& stats_;
  std::vector<MarkerEvent>& markers_;
};

}  // namespace

TimingSim::TimingSim(const Program& program, MainMemory& memory, const ProcessorConfig& config)
    : program_(program), memory_(memory), config_(config) {}

const TimingStats& TimingSim::run(std::uint64_t max_instructions) {
  IMAC_CHECK(!ran_, "TimingSim::run may only be called once per instance");
  ran_ = true;
  Model model(program_, memory_, config_, stats_, markers_);
  model.run(max_instructions);
  return stats_;
}

}  // namespace indexmac::timing
