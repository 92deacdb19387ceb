#include "timing/timing_sim.h"

#include <algorithm>
#include <array>

#include "common/bitutil.h"
#include "common/error.h"
#include "fsim/machine.h"
#include "isa/static_info.h"
#include "timing/port_scheduler.h"

namespace indexmac::timing {
namespace {

using isa::Op;

/// Fixed front-end depth between a fetch slot and rename/dispatch.
constexpr std::uint64_t kFrontendDepth = 4;

/// Scalar ready-time table: x0..x31, f0..f31, then a write-only sink. x0's
/// entry is never written, so it also stands for "no source" (ready at 0).
constexpr std::uint8_t kNoSource = 0;
constexpr std::uint8_t kF0 = isa::kNumXRegs;
constexpr std::uint8_t kSink = isa::kNumXRegs + isa::kNumFRegs;
/// The vector ready-time table's extra, never-written entry past v31.
constexpr std::uint8_t kNoVSource = isa::kNumVRegs;

/// Recent scalar stores for store-to-load forwarding / disambiguation.
struct PendingStore {
  std::uint64_t addr = 0;
  std::uint32_t bytes = 0;
  std::uint64_t data_ready = 0;
};

/// Engine latency of a vector op's latency class.
unsigned vector_latency(isa::VLatClass vlat, const VectorEngineConfig& vc) {
  switch (vlat) {
    case isa::VLatClass::kMac: return vc.mac_latency;
    case isa::VLatClass::kSlide: return vc.slide_latency;
    case isa::VLatClass::kMove: return vc.move_latency;
    default: return vc.alu_latency;
  }
}

class Model {
 public:
  Model(const Program& program, MainMemory& memory, const ProcessorConfig& config,
        TimingStats& stats, std::vector<MarkerEvent>& markers)
      : config_(config),
        machine_(program, memory),
        base_(program.base()),
        code_bytes_(program.end() - program.base()),
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
    const VectorEngineConfig& vc = config.vector;
    IMAC_CHECK(vc.lanes >= 1, "vector lane count must be positive");
    for (std::uint32_t vl = 0; vl <= isa::kVlMax; ++vl) {
      const std::uint32_t elems = std::max<std::uint32_t>(vl, 1);
      lane_time_[vl] = std::max<std::uint64_t>(1, ceil_div(elems, vc.lanes));
    }
    slots_.reserve(program.size());
    for (const isa::Instruction& in : program.decoded()) slots_.push_back(bind(in));
  }

  void run(std::uint64_t max_instructions) {
    const Slot* const slots = slots_.data();
    while (committed_ < max_instructions) {
      // A pc below the base wraps to a huge offset: one compare bounds both ends.
      const std::uint64_t offset = machine_.state().pc - base_;
      if (offset >= code_bytes_ || (offset & 3) != 0) [[unlikely]]
        left_program();
      const Slot& slot = slots[offset >> 2];
      if (slot.fn(*this, slot)) {
        stats_.instructions = committed_;
        stats_.scalar_instructions = committed_ - stats_.vector_instructions;
        stats_.mem = mem_.stats();
        return;
      }
    }
    raise("timing: instruction budget of " + std::to_string(max_instructions) +
          " exhausted (runaway program?) at " +
          describe_pc(machine_.program(), machine_.state().pc));
  }

 private:
  /// One pc slot, bound at construction to its class's timing handler with
  /// registers and latency resolved. A handler reads the pre-execution
  /// operands its class needs, steps the machine, then times the
  /// instruction; it returns true on the halt.
  struct Slot {
    bool (*fn)(Model&, const Slot&) = nullptr;
    std::uint64_t latency = 0;  ///< execution latency from the config
    std::int32_t imm = 0;       ///< address offset; marker id
    std::uint8_t rd = 0, rs1 = 0, rs2 = 0;
    std::uint8_t src1 = kNoSource, src2 = kNoSource;  ///< scalar sources (ready_ indices)
    std::uint8_t dst = kSink;                         ///< scalar destination (ready_ index)
    /// Engine scoreboard sources (v_ready_ indices) from vreg_reads.
    std::array<std::uint8_t, 2> vsrc{kNoVSource, kNoVSource};
    std::uint8_t bytes = 0;      ///< scalar loads/stores: access size
    std::uint8_t macs = 0;       ///< MAC operations per dispatch (dual-row: 2)
    bool predict_taken = false;  ///< branches: static BTFNT prediction
  };

  Slot bind(const isa::Instruction& in) const {
    const isa::StaticInstInfo si = isa::predecode(in);
    const VectorEngineConfig& vc = config_.vector;
    Slot s;
    s.imm = in.imm;
    s.rd = in.rd;
    s.rs1 = in.rs1;
    s.rs2 = in.rs2;
    if (si.has(isa::kSiReadsXRs1)) s.src1 = in.rs1;
    if (si.has(isa::kSiReadsFRs1)) s.src1 = kF0 + in.rs1;
    if (si.has(isa::kSiReadsXRs2)) s.src2 = in.rs2;
    if (si.has(isa::kSiReadsFRs2)) s.src2 = kF0 + in.rs2;
    if (si.has(isa::kSiWritesX)) s.dst = in.rd;  // never x0
    if (si.has(isa::kSiWritesF)) s.dst = kF0 + in.rd;
    if (si.vreg_reads & isa::kVReadRd) s.vsrc[0] = in.rd;
    if (si.vreg_reads & isa::kVReadRs2) s.vsrc[1] = in.rs2;
    s.bytes = si.scalar_mem_bytes;
    s.macs = !si.has(isa::kSiVectorMac) ? 0 : si.has(isa::kSiDualMac) ? 2 : 1;
    s.predict_taken = in.imm < 0;
    if (si.has(isa::kSiVectorToScalar))
      s.latency = std::uint64_t{vc.move_latency} + vc.to_scalar_latency;
    else if (si.has(isa::kSiVector))
      s.latency = vector_latency(si.vlat, vc);
    else
      s.latency = in.op == Op::kMul ? config_.scalar.mul_latency : config_.scalar.alu_latency;

    if (si.has(isa::kSiVectorLoad)) s.fn = unit_stride<false>;
    else if (si.has(isa::kSiVectorStore)) s.fn = unit_stride<true>;
    else if (si.has(isa::kSiVectorToScalar)) s.fn = to_scalar;
    else if (si.has(isa::kSiSsrMac)) s.fn = ssr_mac;
    else if (si.has(isa::kSiDualMac)) s.fn = indirect_mac<true, true>;
    else if (si.has(isa::kSiPackedIndex)) s.fn = indirect_mac<true, false>;
    else if (si.has(isa::kSiIndirectVreg)) s.fn = indirect_mac<false, false>;
    else if (si.has(isa::kSiVector)) s.fn = vector_op;
    else if (si.has(isa::kSiScalarLoad)) s.fn = load;
    else if (si.has(isa::kSiScalarStore)) s.fn = store;
    else if (si.has(isa::kSiBranch)) s.fn = control<true>;
    else if (si.has(isa::kSiJump)) s.fn = control<false>;
    else if (si.has(isa::kSiHalt)) s.fn = halt;
    else if (si.has(isa::kSiMarker)) s.fn = marker;
    else if (si.has(isa::kSiSsrCtl)) s.fn = in.op == Op::kSsrEn ? ssr_ctl<true> : ssr_ctl<false>;
    // Plain ALU work, including vsetvli, which computes vl on the scalar side.
    else s.fn = in.op == Op::kVsetvli ? scalar_alu<true> : scalar_alu<false>;
    return s;
  }

  [[noreturn, gnu::noinline, gnu::cold]] void left_program() const {
    raise("timing: execution left the program: " +
          describe_pc(machine_.program(), machine_.state().pc));
  }

  // ---- shared front end, issue and commit ----

  /// Fetch slot (stalled after a mispredict), fixed depth to dispatch, and a
  /// free ROB entry: the cycle the instruction dispatches.
  std::uint64_t dispatch() {
    const std::uint64_t fetch = fetch_ports_.claim(fetch_blocked_until_);
    return rob_.available(fetch + kFrontendDepth);
  }

  std::uint64_t scalar_srcs(const Slot& s) const {
    return std::max(ready_[s.src1], ready_[s.src2]);
  }

  /// Scalar issue: the first free issue port at or after `earliest` once
  /// the slot's scalar sources are ready.
  std::uint64_t issue(const Slot& s, std::uint64_t earliest) {
    return issue_ports_.claim(std::max(earliest, scalar_srcs(s)));
  }

  /// In-order commit of an instruction whose result is ready at `ready`.
  std::uint64_t commit(std::uint64_t ready) {
    const std::uint64_t cycle = commit_ports_.claim(std::max(ready, last_commit_));
    last_commit_ = cycle;
    rob_.claim(cycle + 1);
    ++committed_;
    stats_.cycles = cycle;
    return cycle;
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

  // ---- scalar handlers ----

  template <bool kVsetvli>
  static bool scalar_alu(Model& m, const Slot& s) {
    m.machine_.step();
    const std::uint64_t done = m.issue(s, m.dispatch()) + s.latency;
    m.ready_[s.dst] = done;
    if constexpr (kVsetvli) m.last_vsetvli_done_ = done;
    m.commit(done);
    return false;
  }

  static bool load(Model& m, const Slot& s) {
    const std::uint64_t addr = m.machine_.state().x[s.rs1] + static_cast<std::int64_t>(s.imm);
    m.machine_.step();
    const std::uint64_t issue = m.issue(s, m.lsq_.available(m.dispatch()));
    std::uint64_t done = m.forward_from_stores(addr, s.bytes, issue);
    if (done == 0) done = m.mem_.scalar_data(addr, s.bytes, false, issue + 1);
    m.lsq_.claim(done);
    m.ready_[s.dst] = done;
    m.commit(done);
    return false;
  }

  static bool store(Model& m, const Slot& s) {
    const std::uint64_t addr = m.machine_.state().x[s.rs1] + static_cast<std::int64_t>(s.imm);
    m.machine_.step();
    const std::uint64_t ready = m.issue(s, m.lsq_.available(m.dispatch())) + 1;
    // The LSQ entry is held, and the write performed, at commit.
    const std::uint64_t commit = m.commit(ready);
    (void)m.mem_.scalar_data(addr, s.bytes, /*is_store=*/true, commit + 1);
    m.lsq_.claim(commit + 1);
    m.store_ring_[m.store_ring_next_] = PendingStore{addr, s.bytes, ready};
    m.store_ring_next_ = (m.store_ring_next_ + 1) % m.store_ring_.size();
    return false;
  }

  /// Branches (static BTFNT predictor) and jumps, which are assumed
  /// predicted (decode target / return stack).
  template <bool kBranch>
  static bool control(Model& m, const Slot& s) {
    const std::uint64_t fall_through = m.machine_.state().pc + 4;
    m.machine_.step();
    const std::uint64_t resolve = m.issue(s, m.dispatch()) + s.latency;
    if (kBranch && s.predict_taken != (m.machine_.state().pc != fall_through)) {
      ++m.stats_.branch_mispredicts;
      m.fetch_blocked_until_ =
          std::max(m.fetch_blocked_until_, resolve + m.config_.scalar.mispredict_penalty);
    }
    m.last_branch_resolve_ = std::max(m.last_branch_resolve_, resolve);
    m.ready_[s.dst] = resolve;  // the link register; branches write the sink
    m.commit(resolve);
    return false;
  }

  // Markers and the halt are architectural no-ops: they occupy a dispatch
  // slot and complete immediately.
  static bool marker(Model& m, const Slot& s) {
    m.machine_.step();
    const std::uint64_t cycle = m.commit(m.dispatch());
    m.markers_.push_back(MarkerEvent{s.imm, cycle, m.committed_});
    return false;
  }

  static bool halt(Model& m, const Slot&) {
    m.machine_.step();
    m.commit(m.dispatch());
    return true;
  }

  /// Stream control (ssrcfg/ssren): reprograms the address-generation state
  /// machines. No x-register destination — ssrcfg's rd field names a
  /// stream — and later streaming MACs must not issue before the new
  /// stream state is visible engine-side.
  template <bool kEnable>
  static bool ssr_ctl(Model& m, const Slot& s) {
    // The streams this op reprograms: ssrcfg the one named by rd, ssren the
    // ones being enabled, which rewind to their base.
    const std::uint64_t streams = kEnable ? m.machine_.state().x[s.rs1] & 0xf : 1u << s.rd;
    m.machine_.step();
    const std::uint64_t done = m.issue(s, m.dispatch()) + s.latency;
    m.last_ssr_ctl_done_ = std::max(m.last_ssr_ctl_done_, done);
    // Moving a stream's address generator drops its held line, but setup
    // traffic on the *other* streams must not flush lines an active stream
    // is still amortizing pops against.
    for (unsigned i = 0; i < m.ssr_line_valid_.size(); ++i)
      if ((streams >> i) & 1) m.ssr_line_valid_[i] = false;
    m.commit(done);
    return false;
  }

  // ---- vector handlers ----
  //
  // Vector ops never change vl, so reading it after the step reads the
  // governing (pre-execution) vl.

  /// Dispatch to the engine: in program order, squash-free (all older
  /// branches resolved), scalar operands and the governing vl available,
  /// and a vector-queue slot free. One vector instruction per cycle. The
  /// wait is attributed to its binding constraint for the stall breakdown.
  /// `stream_ready` is when stream state is visible (streaming MACs only).
  /// Returns the send cycle, which is also when most vector ops complete.
  std::uint64_t vector_send(const Slot& s, std::uint64_t stream_ready) {
    const std::uint64_t disp = dispatch();
    const std::uint64_t operand_ready =
        std::max({scalar_srcs(s), last_vsetvli_done_, stream_ready});
    const std::uint64_t send =
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
    last_vector_send_ = queue_ready;
    ++stats_.vector_instructions;
    return queue_ready;
  }

  /// Engine-side in-order issue with register-granular scoreboarding: the
  /// slot's VRF sources, plus `deps` for sources resolved at run time.
  std::uint64_t engine_issue(const Slot& s, std::uint64_t send, std::uint64_t deps) const {
    deps = std::max({deps, v_ready_[s.vsrc[0]], v_ready_[s.vsrc[1]]});
    return std::max({send + config_.vector.dispatch_latency, engine_next_issue_, deps});
  }

  /// Times an engine operation (ALU, MAC, slide, move) whose
  /// run-time-resolved VRF sources are ready at `deps`, and commits it.
  template <bool kDual>
  void engine_op(const Slot& s, std::uint64_t send, std::uint64_t deps) {
    const std::uint64_t e_issue = engine_issue(s, send, deps);
    const std::uint64_t lane_time = lane_time_[machine_.state().vl];
    stats_.vector_macs += s.macs;
    // Dual-row MACs run two back-to-back operations through the MAC
    // pipeline: the second starts one occupancy slice after the first, so
    // the accumulator is ready one slice later and the engine stays busy
    // for two operations' worth of lane time — while costing a single
    // dispatch and a single queue slot.
    v_ready_[s.rd] = e_issue + s.latency + (kDual ? lane_time : 0);
    engine_next_issue_ = e_issue + (kDual ? 2 : 1) * lane_time;
    viq_.claim(e_issue);  // the queue slot frees when the engine issues
    commit(send);
  }

  static bool vector_op(Model& m, const Slot& s) {
    m.machine_.step();
    m.engine_op<false>(s, m.vector_send(s, 0), 0);
    return false;
  }

  /// v(f)indexmac*: the B row is a VRF read named by x[rs1] — the low five
  /// bits, or 16 | nibble for the packed forms, whose dual-row variants
  /// read a second row through the next nibble.
  template <bool kPacked, bool kDual>
  static bool indirect_mac(Model& m, const Slot& s) {
    const std::uint64_t index = m.machine_.state().x[s.rs1];
    m.machine_.step();
    const std::uint64_t send = m.vector_send(s, 0);
    std::uint64_t deps = m.v_ready_[kPacked ? 16u | (index & 0xf) : index & 0x1f];
    if constexpr (kDual) deps = std::max(deps, m.v_ready_[16u | ((index >> 4) & 0xf)]);
    m.engine_op<kDual>(s, send, deps);
    return false;
  }

  /// v(f)indexmacs: the A value and the B row index pop from the SSR
  /// streams, resolved before the machine advances the stream positions.
  /// The row is peeked only where step() will pop it: step() raises, with
  /// the pc, on a disabled or empty stream or a word past the address
  /// limit.
  static bool ssr_mac(Model& m, const Slot& s) {
    const std::array<SsrStream, 4>& streams = m.machine_.ssr();
    const std::array<std::uint64_t, 2> addrs = {streams[0].base + 4ull * streams[0].pos,
                                                streams[1].base + 4ull * streams[1].pos};
    unsigned row = 0;
    if (streams[1].enabled && streams[1].count != 0 && MainMemory::in_bounds(addrs[1], 4))
      row = m.machine_.memory().read_u32(addrs[1]) & 0x1f;
    m.machine_.step();
    const std::uint64_t send = m.vector_send(s, m.last_ssr_ctl_done_);
    std::uint64_t deps = m.v_ready_[row];  // the stream-resolved VRF read
    // Each stream fronts memory with a one-line (64 B) buffer: only a line
    // crossing costs a vector-load access, so sequential streaming
    // amortizes one fetch over 16 pops per stream.
    for (unsigned i = 0; i < 2; ++i) {
      const std::uint64_t line = addrs[i] & ~std::uint64_t{63};
      if (m.ssr_line_valid_[i] && m.ssr_line_[i] == line) {
        deps = std::max(deps, m.ssr_line_ready_[i]);
        continue;
      }
      const std::uint64_t start = m.vlq_.available(send + m.config_.vector.dispatch_latency);
      const std::uint64_t done = m.mem_.vector_data(line, 64, false, start + 1);
      m.vlq_.claim(done);
      ++m.stats_.vector_loads;
      m.ssr_line_[i] = line;
      m.ssr_line_valid_[i] = true;
      m.ssr_line_ready_[i] = done;
      deps = std::max(deps, done);
    }
    m.engine_op<false>(s, send, deps);
    return false;
  }

  /// vle32 / vse32: unit-stride access through the vector load or store
  /// queues.
  template <bool kStore>
  static bool unit_stride(Model& m, const Slot& s) {
    const std::uint64_t addr = m.machine_.state().x[s.rs1];
    m.machine_.step();
    const std::uint32_t vl = m.machine_.state().vl;
    SlotPool& queues = kStore ? m.vsq_ : m.vlq_;
    const std::uint64_t send = m.vector_send(s, 0);
    const std::uint64_t e_issue = queues.available(m.engine_issue(s, send, 0));
    const std::uint64_t done =
        vl == 0 ? e_issue + 1 : m.mem_.vector_data(addr, vl * 4, kStore, e_issue + 1);
    queues.claim(done);
    if constexpr (kStore) {
      ++m.stats_.vector_stores;
    } else {
      m.v_ready_[s.rd] = done;
      ++m.stats_.vector_loads;
    }
    m.engine_next_issue_ = e_issue + m.lane_time_[vl];
    m.viq_.claim(e_issue);
    m.commit(send);
    return false;
  }

  /// vmv.x.s / vfmv.f.s: the value returns through the engine, and the move
  /// commits only once it is back.
  static bool to_scalar(Model& m, const Slot& s) {
    m.machine_.step();
    const std::uint64_t e_issue = m.engine_issue(s, m.vector_send(s, 0), 0);
    const std::uint64_t returned = e_issue + s.latency;
    m.ready_[s.dst] = returned;
    ++m.stats_.vector_to_scalar_moves;
    m.engine_next_issue_ = e_issue + m.lane_time_[m.machine_.state().vl];
    m.viq_.claim(e_issue);
    m.commit(returned);
    return false;
  }

  ProcessorConfig config_;
  Machine machine_;
  std::uint64_t base_;
  std::uint64_t code_bytes_;
  std::vector<Slot> slots_;  ///< one per pc slot of the program
  MemorySystem mem_;
  InOrderPorts fetch_ports_;
  PortScheduler issue_ports_;
  InOrderPorts commit_ports_;
  SlotPool rob_;
  SlotPool lsq_;
  SlotPool viq_;
  SlotPool vlq_;
  SlotPool vsq_;

  std::array<std::uint64_t, kSink + 1> ready_{};             ///< scalar (x, f) ready cycles
  std::array<std::uint64_t, isa::kNumVRegs + 1> v_ready_{};  ///< vector ready cycles
  /// Engine lane time of one operation per vl (vsetvli keeps vl <= kVlMax).
  std::array<std::uint64_t, isa::kVlMax + 1> lane_time_{};
  std::array<PendingStore, 16> store_ring_{};
  std::size_t store_ring_next_ = 0;

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
