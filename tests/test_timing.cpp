// Behavioural tests of the cycle-level timing model: pipeline widths,
// dependency latencies, structural hazards, the decoupled vector engine,
// and the vector->scalar round trip that the vindexmac optimization targets.
// Also pins every TimingStats field and the marker stream of each kernel
// family.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <type_traits>

#include "asm/assembler.h"
#include "asm/text_assembler.h"
#include "common/error.h"
#include "core/spmm_problem.h"
#include "fsim/machine.h"
#include "sparse/nm_matrix.h"
#include "timing/port_scheduler.h"
#include "timing/timing_sim.h"

namespace indexmac::timing {
namespace {

// The simulator keeps a reference to its Program, so a temporary one must
// not compile: TimingSim(assemble_text(src), ...) would dangle.
static_assert(!std::is_constructible_v<TimingSim, Program&&, MainMemory&, const ProcessorConfig&>);
static_assert(std::is_constructible_v<TimingSim, Program&, MainMemory&, const ProcessorConfig&>);

struct Timed {
  MainMemory mem;
  Program program;
  TimingStats stats;
  std::vector<MarkerEvent> markers;

  explicit Timed(Assembler& a, const ProcessorConfig& config = ProcessorConfig{})
      : program(a.finish()) {
    TimingSim sim(program, mem, config);
    stats = sim.run();
    markers = sim.markers();
  }
};

// ---------- PortScheduler / SlotPool ----------

TEST(PortScheduler, WidthLimitsPerCycle) {
  PortScheduler ports(2);
  EXPECT_EQ(ports.claim(10), 10u);
  EXPECT_EQ(ports.claim(10), 10u);
  EXPECT_EQ(ports.claim(10), 11u);  // third request spills to the next cycle
  EXPECT_EQ(ports.claim(5), 5u);    // earlier cycles still have room
}

TEST(PortScheduler, WindowSlidesForward) {
  PortScheduler ports(1, 64);
  EXPECT_EQ(ports.claim(0), 0u);
  EXPECT_EQ(ports.claim(1'000'000), 1'000'000u);
  // Requests far behind the window are clamped forward, never lost.
  const std::uint64_t c = ports.claim(0);
  EXPECT_GE(c, 1'000'000u - 64);
}

TEST(PortScheduler, RejectsBadWidthsAndWindows) {
  EXPECT_THROW(PortScheduler(0), SimError);
  EXPECT_THROW(PortScheduler(256), SimError);  // per-cycle counts are 8-bit
  for (const std::size_t window : {0, 3, 100, 4095, 4097})
    EXPECT_THROW(PortScheduler(2, window), SimError) << window;
  EXPECT_NO_THROW(PortScheduler(255, 1));
}

/// Feeds one seeded non-decreasing request stream to both port models and
/// requires the same cycle for every request. The stream repeats requests,
/// creeps, jumps (past the window, too) and bursts repeats so the claim
/// frontier runs ahead of the request, far enough to clamp at a small window.
void expect_same_claims(unsigned width, std::size_t window, std::uint32_t seed) {
  std::mt19937 rng(seed);
  InOrderPorts in_order(width);
  PortScheduler scheduler(width, window);
  std::uint64_t request = 0;
  std::size_t claims = 0;
  const auto claim_both = [&] {
    ++claims;
    ASSERT_EQ(in_order.claim(request), scheduler.claim(request))
        << "width " << width << ", window " << window << ", claim " << claims << ", request "
        << request;
  };
  for (int step = 0; step < 2000; ++step) {
    switch (rng() % 4) {
      case 0: break;  // repeat the last request
      case 1: request += rng() % 3; break;
      case 2: request += rng() % (3 * window); break;
      default:
        for (unsigned n = rng() % (100 * width); n > 0; --n) {
          claim_both();
          if (::testing::Test::HasFatalFailure()) return;
        }
    }
    claim_both();
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(InOrderPorts, MatchesPortSchedulerOnNonDecreasingStreams) {
  for (unsigned width = 1; width <= 8; ++width) {
    expect_same_claims(width, 4096, 1000 + width);
    expect_same_claims(width, 64, 2000 + width);
  }
}

TEST(InOrderPorts, WidthLimitsPerCycleAndBackwardsRequestsRaise) {
  InOrderPorts ports(2);
  EXPECT_EQ(ports.claim(10), 10u);
  EXPECT_EQ(ports.claim(10), 10u);
  EXPECT_EQ(ports.claim(10), 11u);  // third request spills to the next cycle
  EXPECT_EQ(ports.claim(10), 11u);  // a request behind the frontier is fine
  EXPECT_EQ(ports.claim(10), 12u);
  EXPECT_EQ(ports.claim(20), 20u);
  EXPECT_THROW((void)ports.claim(19), SimError);  // but never behind a request
  EXPECT_THROW(InOrderPorts(0), SimError);
}

TEST(SlotPool, BlocksWhenAllSlotsHeld) {
  SlotPool pool(2);
  EXPECT_EQ(pool.available(0), 0u);
  pool.claim(100);
  pool.claim(200);
  EXPECT_EQ(pool.available(0), 100u);  // ring: oldest slot frees first
  pool.claim(150);
  EXPECT_EQ(pool.available(0), 200u);
}

// ---------- scalar pipeline ----------

TEST(Timing, IndependentAddsReachIssueWidth) {
  Assembler a;
  for (int i = 0; i < 800; ++i) a.addi(x(1 + (i % 8)), x(0), i % 100);
  a.ebreak();
  Timed t(a);
  // 8-wide front end and issue: IPC must be near 8.
  EXPECT_GT(t.stats.ipc(), 6.0);
  EXPECT_EQ(t.stats.instructions, 801u);
}

TEST(Timing, DependencyChainSerializes) {
  Assembler a;
  for (int i = 0; i < 400; ++i) a.addi(x(1), x(1), 1);
  a.ebreak();
  Timed t(a);
  // Chained adds: ~1 IPC regardless of width.
  EXPECT_LT(t.stats.ipc(), 1.3);
  EXPECT_GT(t.stats.cycles, 390u);
}

TEST(Timing, MulLatencyLongerThanAdd) {
  Assembler chain_add;
  for (int i = 0; i < 200; ++i) chain_add.add(x(1), x(1), x(1));
  chain_add.ebreak();
  Assembler chain_mul;
  for (int i = 0; i < 200; ++i) chain_mul.mul(x(1), x(1), x(1));
  chain_mul.ebreak();
  Timed ta(chain_add);
  Timed tm(chain_mul);
  EXPECT_GT(tm.stats.cycles, 2 * ta.stats.cycles);
}

TEST(Timing, ColdLoadPaysDramLatency) {
  Assembler a;
  a.li(x(1), 0x100000);
  a.lw(x(2), x(1), 0);
  a.add(x(3), x(2), x(2));  // dependent on the load
  a.ebreak();
  Timed t(a);
  EXPECT_GT(t.stats.cycles, 100u);  // DRAM latency dominates
}

TEST(Timing, WarmLoadIsFast) {
  Assembler a;
  a.li(x(1), 0x100000);
  a.lw(x(2), x(1), 0);   // cold
  for (int i = 0; i < 50; ++i) a.lw(x(2), x(1), 0);  // warm hits
  a.ebreak();
  Timed t(a);
  // 50 warm hits add only a few cycles each beyond the cold miss.
  EXPECT_LT(t.stats.cycles, 400u);
}

TEST(Timing, StoreToLoadForwards) {
  Assembler a;
  a.li(x(1), 0x100000);
  a.li(x(2), 42);
  a.sw(x(2), x(1), 0);
  a.lw(x(3), x(1), 0);  // must forward, not wait for DRAM
  a.ebreak();
  Timed t(a);
  EXPECT_LT(t.stats.cycles, 60u);
}

TEST(Timing, PredictableLoopBranchesAreCheap) {
  Assembler a;
  a.li(x(1), 100);
  auto loop = a.new_label();
  a.bind(loop);
  a.addi(x(1), x(1), -1);
  a.bne(x(1), x(0), loop);  // backward: predicted taken, right 99/100 times
  a.ebreak();
  Timed t(a);
  EXPECT_EQ(t.stats.branch_mispredicts, 1u);  // only the loop exit
}

TEST(Timing, MispredictsCostCycles) {
  // Alternating forward branches taken half the time: static not-taken
  // prediction misses on every taken instance.
  Assembler a;
  a.li(x(1), 50);
  auto loop = a.new_label();
  a.bind(loop);
  auto skip = a.new_label();
  a.andi(x(2), x(1), 1);
  a.beq(x(2), x(0), skip);  // forward branch: predicted not-taken
  a.nop();
  a.bind(skip);
  a.addi(x(1), x(1), -1);
  a.bne(x(1), x(0), loop);
  a.ebreak();
  Timed t(a);
  EXPECT_GT(t.stats.branch_mispredicts, 20u);
  // Each mispredict costs at least the refill penalty.
  EXPECT_GT(t.stats.cycles, t.stats.instructions);
}

TEST(Timing, RobBoundsInflightWork) {
  // A long dependency stall at the head must back-pressure dispatch: total
  // time ~ stall + drain rather than overlapping everything.
  Assembler a;
  a.li(x(1), 0x200000);
  a.lw(x(2), x(1), 0);        // cold miss ~110 cycles
  a.add(x(3), x(2), x(2));    // blocks at ROB head until the load returns
  for (int i = 0; i < 300; ++i) a.addi(x(4 + (i % 4)), x(0), 1);
  a.ebreak();
  Timed t(a);
  // With a 60-entry ROB the adds cannot all hide under the miss: 300 adds
  // at 8/cycle = ~38 cycles, but only ~60 fit in flight during the miss.
  EXPECT_GT(t.stats.cycles, 130u);
}

// ---------- vector engine ----------

TEST(Timing, VectorInstructionsFlowThroughEngine) {
  Assembler a;
  a.li(x(1), 16);
  a.vsetvli_e32m1(x(0), x(1));
  a.li(x(2), 0x100000);
  a.vle32(v(1), x(2));
  a.vadd_vi(v(2), v(1), 1);
  a.vse32(v(2), x(2));
  a.ebreak();
  Timed t(a);
  EXPECT_EQ(t.stats.vector_instructions, 3u);
  EXPECT_EQ(t.stats.vector_loads, 1u);
  EXPECT_EQ(t.stats.vector_stores, 1u);
  EXPECT_EQ(t.stats.mem.vector_reads, 1u);
  EXPECT_EQ(t.stats.mem.vector_writes, 1u);
}

TEST(Timing, VectorToScalarRoundTripStalls) {
  // vmv.x.s followed by a dependent scalar op pays the engine round trip.
  Assembler with_roundtrip;
  with_roundtrip.li(x(1), 16);
  with_roundtrip.vsetvli_e32m1(x(0), x(1));
  for (int i = 0; i < 64; ++i) {
    with_roundtrip.vmv_x_s(x(2), v(1));
    with_roundtrip.addi(x(3), x(2), 1);  // dependent
  }
  with_roundtrip.ebreak();
  Assembler without;
  without.li(x(1), 16);
  without.vsetvli_e32m1(x(0), x(1));
  for (int i = 0; i < 64; ++i) {
    without.vadd_vi(v(2), v(1), 1);   // engine work, no scalar result
    without.addi(x(3), x(0), 1);      // independent
  }
  without.ebreak();
  Timed tr(with_roundtrip);
  Timed tw(without);
  EXPECT_GT(tr.stats.cycles, tw.stats.cycles);
  EXPECT_EQ(tr.stats.vector_to_scalar_moves, 64u);
}

TEST(Timing, EngineQueueDecouplesAhead) {
  // Independent vector adds behind a scalar dependency chain: the engine
  // keeps working while the scalar core grinds -> high overlap.
  Assembler a;
  a.li(x(1), 16);
  a.vsetvli_e32m1(x(0), x(1));
  for (int i = 0; i < 100; ++i) {
    a.vadd_vi(v(1 + (i % 4)), v(10), 1);
    a.addi(x(2), x(2), 1);
  }
  a.ebreak();
  Timed t(a);
  // 100 vector + ~100 scalar in ~max(engine, scalar) time, not the sum.
  EXPECT_LT(t.stats.cycles, 260u);
}

TEST(Timing, VectorLoadsOverlapInLoadQueues) {
  // 16 independent warm vector loads should pipeline through the L2.
  Assembler a;
  a.li(x(1), 16);
  a.vsetvli_e32m1(x(0), x(1));
  a.li(x(2), 0x100000);
  for (int rep = 0; rep < 2; ++rep) {  // first pass warms, second measures
    for (int i = 0; i < 16; ++i) {
      a.addi(x(3), x(2), i * 64);
      a.vle32(v(i % 8), x(3));
    }
  }
  a.ebreak();
  Timed t(a);
  // Serial L2 hits would cost 32*8 = 256+ cycles in the engine alone.
  EXPECT_LT(t.stats.cycles, 220u);
}

TEST(Timing, VindexmacAvoidsMemorySystem) {
  // One vindexmac vs one vle32+vfmacc: the indirect read makes no memory
  // accesses at all.
  Assembler a;
  a.li(x(1), 16);
  a.vsetvli_e32m1(x(0), x(1));
  a.li(x(2), 20);
  for (int i = 0; i < 32; ++i) a.vfindexmac_vx(v(1), v(2), x(2));
  a.ebreak();
  Timed t(a);
  EXPECT_EQ(t.stats.mem.data_accesses(), 0u);
  EXPECT_EQ(t.stats.vector_macs, 32u);
}

TEST(Timing, MarkersRecordCommitOrderAndStats) {
  Assembler a;
  a.marker(7);
  a.li(x(1), 0x100000);
  a.lw(x(2), x(1), 0);
  a.marker(8);
  a.ebreak();
  Timed t(a);
  ASSERT_EQ(t.markers.size(), 2u);
  EXPECT_EQ(t.markers[0].id, 7);
  EXPECT_EQ(t.markers[1].id, 8);
  EXPECT_LT(t.markers[0].cycle, t.markers[1].cycle);
  EXPECT_GT(t.markers[1].instructions, t.markers[0].instructions);
}

TEST(Timing, DeterministicAcrossRuns) {
  auto build = [] {
    Assembler a;
    a.li(x(1), 16);
    a.vsetvli_e32m1(x(0), x(1));
    a.li(x(2), 0x100000);
    for (int i = 0; i < 50; ++i) {
      a.vle32(v(1), x(2));
      a.vadd_vi(v(2), v(1), 1);
      a.vse32(v(2), x(2));
    }
    a.ebreak();
    return a;
  };
  Assembler a1 = build();
  Assembler a2 = build();
  Timed t1(a1);
  Timed t2(a2);
  EXPECT_EQ(t1.stats.cycles, t2.stats.cycles);
  EXPECT_EQ(t1.stats.mem.dram_lines, t2.stats.mem.dram_lines);
}

TEST(Timing, RunTwiceThrows) {
  Assembler a;
  a.ebreak();
  MainMemory mem;
  Program p = a.finish();
  TimingSim sim(p, mem, ProcessorConfig{});
  (void)sim.run();
  EXPECT_THROW((void)sim.run(), SimError);
}

TEST(Timing, InstructionBudgetGuard) {
  Assembler a;
  auto loop = a.new_label();
  a.bind(loop);
  a.j(loop);
  MainMemory mem;
  Program p = a.finish();
  TimingSim sim(p, mem, ProcessorConfig{});
  EXPECT_THROW((void)sim.run(1000), SimError);
}

// ---------- SSR stream-control line-buffer invalidation ----------

/// Streams 0/1 configured over one 64 B line each (4 value/index pairs),
/// two streaming MACs, `tweak(a)` injected, then two more MACs. The index
/// words name v8 so the MACs resolve a valid VRF row.
template <typename Tweak>
TimingStats ssr_mac_stats(Tweak&& tweak) {
  Assembler a;
  a.li(x(1), 16);
  a.vsetvli_e32m1(x(0), x(1));
  a.vmv_v_i(v(2), 0);
  a.vmv_v_i(v(8), 0);
  a.li(x(3), 0x2000);  // value stream
  a.li(x(4), 0x3000);  // index stream
  a.li(x(5), 4);
  a.ssrcfg(0, x(3), x(5));
  a.ssrcfg(1, x(4), x(5));
  a.li(x(5), 0b11);
  a.ssren(x(5));
  a.vindexmacs_v(v(2));
  a.vindexmacs_v(v(2));
  tweak(a);
  a.vindexmacs_v(v(2));
  a.vindexmacs_v(v(2));
  a.ebreak();
  Program p = a.finish();
  MainMemory mem;
  for (int i = 0; i < 4; ++i) {
    mem.write_u32(0x2000 + 4 * i, 0);  // values (bits irrelevant to timing)
    mem.write_u32(0x3000 + 4 * i, 8);  // indices -> v8
  }
  TimingSim sim(p, mem, ProcessorConfig{});
  return sim.run();
}

TEST(Timing, UnrelatedStreamConfigKeepsLineBuffers) {
  // Regression: ssrcfg on streams 2/3 between streaming MACs used to flush
  // the line buffers of streams 0/1 too, charging refetches the hardware's
  // per-stream address generators would never issue. Setup traffic on
  // other streams must leave the active pair's amortization intact.
  const TimingStats plain = ssr_mac_stats([](Assembler&) {});
  const TimingStats tweaked = ssr_mac_stats([](Assembler& a) {
    a.li(x(6), 0x5000);
    a.li(x(7), 4);
    a.ssrcfg(2, x(6), x(7));
    a.ssrcfg(3, x(6), x(7));
  });
  EXPECT_EQ(tweaked.vector_loads, plain.vector_loads);
  EXPECT_EQ(tweaked.mem.vector_reads, plain.mem.vector_reads);
}

TEST(Timing, ReenableForcesStreamLineRefetch) {
  // ssren re-enabling streams 0/1 rewinds their address generators to
  // base: the held lines must be refetched (one per stream).
  const TimingStats plain = ssr_mac_stats([](Assembler&) {});
  const TimingStats rewound = ssr_mac_stats([](Assembler& a) {
    a.li(x(5), 0b11);
    a.ssren(x(5));
  });
  EXPECT_EQ(rewound.vector_loads, plain.vector_loads + 2);
}

TEST(Timing, ReconfiguringActiveStreamDropsOnlyThatLine) {
  // ssrcfg on stream 0 alone re-fetches stream 0's line but keeps stream
  // 1's buffer (before the fix both were flushed: +2 loads, not +1).
  const TimingStats plain = ssr_mac_stats([](Assembler&) {});
  const TimingStats recfg = ssr_mac_stats([](Assembler& a) {
    a.li(x(6), 0x2008);  // re-point stream 0 inside the same line
    a.li(x(7), 2);
    a.ssrcfg(0, x(6), x(7));
  });
  EXPECT_EQ(recfg.vector_loads, plain.vector_loads + 1);
}

// ---------- pinned stats: every field, every kernel family ----------

/// Every TimingStats field in declaration order; the static_assert makes a
/// new field fail to compile here until it is pinned too.
constexpr std::size_t kStatsFields = 19;
static_assert(sizeof(TimingStats) == kStatsFields * sizeof(std::uint64_t),
              "TimingStats gained a field: add it to stats_fields and the pinned table");

constexpr std::array<const char*, kStatsFields> kStatsFieldNames = {
    "cycles", "instructions", "scalar_instructions", "vector_instructions",
    "vector_loads", "vector_stores", "vector_macs", "vector_to_scalar_moves",
    "branch_mispredicts", "dispatch_stalls.scalar_operand", "dispatch_stalls.branch_shadow",
    "dispatch_stalls.queue_full", "dispatch_stalls.bandwidth", "mem.scalar_reads",
    "mem.scalar_writes", "mem.vector_reads", "mem.vector_writes", "mem.ifetch_lines",
    "mem.dram_lines"};

std::array<std::uint64_t, kStatsFields> stats_fields(const TimingStats& s) {
  return {s.cycles,
          s.instructions,
          s.scalar_instructions,
          s.vector_instructions,
          s.vector_loads,
          s.vector_stores,
          s.vector_macs,
          s.vector_to_scalar_moves,
          s.branch_mispredicts,
          s.dispatch_stalls.scalar_operand,
          s.dispatch_stalls.branch_shadow,
          s.dispatch_stalls.queue_full,
          s.dispatch_stalls.bandwidth,
          s.mem.scalar_reads,
          s.mem.scalar_writes,
          s.mem.vector_reads,
          s.mem.vector_writes,
          s.mem.ifetch_lines,
          s.mem.dram_lines};
}

/// FNV-1a over each marker's (id, commit cycle, instructions committed).
std::uint64_t marker_digest(const std::vector<MarkerEvent>& markers) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (value >> (8 * byte)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  for (const MarkerEvent& m : markers) {
    mix(static_cast<std::uint64_t>(m.id));
    mix(m.cycle);
    mix(m.instructions);
  }
  return h;
}

/// A hand-written kernel mixing every operand shape the model resolves
/// before execution: scalar loads/stores (4- and 8-byte, forwarded),
/// branches taken and not taken, unit-stride vector loads/stores, vindexmac
/// (indirect vreg), a vector->scalar move and a marker.
constexpr const char* kMixedKernel = R"(
    lui   x1, 1          # x1 = 0x1000 (data)
    addi  x2, x0, 16
    vsetvli x0, x2, e32m1
    vle32.v v8, (x1)
    addi  x3, x1, 256
    addi  x4, x0, 30     # v30 as indirect source
    vmv.v.i v30, 3
    vmv.v.i v2, 1
    vindexmac.vx v12, v2, x4
    vmv.x.s x5, v12
    sw    x5, 64(x1)
    sd    x5, 72(x1)
    ld    x6, 72(x1)
    lw    x7, 64(x1)
    marker 7
    addi  x8, x0, 3
loop:
    addi  x8, x8, -1
    vadd.vi v4, v2, 2
    vse32.v v4, (x3)
    bne   x8, x0, loop
    beq   x8, x8, fallthru   # taken forward branch
    addi  x9, x0, 99
fallthru:
    ebreak
)";

struct PinnedRun {
  TimingStats stats;
  std::vector<MarkerEvent> markers;
};

PinnedRun time_program(const Program& program, MainMemory& mem) {
  TimingSim sim(program, mem, ProcessorConfig{});
  return {sim.run(), sim.markers()};
}

/// tiny.square (16 x 64 x 32, seed 1), exact, with markers on; 1:4 with
/// 16-row B tiles unless told otherwise.
PinnedRun time_tiny_square(core::Algorithm algorithm, unsigned unroll,
                           sparse::Sparsity sp = sparse::kSparsity14, unsigned tile_rows = 16) {
  const auto problem = core::SpmmProblem::random({16, 64, 32}, sp, 1);
  core::RunConfig config;
  config.algorithm = algorithm;
  config.kernel.unroll = unroll;
  config.kernel.emit_markers = true;
  config.tile_rows = tile_rows;
  MainMemory mem;
  const core::PreparedRun run = core::prepare(problem, config, mem);
  return time_program(run.program, mem);
}

PinnedRun time_mixed() {
  MainMemory mem;
  return time_program(assemble_text(kMixedKernel), mem);
}

struct PinnedCase {
  const char* name;
  PinnedRun (*run)();
  std::array<std::uint64_t, kStatsFields> fields;
  std::size_t markers;
  std::uint64_t marker_digest;
};

// A change to this table changes numbers the repo publishes: it needs a
// reason, not a regenerated table. Each row: the nine instruction and event
// counts, then the four dispatch-stall buckets and the six memory counters;
// then the marker count and digest. Dense and SSR kernels exist only at
// unroll 1.
using core::Algorithm;
constexpr PinnedCase kPinned[] = {
    {"dense_u1", [] { return time_tiny_square(Algorithm::kDenseRowwise, 1); },
     {47083, 11296, 2912, 8384, 2176, 32, 2048, 2048, 35,
      522742, 0, 0, 1518086, 0, 0, 2176, 32, 0, 224},
     162, 0x960ec3a1f1d7f617ull},
    {"rowwise_u1", [] { return time_tiny_square(Algorithm::kRowwiseSpmm, 1); },
     {28982, 5066, 1354, 3712, 896, 128, 512, 1024, 11,
      373536, 0, 0, 911393, 0, 0, 896, 128, 0, 192},
     138, 0xcf069fb35bf0fd1cull},
    {"rowwise_u4", [] { return time_tiny_square(Algorithm::kRowwiseSpmm, 4); },
     {17085, 4586, 874, 3712, 896, 128, 512, 1024, 11,
      249729, 0, 0, 602784, 0, 0, 896, 128, 0, 192},
     42, 0x349969f4dcc56a6dull},
    {"indexmac_u1", [] { return time_tiny_square(Algorithm::kIndexmac, 1); },
     {12620, 4182, 1494, 2688, 512, 128, 512, 512, 11,
      96112, 0, 0, 383895, 0, 0, 512, 128, 0, 192},
     138, 0xf429351a7ccefca7ull},
    {"indexmac_u4", [] { return time_tiny_square(Algorithm::kIndexmac, 4); },
     {8822, 3702, 1014, 2688, 512, 128, 512, 512, 11,
      96825, 0, 0, 334355, 0, 0, 512, 128, 0, 192},
     42, 0x58bb0da5189a2e39ull},
    {"indexmac4_u1", [] { return time_tiny_square(Algorithm::kIndexmac4, 1); },
     {8640, 2518, 1622, 896, 384, 128, 512, 0, 11,
      3187, 0, 6604, 184102, 128, 0, 384, 128, 0, 184},
     138, 0x2c01e03761a72409ull},
    {"indexmac4_u4", [] { return time_tiny_square(Algorithm::kIndexmac4, 4); },
     {4426, 2038, 1142, 896, 384, 128, 512, 0, 11,
      2564, 0, 2099, 105204, 128, 0, 384, 128, 0, 184},
     42, 0x98daab1eed5488aeull},
    // Three slots per 8-row tile: the odd slot takes the packed single-row MAC.
    {"indexmac4_u4_3of8_L8",
     [] { return time_tiny_square(Algorithm::kIndexmac4, 4, sparse::Sparsity{3, 8}, 8); },
     {6733, 3780, 2116, 1664, 640, 256, 768, 0, 19,
      3768, 0, 2654, 157996, 256, 0, 640, 256, 0, 200},
     82, 0xc3a3dae440e6d4e1ull},
    {"ssr_u1", [] { return time_tiny_square(Algorithm::kSsr, 1); },
     {8937, 1880, 984, 896, 320, 128, 512, 0, 11,
      140, 0, 8031, 249277, 0, 0, 320, 128, 0, 192},
     138, 0xdd8378a4b706d4a6ull},
    {"mixed", time_mixed,
     {35, 30, 19, 11, 1, 3, 1, 1, 2,
      2, 0, 0, 59, 0, 2, 1, 3, 0, 3},
     1, 0xdac76bb85b4c3755ull},
};

TEST(TimingPinned, EveryStatsFieldAndMarkerStream) {
  for (const PinnedCase& want : kPinned) {
    SCOPED_TRACE(want.name);
    const PinnedRun got = want.run();
    const auto fields = stats_fields(got.stats);
    for (std::size_t i = 0; i < kStatsFields; ++i)
      EXPECT_EQ(fields[i], want.fields[i]) << kStatsFieldNames[i];
    EXPECT_EQ(got.markers.size(), want.markers);
    EXPECT_EQ(marker_digest(got.markers), want.marker_digest);
  }
}

TEST(Timing, ConfigDescribeMentionsTableOneNumbers) {
  const std::string text = ProcessorConfig{}.describe();
  EXPECT_NE(text.find("8-way-issue out-of-order"), std::string::npos);
  EXPECT_NE(text.find("60-entry ROB"), std::string::npos);
  EXPECT_NE(text.find("16-entry LSQ"), std::string::npos);
  EXPECT_NE(text.find("512-bit vector engine"), std::string::npos);
  EXPECT_NE(text.find("512KB"), std::string::npos);
}

}  // namespace
}  // namespace indexmac::timing
