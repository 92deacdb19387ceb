// Heap behaviour, watched by a counting global allocator that covers the
// whole binary (hence a suite of its own), and the timing model's walk
// over the executed instruction stream:
//  * the timing model's per-instruction path (unit-stride vector accesses,
//    indirect and streaming MACs, vector->scalar moves, forwarded scalar
//    accesses, branches) and its per-DRAM-line path perform no heap
//    allocation;
//  * building a problem and preparing its memory image hold no full-size
//    temporary: the live-byte high-water mark stays within what they
//    leave behind plus one block, k-tile or row of working buffers, and
//    preparing it from the seed adds at most one group of drawn rows;
//  * a stream that leaves the program raises a SimError naming the pc.
#include <gtest/gtest.h>
#include <malloc.h>  // malloc_usable_size

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>

#include "asm/assembler.h"
#include "asm/text_assembler.h"
#include "common/error.h"
#include "core/spmm_problem.h"
#include "fsim/machine.h"
#include "timing/timing_sim.h"

// ---- counting global allocator (whole test binary) ----

namespace {
std::atomic<std::uint64_t> g_allocations{0};
// Live heap bytes, as malloc_usable_size counts them, and their high-water
// mark.
std::atomic<std::uint64_t> g_live_bytes{0};
std::atomic<std::uint64_t> g_peak_bytes{0};

void* counted(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  ++g_allocations;
  const std::uint64_t live = g_live_bytes += malloc_usable_size(p);
  std::uint64_t peak = g_peak_bytes.load();
  while (live > peak && !g_peak_bytes.compare_exchange_weak(peak, live)) {
  }
  return p;
}

void release(void* p) noexcept {
  g_live_bytes -= malloc_usable_size(p);
  std::free(p);
}
}  // namespace

void* operator new(std::size_t size) { return counted(std::malloc(size ? size : 1)); }
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted(std::aligned_alloc(static_cast<std::size_t>(align),
                                    (size + static_cast<std::size_t>(align) - 1) &
                                        ~(static_cast<std::size_t>(align) - 1)));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
// The deletes stay out of line: inlined, they would pair operator new's
// result with a bare free(), which GCC's -Wmismatched-new-delete flags.
[[gnu::noinline]] void operator delete(void* p) noexcept { release(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { release(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { release(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { release(p); }
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept { release(p); }
[[gnu::noinline]] void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}

namespace indexmac::timing {
namespace {

TEST(TraceStream, PcOutsideProgramRaisesNamingThePc) {
  // Below the base, misaligned inside the range, and past the end.
  for (const std::uint64_t target : {0x10ull, 0x1002ull, 0x40000ull}) {
    Assembler a;
    a.li(x(1), static_cast<std::int64_t>(target));
    a.jalr(x(0), x(1), 0);
    a.ebreak();
    MainMemory mem;
    const Program p = a.finish();
    char want[128];
    std::snprintf(want, sizeof want,
                  "timing: execution left the program: pc 0x%llx (outside program "
                  "[0x1000, 0x%llx))",
                  static_cast<unsigned long long>(target),
                  static_cast<unsigned long long>(p.end()));
    TimingSim sim(p, mem, ProcessorConfig{});
    try {
      (void)sim.run();
      ADD_FAILURE() << "no SimError for pc 0x" << std::hex << target;
    } catch (const SimError& e) {
      EXPECT_EQ(std::string(e.what()), want);
    }
  }
}

/// Heap allocations made by constructing and running a TimingSim.
std::uint64_t allocations_of_timing_run(const Program& program, MainMemory& mem,
                                        TimingStats& stats) {
  const std::uint64_t before = g_allocations.load();
  TimingSim sim(program, mem, ProcessorConfig{});
  stats = sim.run();
  return g_allocations.load() - before;
}

/// A loop over a fixed 1 KB footprint that runs unit-stride vector
/// loads/stores, an indirect and a streaming MAC, a vector->scalar move, a
/// forwarded store/load pair and a branch on every trip.
Program vector_loop(MainMemory& mem, unsigned trips) {
  for (int i = 0; i < 4; ++i) {
    mem.write_u32(0x1200 + 4 * i, 0);  // value stream
    mem.write_u32(0x1300 + 4 * i, 8);  // index stream -> v8
  }
  const std::string source = R"(
      lui   x1, 1
      addi  x2, x0, 16
      vsetvli x0, x2, e32m1
      addi  x3, x1, 256
      addi  x4, x0, 30
      addi  x10, x1, 512
      addi  x11, x1, 768
      addi  x12, x0, 4
      ssrcfg 0, x10, x12
      ssrcfg 1, x11, x12
      addi  x12, x0, 3
      ssren x12
      addi  x9, x0, )" + std::to_string(trips) + R"(
  loop:
      vle32.v v4, (x3)
      vindexmac.vx v12, v2, x4
      vindexmacs.v v2
      vmv.x.s x5, v12
      sw    x5, 64(x1)
      lw    x6, 64(x1)
      vse32.v v4, (x3)
      addi  x9, x9, -1
      bne   x9, x0, loop
      ebreak
  )";
  Program program = assemble_text(source);
  Machine warmup(program, mem);  // first-touch page allocation is setup, not per instruction
  EXPECT_EQ(warmup.run(), StopReason::kEbreak);
  return program;
}

TEST(TraceAllocation, NoHeapAllocationPerInstruction) {
  // The same footprint at two trip counts: every per-instruction path must
  // leave the allocation count unchanged. The footprint is fixed, so both
  // runs fill the same DRAM lines; NoHeapAllocationPerDramLine varies those.
  MainMemory short_mem;
  MainMemory long_mem;
  const Program short_program = vector_loop(short_mem, 8);
  const Program long_program = vector_loop(long_mem, 512);
  TimingStats short_stats;
  TimingStats long_stats;
  const std::uint64_t short_allocs =
      allocations_of_timing_run(short_program, short_mem, short_stats);
  const std::uint64_t long_allocs = allocations_of_timing_run(long_program, long_mem, long_stats);
  EXPECT_GT(long_stats.instructions, 50 * short_stats.instructions);
  EXPECT_EQ(long_stats.mem.dram_lines, short_stats.mem.dram_lines);
  EXPECT_EQ(long_allocs, short_allocs)
      << short_stats.instructions << " vs " << long_stats.instructions << " instructions";
}

/// A vle32 stream over `bytes` (a multiple of 4 KiB) of untouched memory
/// from 1 MiB up, one 64-byte line per trip: every load misses to DRAM.
Program vle32_stream(std::uint64_t bytes) {
  const std::string source = R"(
      addi  x2, x0, 16
      vsetvli x0, x2, e32m1
      lui   x1, 256
      lui   x3, )" + std::to_string(bytes / 4096) + R"(
      add   x3, x1, x3
  loop:
      vle32.v v4, (x1)
      addi  x1, x1, 64
      bne   x1, x3, loop
      ebreak
  )";
  return assemble_text(source);
}

TEST(TraceAllocation, NoHeapAllocationPerDramLine) {
  // 1,024 and 16,384 DRAM lines: the larger run passes the in-flight-fill
  // table's 4,096-fill bound several times and must still allocate exactly
  // what the smaller one does. Loads of untouched memory materialize no
  // pages, so the functional side allocates nothing per line either.
  const Program small_program = vle32_stream(64 * 1024);
  const Program large_program = vle32_stream(1024 * 1024);
  MainMemory small_mem;
  MainMemory large_mem;
  TimingStats small_stats;
  TimingStats large_stats;
  const std::uint64_t small_allocs =
      allocations_of_timing_run(small_program, small_mem, small_stats);
  const std::uint64_t large_allocs =
      allocations_of_timing_run(large_program, large_mem, large_stats);
  EXPECT_EQ(small_stats.mem.dram_lines, 1024u);
  EXPECT_EQ(large_stats.mem.dram_lines, 16384u);
  EXPECT_EQ(large_allocs, small_allocs);
  EXPECT_EQ(small_mem.page_count(), 0u);
  EXPECT_EQ(large_mem.page_count(), 0u);
}

/// Heap bytes that `body` leaves live, and the most it held live at once,
/// both above the live bytes at its start.
struct HeapUse {
  std::uint64_t peak = 0;
  std::uint64_t after = 0;
};

template <typename Body>
HeapUse heap_use(Body&& body) {
  const std::uint64_t start = g_live_bytes.load();
  g_peak_bytes = start;
  body();
  return {g_peak_bytes.load() - start, g_live_bytes.load() - start};
}

/// 256 x 4096 x 8 at 2:4. A dense A would take 4 MiB; its NmMatrix takes
/// 2.5 MiB, and its packed streams 2 MiB each.
constexpr kernels::GemmDims kPeakDims{256, 4096, 8};

TEST(PeakHeap, ProblemHoldsOneBlockBesideItself) {
  std::optional<core::SpmmProblem> problem;
  const HeapUse use = heap_use([&] {
    problem.emplace(core::SpmmProblem::random(kPeakDims, sparse::kSparsity24, 1));
  });
  EXPECT_GT(use.after, 2u << 20);
  // One block's buffers: M values and M keep flags, with malloc's rounding.
  EXPECT_LE(use.peak, use.after + 256) << "problem " << use.after << " B";
}

TEST(PeakHeap, PrepareHoldsOneKtileOrRowBesideTheImage) {
  const auto problem = core::SpmmProblem::random(kPeakDims, sparse::kSparsity24, 1);
  for (const core::AlgorithmRow& family : core::algorithm_table()) {
    MainMemory mem;
    std::optional<core::PreparedRun> run;
    const HeapUse use = heap_use([&] {
      run.emplace(core::prepare(problem, {.algorithm = family.algorithm, .kernel = {.unroll = 1}},
                                mem));
    });
    EXPECT_GT(use.after, 2u << 20) << family.id;
    // One k-tile of both packed streams (256 rows x 8 slots x 4 B each) or
    // one dense A row (4096 x 4 B), plus 4 KiB for emitting the program.
    const std::uint64_t buffers = family.dense_operands ? 4096 * 4 : 2 * 256 * 8 * 4;
    EXPECT_LE(use.peak, use.after + buffers + 4096)
        << family.id << ": image and program " << use.after << " B";
  }
}

TEST(PeakHeap, SeedPrepareHoldsOneRowGroupBesideTheImage) {
  // No problem exists: prepare draws kDrawGroupRows rows of A at a time,
  // each row's 2,048 slots as a value and an index byte, then writes one
  // k-tile's run of the group (64 rows x 8 slots x 4 B in each stream) or
  // one dense A row (4096 x 4 B) at a time, and B one row at a time. Each
  // of the two group buffers may round up to a page.
  const std::uint64_t group = core::kDrawGroupRows * 2048 * (4 + 1) + 2 * 4096;
  for (const core::AlgorithmRow& family : core::algorithm_table()) {
    MainMemory mem;
    std::optional<core::PreparedRun> run;
    const HeapUse use = heap_use([&] {
      run.emplace(core::prepare(kPeakDims, sparse::kSparsity24, 1,
                                {.algorithm = family.algorithm, .kernel = {.unroll = 1}}, mem));
    });
    EXPECT_GT(use.after, 2u << 20) << family.id;
    const std::uint64_t buffers =
        group + (family.dense_operands ? 4096 * 4 : 2 * 64 * 8 * 4) + kPeakDims.cols_b * 4;
    EXPECT_LE(use.peak, use.after + buffers + 4096)
        << family.id << ": image and program " << use.after << " B, peak " << use.peak << " B";
  }
}

}  // namespace
}  // namespace indexmac::timing
