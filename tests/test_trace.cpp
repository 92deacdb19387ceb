// The timing model's walk over the executed instruction stream:
//  * the per-instruction path (unit-stride vector accesses, indirect and
//    streaming MACs, vector->scalar moves, forwarded scalar accesses,
//    branches) and the per-DRAM-line path perform no heap allocation — a
//    counting global allocator covers the whole binary, hence a suite of
//    its own;
//  * a stream that leaves the program raises a SimError naming the pc.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "asm/assembler.h"
#include "asm/text_assembler.h"
#include "common/error.h"
#include "fsim/machine.h"
#include "timing/timing_sim.h"

// ---- counting global allocator (whole test binary) ----

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  ++g_allocations;
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) - 1) &
                                       ~(static_cast<std::size_t>(align) - 1)))
    return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
// The deletes stay out of line: inlined, they would pair operator new's
// result with a bare free(), which GCC's -Wmismatched-new-delete flags.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
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

}  // namespace
}  // namespace indexmac::timing
