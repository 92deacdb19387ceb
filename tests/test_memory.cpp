#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "mem/cache.h"
#include "mem/main_memory.h"
#include "mem/memory_system.h"

namespace indexmac {
namespace {

// ---------- MainMemory ----------

TEST(MainMemory, ZeroFilledByDefault) {
  MainMemory mem;
  EXPECT_EQ(mem.read_u32(0x1234), 0u);
  EXPECT_EQ(mem.read_u64(0xdeadbeef), 0u);
  EXPECT_EQ(mem.page_count(), 0u);
}

TEST(MainMemory, ReadBackWrittenValues) {
  MainMemory mem;
  mem.write_u32(0x100, 0xcafebabe);
  mem.write_u64(0x108, 0x1122334455667788ull);
  EXPECT_EQ(mem.read_u32(0x100), 0xcafebabeu);
  EXPECT_EQ(mem.read_u64(0x108), 0x1122334455667788ull);
}

TEST(MainMemory, LittleEndianLayout) {
  MainMemory mem;
  mem.write_u32(0x200, 0x04030201);
  EXPECT_EQ(mem.read_u8(0x200), 1);
  EXPECT_EQ(mem.read_u8(0x203), 4);
}

TEST(MainMemory, CrossPageAccess) {
  MainMemory mem;
  const std::uint64_t addr = MainMemory::kPageBytes - 2;
  mem.write_u32(addr, 0xa1b2c3d4);
  EXPECT_EQ(mem.read_u32(addr), 0xa1b2c3d4u);
  EXPECT_EQ(mem.page_count(), 2u);
}

TEST(MainMemory, FloatRoundTrip) {
  MainMemory mem;
  mem.write_f32(0x40, 3.14159f);
  EXPECT_FLOAT_EQ(mem.read_f32(0x40), 3.14159f);
}

TEST(MainMemory, BulkF32AndI32Helpers) {
  MainMemory mem;
  const std::vector<float> fs = {1.0f, -2.5f, 0.0f, 7.25f};
  const std::vector<std::int32_t> is = {-1, 2, 300000, -400000};
  mem.write_f32s(0x1000, fs);
  mem.write_i32s(0x2000, is);
  EXPECT_EQ(mem.read_f32s(0x1000, 4), fs);
  EXPECT_EQ(mem.read_i32s(0x2000, 4), is);
}

TEST(MainMemory, BulkWritesAcrossPageBoundariesAreBitExact) {
  // The array writers store one page's run per block write. Start 8 bytes
  // before a boundary (words end exactly at it) and 2 bytes before (one
  // word straddles it); spanning two boundaries covers a whole middle page.
  const std::size_t count = 2 * MainMemory::kPageBytes / 4;
  std::vector<float> fs(count);
  std::vector<std::int32_t> is(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto bits = static_cast<std::uint32_t>(0x9e3779b9u * (i + 1));
    std::memcpy(&fs[i], &bits, 4);  // arbitrary patterns, NaN payloads included
    is[i] = static_cast<std::int32_t>(~bits);
  }
  for (const std::uint64_t before : {8u, 2u}) {
    const std::uint64_t addr = 5 * MainMemory::kPageBytes - before;
    MainMemory f_mem;
    MainMemory i_mem;
    f_mem.write_f32s(addr, fs);
    i_mem.write_i32s(addr, is);
    for (std::size_t i = 0; i < count; ++i) {
      std::uint32_t bits;
      std::memcpy(&bits, &fs[i], 4);
      ASSERT_EQ(f_mem.read_u32(addr + 4 * i), bits) << "before " << before << ", word " << i;
      ASSERT_EQ(i_mem.read_u32(addr + 4 * i), static_cast<std::uint32_t>(is[i]))
          << "before " << before << ", word " << i;
    }
    for (const MainMemory* mem : {&f_mem, &i_mem}) {
      EXPECT_EQ(mem->read_u32(addr - 4), 0u) << "before " << before;
      EXPECT_EQ(mem->read_u32(addr + 4 * count), 0u) << "before " << before;
    }
  }
}

TEST(AddressAllocator, AlignsAndAdvances) {
  AddressAllocator alloc(0x1000, 64);
  const auto a = alloc.alloc(10);
  const auto b = alloc.alloc(100);
  EXPECT_EQ(a % 64, 0u);
  EXPECT_EQ(b % 64, 0u);
  EXPECT_GE(b, a + 10);
  EXPECT_THROW((void)alloc.alloc(0), SimError);
}

// ---------- Cache ----------

CacheConfig small_cache() {
  return CacheConfig{.size_bytes = 1024, .ways = 2, .line_bytes = 64, .hit_latency = 2};
}

TEST(Cache, MissThenHit) {
  Cache c(small_cache());
  EXPECT_FALSE(c.access(0x0, false).hit);
  EXPECT_TRUE(c.access(0x0, false).hit);
  EXPECT_TRUE(c.access(0x3c, false).hit);  // same line
  EXPECT_EQ(c.stats().hits, 2u);
  EXPECT_EQ(c.stats().misses, 1u);
}

TEST(Cache, LruEviction) {
  Cache c(small_cache());  // 8 sets, 2 ways
  // Three lines mapping to set 0: stride = sets * line = 512 bytes.
  (void)c.access(0x000, false);
  (void)c.access(0x200, false);
  (void)c.access(0x000, false);  // refresh line 0
  (void)c.access(0x400, false);  // evicts 0x200 (LRU)
  EXPECT_TRUE(c.probe(0x000));
  EXPECT_FALSE(c.probe(0x200));
  EXPECT_TRUE(c.probe(0x400));
}

TEST(Cache, DirtyEvictionReportsWriteback) {
  Cache c(small_cache());
  (void)c.access(0x000, true);  // dirty
  (void)c.access(0x200, false);
  const CacheLineResult r = c.access(0x400, false);  // evicts dirty 0x000
  EXPECT_TRUE(r.writeback);
  EXPECT_EQ(r.victim_addr, 0x000u);
  EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, CleanEvictionHasNoWriteback) {
  Cache c(small_cache());
  (void)c.access(0x000, false);
  (void)c.access(0x200, false);
  const CacheLineResult r = c.access(0x400, false);
  EXPECT_FALSE(r.writeback);
}

TEST(Cache, WriteHitMarksDirty) {
  Cache c(small_cache());
  (void)c.access(0x000, false);
  (void)c.access(0x000, true);  // now dirty
  (void)c.access(0x200, false);
  const CacheLineResult r = c.access(0x400, false);
  EXPECT_TRUE(r.writeback);
}

TEST(Cache, RejectsBadGeometry) {
  EXPECT_THROW(Cache(CacheConfig{.size_bytes = 1000, .ways = 3, .line_bytes = 60}), SimError);
}

// ---------- MemorySystem ----------

MemHierConfig test_hier() { return MemHierConfig{}; }

TEST(MemorySystem, L1HitLatency) {
  MemorySystem ms(test_hier());
  (void)ms.scalar_data(0x100, 4, false, 0);           // cold miss warms the line
  const std::uint64_t done = ms.scalar_data(0x100, 4, false, 1000);
  EXPECT_EQ(done, 1000 + 2);  // L1D hit latency from Table I
}

TEST(MemorySystem, HitUnderFillWaitsForDram) {
  MemorySystem ms(test_hier());
  const std::uint64_t fill_done = ms.scalar_data(0x100, 4, false, 0);
  // A second access during the fill cannot complete before the data arrives.
  const std::uint64_t done = ms.scalar_data(0x100, 4, false, 10);
  EXPECT_EQ(done, fill_done);
}

TEST(MemorySystem, ColdMissGoesToDram) {
  MemorySystem ms(test_hier());
  const std::uint64_t done = ms.scalar_data(0x100, 4, false, 0);
  // L1 tag (2) + L2 tag (8) + DRAM latency (100).
  EXPECT_GE(done, 100u);
}

TEST(MemorySystem, L2HitAfterL1Eviction) {
  MemorySystem ms(test_hier());
  (void)ms.scalar_data(0x100, 4, false, 0);
  // Evict from 64KB 4-way L1 by touching 5 conflicting lines (stride = 16KB).
  for (int i = 1; i <= 4; ++i) (void)ms.scalar_data(0x100 + i * 16384, 4, false, 1000 * i);
  const std::uint64_t done = ms.scalar_data(0x100, 4, false, 100000);
  EXPECT_EQ(done, 100000 + 2 + 8);  // L1 miss -> L2 hit
}

TEST(MemorySystem, VectorAccessBypassesL1) {
  MemorySystem ms(test_hier());
  (void)ms.vector_data(0x100, 64, false, 0);  // warm L2
  const std::uint64_t done = ms.vector_data(0x100, 64, false, 1000);
  EXPECT_EQ(done, 1000 + 8);  // direct L2 hit, no L1 latency added
  EXPECT_EQ(ms.stats().vector_reads, 2u);
  EXPECT_EQ(ms.stats().scalar_reads, 0u);
  EXPECT_FALSE(ms.l1d().probe(0x100));  // vector path must not touch L1D
}

TEST(MemorySystem, InFlightMissesMerge) {
  MemorySystem ms(test_hier());
  const std::uint64_t first = ms.vector_data(0x100, 64, false, 0);
  const std::uint64_t second = ms.vector_data(0x100, 64, false, 1);
  EXPECT_EQ(second, first);  // merged with the in-flight fill
  EXPECT_EQ(ms.stats().dram_lines, 1u);
}

TEST(MemorySystem, BankConflictSerializes) {
  MemorySystem ms(test_hier());
  // Warm both lines (same bank: stride of banks * line = 512).
  (void)ms.vector_data(0x000, 64, false, 0);
  (void)ms.vector_data(0x200, 64, false, 0);
  const std::uint64_t t1 = ms.vector_data(0x000, 64, false, 10000);
  const std::uint64_t t2 = ms.vector_data(0x200, 64, false, 10000);
  EXPECT_EQ(t1, 10000 + 8);
  EXPECT_EQ(t2, 10000 + 2 + 8);  // waited for the bank occupancy
}

TEST(MemorySystem, DifferentBanksProceedInParallel) {
  MemorySystem ms(test_hier());
  (void)ms.vector_data(0x000, 64, false, 0);
  (void)ms.vector_data(0x040, 64, false, 0);  // adjacent line -> next bank
  const std::uint64_t t1 = ms.vector_data(0x000, 64, false, 10000);
  const std::uint64_t t2 = ms.vector_data(0x040, 64, false, 10000);
  EXPECT_EQ(t1, t2);
}

TEST(MemorySystem, UnalignedVectorAccessTouchesTwoLines) {
  MemorySystem ms(test_hier());
  (void)ms.vector_data(0x20, 64, false, 0);  // spans lines 0x00 and 0x40
  EXPECT_EQ(ms.stats().dram_lines, 2u);
}

TEST(MemorySystem, StatsAccumulateAndSubtract) {
  MemorySystem ms(test_hier());
  (void)ms.scalar_data(0x100, 8, true, 0);
  (void)ms.vector_data(0x200, 64, true, 0);
  const MemStats snap = ms.stats();
  (void)ms.scalar_data(0x300, 8, false, 0);
  const MemStats delta = ms.stats() - snap;
  EXPECT_EQ(delta.scalar_reads, 1u);
  EXPECT_EQ(delta.scalar_writes, 0u);
  EXPECT_EQ(snap.scalar_writes, 1u);
  EXPECT_EQ(snap.vector_writes, 1u);
  EXPECT_EQ(snap.data_accesses(), 2u);
}

TEST(MemorySystem, DramChannelOccupancySerializesStreams) {
  MemorySystem ms(test_hier());
  // Two cold misses to different banks still share the DRAM channel.
  const std::uint64_t t1 = ms.vector_data(0x000, 64, false, 0);
  const std::uint64_t t2 = ms.vector_data(0x040, 64, false, 0);
  EXPECT_EQ(t2 - t1, MemHierConfig{}.dram_line_occupancy);
}

}  // namespace
}  // namespace indexmac
