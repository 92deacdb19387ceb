#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <random>
#include <unordered_map>
#include <unordered_set>
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
  // Unaligned words show each byte's place: the lowest address holds the
  // least significant byte.
  EXPECT_EQ(mem.read_u32(0x201), 0x00040302u);
  EXPECT_EQ(mem.read_u32(0x203), 0x00000004u);
  EXPECT_EQ(mem.read_u32(0x1ff), 0x03020100u);
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

TEST(MainMemory, TheLastWordBelowTheAddressLimitRoundTrips) {
  MainMemory mem;
  const std::uint64_t addr = MainMemory::kAddressLimit - 4;  // the root table's last slot
  mem.write_u32(addr, 0x89abcdef);
  EXPECT_EQ(mem.read_u32(addr), 0x89abcdefu);
  EXPECT_EQ(mem.read_u32(addr - 4), 0u);
  EXPECT_EQ(mem.page_count(), 1u);
}

TEST(MainMemory, AccessesPastTheAddressLimitRaiseBeforeTouchingMemory) {
  constexpr std::uint64_t kLimit = MainMemory::kAddressLimit;
  MainMemory mem;
  std::array<std::uint32_t, 16> words{};
  try {
    (void)mem.read_u32(kLimit - 2);
    ADD_FAILURE() << "read_u32 past the limit did not raise";
  } catch (const SimError& e) {
    EXPECT_STREQ(e.what(),
                 "memory access past the 48-bit address space: 4 bytes at 0xfffffffffffe");
  }
  EXPECT_THROW(mem.write_u32(kLimit - 2, 1), SimError);
  EXPECT_THROW(mem.read_u32_block(kLimit - 32, words.data(), 16), SimError);
  EXPECT_THROW(mem.write_u32_block(kLimit - 32, words.data(), 16), SimError);
  EXPECT_EQ(mem.page_count(), 0u);
  // A block of zero words touches no byte, so it passes at any address.
  for (const std::uint64_t addr : {kLimit, ~std::uint64_t{63}}) {
    mem.read_u32_block(addr, words.data(), 0);
    mem.write_u32_block(addr, words.data(), 0);
  }
  EXPECT_EQ(mem.page_count(), 0u);
}

TEST(MainMemory, ReadsAcrossIntoAnUntouchedPageReturnZeros) {
  MainMemory mem;
  const std::uint64_t addr = 3 * MainMemory::kPageBytes - 32;  // 8 words before a boundary
  const std::array<std::uint32_t, 8> written = {1, 2, 3, 4, 5, 6, 7, 8};
  mem.write_u32_block(addr, written.data(), written.size());
  std::array<std::uint32_t, 16> got;
  got.fill(~0u);
  mem.read_u32_block(addr, got.data(), got.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got[i], i < written.size() ? written[i] : 0u) << "word " << i;
  EXPECT_EQ(mem.page_count(), 1u);
}

TEST(AddressAllocator, AlignsAndAdvances) {
  AddressAllocator alloc;
  const auto a = alloc.alloc(10);
  const auto b = alloc.alloc(100);
  const auto c = alloc.alloc(64);
  EXPECT_EQ(a, AddressAllocator::kStart);
  EXPECT_EQ(b, a + AddressAllocator::kAlign);
  EXPECT_EQ(c, b + 2 * AddressAllocator::kAlign);
  EXPECT_EQ(b % AddressAllocator::kAlign, 0u);
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

TEST(MemorySystem, RejectsABankCountThatIsNotAPowerOfTwo) {
  for (const unsigned banks : {0u, 3u, 6u}) {
    MemHierConfig config;
    config.l2_banks = banks;
    EXPECT_THROW(MemorySystem{config}, SimError) << banks;
  }
  MemHierConfig one_bank;
  one_bank.l2_banks = 1;
  MemorySystem ms(one_bank);
  (void)ms.vector_data(0x000, 64, false, 0);
  (void)ms.vector_data(0x040, 64, false, 0);
  // Adjacent lines share the only bank: the second waits out the first.
  const std::uint64_t t1 = ms.vector_data(0x000, 64, false, 10000);
  const std::uint64_t t2 = ms.vector_data(0x040, 64, false, 10000);
  EXPECT_EQ(t2, t1 + one_bank.l2_bank_occupancy);
}

TEST(MemorySystem, HitUnderFillWaitsUntilTheFillsStartOver) {
  // A tag hit on a line whose fill is still pending waits for the fill as
  // long as the in-flight fills hold it: through 4,096 newer distinct
  // lines. The 4,097th starts the fills over, and the same hit no longer
  // waits. The line is filled late and the newer lines are requested at
  // cycle 0, in other banks, so neither a bank nor the channel delays the
  // hits.
  MemorySystem ms(test_hier());
  constexpr std::uint64_t kLate = 1'000'000;
  const std::uint64_t ready = ms.vector_data(0x000, 64, false, kLate);  // line 0: bank 0, set 0
  const auto fill_newer = [&](std::uint64_t i) {
    const std::uint64_t line = 8 * (i / 7) + 1 + i % 7;  // never a multiple of 8: banks 1-7
    (void)ms.vector_data(64 * line, 64, false, 0);
  };
  for (std::uint64_t i = 0; i < 4096; ++i) fill_newer(i);
  const unsigned hit = test_hier().l2.hit_latency;
  ASSERT_LT(kLate + 50 + hit, ready);
  EXPECT_EQ(ms.vector_data(0x000, 64, false, kLate + 50), ready);
  fill_newer(4096);
  EXPECT_EQ(ms.vector_data(0x000, 64, false, kLate + 60), kLate + 60 + hit);
  EXPECT_EQ(ms.stats().dram_lines, 4098u);
  EXPECT_EQ(ms.l2().stats().hits, 2u);
}

// ---------- Dram: the fixed in-flight-fill table ----------

/// Dram's line/pending_fill as they were on a std::unordered_map, kept as
/// the reference for the fixed table: a pending fill merges, an expired one
/// is erased and replaced, and the whole map is cleared when a new line
/// arrives while it holds more than 4,096 fills.
class HashMapDram {
 public:
  HashMapDram(unsigned latency, unsigned occupancy) : latency_(latency), occupancy_(occupancy) {}

  std::uint64_t line(std::uint64_t line_addr, std::uint64_t cycle) {
    if (const auto it = fills_.find(line_addr); it != fills_.end()) {
      if (cycle < it->second) {
        ++merges;
        return it->second;
      }
      fills_.erase(it);
      ++expired;
    }
    const std::uint64_t start = std::max(cycle, channel_free_);
    channel_free_ = start + occupancy_;
    const std::uint64_t ready = start + latency_;
    ++lines;
    if (fills_.size() > 4096) {
      fills_.clear();
      ++clears;
    }
    fills_[line_addr] = ready;
    max_ready_ = std::max(max_ready_, ready);
    return ready;
  }

  std::uint64_t pending_fill(std::uint64_t line_addr, std::uint64_t cycle) {
    if (cycle >= max_ready_) return cycle;
    const auto it = fills_.find(line_addr);
    if (it == fills_.end() || cycle >= it->second) return cycle;
    ++waits;
    return it->second;
  }

  std::uint64_t lines = 0, merges = 0, expired = 0, clears = 0, waits = 0;

 private:
  std::uint64_t latency_;
  std::uint64_t occupancy_;
  std::uint64_t channel_free_ = 0;
  std::unordered_map<std::uint64_t, std::uint64_t> fills_;
  std::uint64_t max_ready_ = 0;
};

TEST(Dram, FixedTableMatchesTheHashMapItReplaced) {
  // Seeded streams over 32,768 distinct lines: half the requests re-touch
  // one of the last 64 lines (merges, waits, expired fills), and a quarter
  // start up to 400 cycles before the previous one. Every returned cycle
  // and the line count must match the reference at every step.
  struct Stream {
    std::uint32_t seed;
    unsigned latency, occupancy;
  };
  for (const Stream& st : {Stream{1, 100, 7}, Stream{2, 300, 2}, Stream{3, 20, 40}}) {
    SCOPED_TRACE("seed " + std::to_string(st.seed));
    Dram dram(st.latency, st.occupancy);
    HashMapDram reference(st.latency, st.occupancy);
    std::mt19937_64 rng(st.seed);
    std::vector<std::uint64_t> pool;
    std::unordered_set<std::uint64_t> in_pool;
    while (pool.size() < 32768) {
      const std::uint64_t line = (rng() & ((std::uint64_t{1} << 34) - 1)) << 6;
      if (in_pool.insert(line).second) pool.push_back(line);
    }
    std::array<std::uint64_t, 64> recent{};
    std::unordered_set<std::uint64_t> filled;
    std::uint64_t now = 1000;
    for (std::uint64_t step = 0; step < 160000; ++step) {
      now += rng() % 16;
      const std::uint64_t back = rng() % 4 == 0 ? std::min<std::uint64_t>(now, rng() % 400) : 0;
      const std::uint64_t cycle = now - back;
      const std::uint64_t line =
          rng() % 2 == 0 ? recent[rng() % recent.size()] : pool[rng() % pool.size()];
      if (rng() % 3 == 0) {
        ASSERT_EQ(dram.pending_fill(line, cycle), reference.pending_fill(line, cycle)) << step;
      } else {
        ASSERT_EQ(dram.line(line, cycle), reference.line(line, cycle)) << step;
        filled.insert(line);
        recent[step % recent.size()] = line;
      }
      ASSERT_EQ(dram.lines(), reference.lines) << step;
    }
    EXPECT_GE(filled.size(), 20000u);
    EXPECT_GE(reference.clears, 3u);
    EXPECT_GT(reference.merges, 0u);
    EXPECT_GT(reference.expired, 0u);
    EXPECT_GT(reference.waits, 0u);
  }
}

}  // namespace
}  // namespace indexmac
