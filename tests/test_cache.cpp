// Direct coverage of the timing-side Cache tag array: LRU victim
// selection, dirty-writeback victim address reconstruction, and an
// equivalence check of the MRU-front-path /
// shift-mask implementation against a straightforward reference model
// over randomized access streams.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "mem/cache.h"

namespace indexmac {
namespace {

// A 2-set, 2-way, 64B-line cache: set = bit 6, tag = addr >> 7.
CacheConfig tiny_config() {
  return CacheConfig{.size_bytes = 256, .ways = 2, .line_bytes = 64, .hit_latency = 1};
}

std::uint64_t addr_of(std::uint64_t tag, std::uint64_t set) { return (tag * 2 + set) * 64; }

TEST(Cache, HitsAfterAllocation) {
  Cache cache(tiny_config());
  EXPECT_FALSE(cache.probe(addr_of(1, 0)));
  EXPECT_FALSE(cache.access(addr_of(1, 0), false).hit);
  EXPECT_TRUE(cache.probe(addr_of(1, 0)));
  EXPECT_TRUE(cache.access(addr_of(1, 0), false).hit);
  EXPECT_TRUE(cache.access(addr_of(1, 0) + 63, false).hit);  // same line
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(Cache, LruVictimSelection) {
  Cache cache(tiny_config());
  // Fill set 0 with tags 1 and 2, then re-touch 1 so 2 becomes LRU.
  cache.access(addr_of(1, 0), false);
  cache.access(addr_of(2, 0), false);
  cache.access(addr_of(1, 0), false);
  // Allocating tag 3 must evict tag 2 and keep 1.
  EXPECT_FALSE(cache.access(addr_of(3, 0), false).hit);
  EXPECT_TRUE(cache.probe(addr_of(1, 0)));
  EXPECT_FALSE(cache.probe(addr_of(2, 0)));
  EXPECT_TRUE(cache.probe(addr_of(3, 0)));
  // Set 1 is untouched by all of the above.
  EXPECT_FALSE(cache.probe(addr_of(1, 1)));
}

TEST(Cache, DirtyVictimWritebackAddress) {
  Cache cache(tiny_config());
  const std::uint64_t dirty_addr = addr_of(5, 1) + 12;  // mid-line store
  cache.access(dirty_addr, /*is_store=*/true);
  cache.access(addr_of(6, 1), false);
  // Touch the clean line so the dirty one is LRU, then evict it.
  cache.access(addr_of(6, 1), false);
  const CacheLineResult r = cache.access(addr_of(7, 1), false);
  EXPECT_FALSE(r.hit);
  EXPECT_TRUE(r.writeback);
  EXPECT_EQ(r.victim_addr, addr_of(5, 1));  // line-aligned reconstruction
  EXPECT_EQ(cache.stats().writebacks, 1u);
}

TEST(Cache, CleanVictimHasNoWriteback) {
  Cache cache(tiny_config());
  cache.access(addr_of(1, 0), false);
  cache.access(addr_of(2, 0), false);
  const CacheLineResult r = cache.access(addr_of(3, 0), false);
  EXPECT_FALSE(r.hit);
  EXPECT_FALSE(r.writeback);
}

// ---- randomized equivalence against a reference model ----

/// Straightforward true-LRU set-associative model: no MRU shortcut, no
/// shift/mask tricks, victim = first invalid way else smallest stamp.
class ReferenceCache {
 public:
  explicit ReferenceCache(const CacheConfig& config)
      : config_(config),
        num_sets_(config.size_bytes / config.ways / config.line_bytes),
        sets_(num_sets_) {}

  CacheLineResult access(std::uint64_t addr, bool is_store) {
    auto& set = sets_[(addr / config_.line_bytes) % num_sets_];
    const std::uint64_t tag = addr / config_.line_bytes / num_sets_;
    ++stamp_;
    for (Way& w : set.ways) {
      if (w.valid && w.tag == tag) {
        w.stamp = stamp_;
        w.dirty = w.dirty || is_store;
        return CacheLineResult{.hit = true};
      }
    }
    if (set.ways.size() < config_.ways) {
      set.ways.push_back(Way{tag, stamp_, is_store, true});
      return CacheLineResult{};
    }
    Way* victim = &set.ways.front();
    for (Way& w : set.ways)
      if (w.stamp < victim->stamp) victim = &w;
    CacheLineResult r{};
    if (victim->dirty) {
      r.writeback = true;
      r.victim_addr =
          (victim->tag * num_sets_ + (addr / config_.line_bytes) % num_sets_) *
          config_.line_bytes;
    }
    *victim = Way{tag, stamp_, is_store, true};
    return r;
  }

  [[nodiscard]] bool probe(std::uint64_t addr) const {
    const auto& set = sets_[(addr / config_.line_bytes) % num_sets_];
    const std::uint64_t tag = addr / config_.line_bytes / num_sets_;
    for (const Way& w : set.ways)
      if (w.valid && w.tag == tag) return true;
    return false;
  }

 private:
  struct Way {
    std::uint64_t tag = 0;
    std::uint64_t stamp = 0;
    bool dirty = false;
    bool valid = false;
  };
  struct Set {
    std::vector<Way> ways;
  };

  CacheConfig config_;
  std::uint64_t num_sets_;
  std::vector<Set> sets_;
  std::uint64_t stamp_ = 0;
};

class CacheEquivalence : public ::testing::TestWithParam<CacheConfig> {};

TEST_P(CacheEquivalence, MatchesReferenceOnRandomStream) {
  const CacheConfig config = GetParam();
  Cache cache(config);
  ReferenceCache reference(config);
  std::mt19937 rng(12345);
  // Working set a few times the cache size, with a bias toward re-touching
  // recent addresses so the MRU fast path is exercised both ways.
  const std::uint64_t span = 4 * config.size_bytes;
  std::uniform_int_distribution<std::uint64_t> pick_addr(0, span - 1);
  std::uniform_int_distribution<int> pick_kind(0, 9);
  std::uint64_t last_addr = 0;
  for (int i = 0; i < 20000; ++i) {
    const int kind = pick_kind(rng);
    std::uint64_t addr = kind < 4 ? last_addr + (kind == 0 ? 0 : 4 * kind) : pick_addr(rng);
    last_addr = addr;
    const bool is_store = kind % 3 == 0;
    const CacheLineResult got = cache.access(addr, is_store);
    const CacheLineResult want = reference.access(addr, is_store);
    ASSERT_EQ(got.hit, want.hit) << "access " << i << " addr " << addr;
    ASSERT_EQ(got.writeback, want.writeback) << "access " << i << " addr " << addr;
    if (want.writeback) {
      ASSERT_EQ(got.victim_addr, want.victim_addr) << "access " << i << " addr " << addr;
    }
    if (i % 97 == 0) {
      const std::uint64_t probe_addr = pick_addr(rng);
      ASSERT_EQ(cache.probe(probe_addr), reference.probe(probe_addr)) << "probe at " << i;
    }
  }
  EXPECT_EQ(cache.stats().hits + cache.stats().misses, 20000u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheEquivalence,
    ::testing::Values(
        CacheConfig{.size_bytes = 256, .ways = 2, .line_bytes = 64, .hit_latency = 1},
        CacheConfig{.size_bytes = 1024, .ways = 1, .line_bytes = 32, .hit_latency = 1},
        CacheConfig{.size_bytes = 4096, .ways = 4, .line_bytes = 64, .hit_latency = 2},
        CacheConfig{.size_bytes = 8192, .ways = 8, .line_bytes = 64, .hit_latency = 8}),
    [](const auto& info) {
      return std::string("s") + std::to_string(info.param.size_bytes) + "w" +
             std::to_string(info.param.ways) + "l" + std::to_string(info.param.line_bytes);
    });

}  // namespace
}  // namespace indexmac
