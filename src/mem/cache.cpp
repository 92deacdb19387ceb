#include "mem/cache.h"

namespace indexmac {

Cache::Cache(const CacheConfig& config) : config_(config) {
  IMAC_CHECK(config.ways > 0, "cache must have at least one way");
  IMAC_CHECK(is_pow2(config.line_bytes), "cache line size must be a power of two");
  IMAC_CHECK(config.size_bytes % (static_cast<std::uint64_t>(config.ways) * config.line_bytes) == 0,
             "cache size must divide evenly into sets");
  num_sets_ = config.size_bytes / config.ways / config.line_bytes;
  IMAC_CHECK(is_pow2(num_sets_), "number of sets must be a power of two");
  line_shift_ = log2_exact(config.line_bytes);
  set_shift_ = log2_exact(num_sets_);
  set_mask_ = num_sets_ - 1;
  tags_.assign(num_sets_ * config.ways, 0);
  stamps_.assign(num_sets_ * config.ways, 0);
  dirty_.assign(num_sets_ * config.ways, 0);
  front_.assign(num_sets_, Front{.tag = 0, .way = config.ways});  // no line yet
}

CacheLineResult Cache::access_set(std::uint64_t set, std::uint64_t tag, bool is_store) {
  const unsigned ways = config_.ways;
  const std::uint64_t first = set * ways;
  std::uint64_t* const tags = &tags_[first];
  std::uint64_t* const stamps = &stamps_[first];
  std::uint8_t* const dirty = &dirty_[first];
  const std::uint64_t now = tick_;
  Front& front = front_[set];
  for (std::uint32_t w = 0; w < ways; ++w) {
    if (w != front.way && tags[w] == tag && stamps[w] != 0) {
      stamps[w] = now;
      if (is_store) dirty[w] = 1;
      front = Front{.tag = tag, .way = w};
      ++stats_.hits;
      return CacheLineResult{.hit = true};
    }
  }
  ++stats_.misses;

  // Choose victim: an invalid way, else true LRU.
  std::uint32_t victim = 0;
  for (std::uint32_t w = 1; w < ways; ++w)
    if (stamps[w] < stamps[victim]) victim = w;

  CacheLineResult result{};
  if (stamps[victim] != 0 && dirty[victim] != 0) {
    result.writeback = true;
    result.victim_addr = ((tags[victim] << set_shift_) | set) << line_shift_;
    ++stats_.writebacks;
  }
  tags[victim] = tag;
  stamps[victim] = now;
  dirty[victim] = is_store ? 1 : 0;
  front = Front{.tag = tag, .way = victim};
  return result;
}

bool Cache::probe(std::uint64_t addr) const {
  const std::uint64_t first = set_index(addr) * config_.ways;
  const std::uint64_t tag = tag_of(addr);
  for (unsigned w = 0; w < config_.ways; ++w)
    if (tags_[first + w] == tag && stamps_[first + w] != 0) return true;
  return false;
}

}  // namespace indexmac
