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
  lines_.resize(num_sets_ * config.ways);
  mru_.assign(num_sets_, 0);
}

CacheLineResult Cache::access(std::uint64_t addr, bool is_store) {
  const std::uint64_t set = set_index(addr);
  const std::uint64_t tag = tag_of(addr);
  Line* const begin = &lines_[set * config_.ways];
  ++tick_;

  // MRU front check: most accesses re-touch the set's last-hit line.
  const std::uint32_t front = mru_[set];
  {
    Line& line = begin[front];
    if (line.valid && line.tag == tag) {
      line.lru = tick_;
      line.dirty = line.dirty || is_store;
      ++stats_.hits;
      return CacheLineResult{.hit = true};
    }
  }
  for (unsigned w = 0; w < config_.ways; ++w) {
    if (w == front) continue;
    Line& line = begin[w];
    if (line.valid && line.tag == tag) {
      line.lru = tick_;
      line.dirty = line.dirty || is_store;
      mru_[set] = w;
      ++stats_.hits;
      return CacheLineResult{.hit = true};
    }
  }
  ++stats_.misses;

  // Choose victim: an invalid way, else true LRU.
  Line* victim = begin;
  for (unsigned w = 0; w < config_.ways; ++w) {
    Line& line = begin[w];
    if (!line.valid) {
      victim = &line;
      break;
    }
    if (line.lru < victim->lru) victim = &line;
  }

  CacheLineResult result{};
  if (victim->valid && victim->dirty) {
    result.writeback = true;
    result.victim_addr = ((victim->tag << set_shift_) | set) << line_shift_;
    ++stats_.writebacks;
  }
  victim->valid = true;
  victim->dirty = is_store;
  victim->tag = tag;
  victim->lru = tick_;
  mru_[set] = static_cast<std::uint32_t>(victim - begin);
  return result;
}

bool Cache::probe(std::uint64_t addr) const {
  const std::uint64_t set = set_index(addr);
  const std::uint64_t tag = tag_of(addr);
  const Line* const begin = &lines_[set * config_.ways];
  const Line& front = begin[mru_[set]];
  if (front.valid && front.tag == tag) return true;
  for (unsigned w = 0; w < config_.ways; ++w) {
    const Line& line = begin[w];
    if (line.valid && line.tag == tag) return true;
  }
  return false;
}

}  // namespace indexmac
