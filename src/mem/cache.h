// Timing-side cache model: a set-associative LRU tag array. It tracks
// hits/misses/writebacks; data contents live in MainMemory (the functional
// side), so this model answers only "was it resident" and "what got
// evicted", which is all the latency model needs.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/bitutil.h"
#include "common/error.h"

namespace indexmac {

/// Geometry + latency of one cache level.
struct CacheConfig {
  std::uint64_t size_bytes = 64 * 1024;
  unsigned ways = 4;
  unsigned line_bytes = 64;
  unsigned hit_latency = 2;  ///< cycles from access start to data

  friend auto operator<=>(const CacheConfig&, const CacheConfig&) = default;
};

/// Result of touching one line.
struct CacheLineResult {
  bool hit = false;
  bool writeback = false;            ///< a dirty victim was evicted
  std::uint64_t victim_addr = 0;     ///< line address of the writeback
};

/// Hit/miss bookkeeping for one cache level.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t writebacks = 0;

  [[nodiscard]] std::uint64_t accesses() const { return hits + misses; }
};

/// Set-associative, write-back, write-allocate, true-LRU tag array.
///
/// Hot-path notes: line size and set count are powers of two, so set/tag
/// extraction is shift/mask (no divisions). Each set remembers its most
/// recently touched way and that way's tag, and access() checks them inline
/// first: about 80% of a sampled sweep's L2 accesses re-touch that line and
/// hit with one 16-byte read and no stamp update (its stamp is already the
/// set's newest). The rest scan the set's tags out of line; tags live apart
/// from the LRU stamps and dirty flags, so an 8-way scan reads 64 bytes. A
/// line is valid once stamped (stamps start at 1), so the victim, the first
/// invalid way else the least recently used, is the first way with the
/// smallest stamp. All of this is layout and shortcut: hit/miss, victim
/// choice and statistics are identical to the plain LRU scan.
class Cache {
 public:
  explicit Cache(const CacheConfig& config);

  /// Touches the line containing `addr`. On a miss the line is allocated
  /// (evicting LRU). `is_store` marks the line dirty. Inline up to the front
  /// check, which most accesses stop at.
  CacheLineResult access(std::uint64_t addr, bool is_store) {
    const std::uint64_t set = set_index(addr);
    const std::uint64_t tag = tag_of(addr);
    ++tick_;
    // Only the order of stamps within a set picks victims, and the front
    // line's stamp is already the set's newest: a front hit leaves it.
    const Front& front = front_[set];
    if (front.way < config_.ways && front.tag == tag) [[likely]] {
      if (is_store) dirty_[set * config_.ways + front.way] = 1;
      ++stats_.hits;
      return CacheLineResult{.hit = true};
    }
    return access_set(set, tag, is_store);
  }

  /// True if the line is currently resident (no state change; for tests).
  [[nodiscard]] bool probe(std::uint64_t addr) const;

  [[nodiscard]] const CacheConfig& config() const { return config_; }
  [[nodiscard]] const CacheStats& stats() const { return stats_; }

 private:
  [[nodiscard]] std::uint64_t set_index(std::uint64_t addr) const {
    return (addr >> line_shift_) & set_mask_;
  }
  [[nodiscard]] std::uint64_t tag_of(std::uint64_t addr) const {
    return addr >> (line_shift_ + set_shift_);
  }
  /// access() past the front check: the scan of the set, then the fill.
  CacheLineResult access_set(std::uint64_t set, std::uint64_t tag, bool is_store);

  CacheConfig config_;
  std::uint64_t num_sets_;
  unsigned line_shift_ = 0;       ///< log2(line_bytes)
  unsigned set_shift_ = 0;        ///< log2(num_sets_)
  std::uint64_t set_mask_ = 0;    ///< num_sets_ - 1
  // Per line, num_sets_ x ways, row-major:
  std::vector<std::uint64_t> tags_;
  std::vector<std::uint64_t> stamps_;  ///< last touch; larger = more recent, 0 = invalid
  std::vector<std::uint8_t> dirty_;
  /// Per set: the most recently touched way and its tag (way == ways
  /// before the first fill).
  struct Front {
    std::uint64_t tag;
    std::uint32_t way;
  };
  std::vector<Front> front_;
  std::uint64_t tick_ = 0;
  CacheStats stats_;
};

}  // namespace indexmac
