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
/// extraction is shift/mask (no divisions), and each set remembers its
/// most-recently-used way, which is checked before the associative scan —
/// repeated touches of the same line (streaming kernels, multi-line
/// accesses) hit without scanning. Both are pure shortcuts: hit/miss,
/// victim choice and statistics are identical to the plain LRU scan.
class Cache {
 public:
  explicit Cache(const CacheConfig& config);

  /// Touches the line containing `addr`. On a miss the line is allocated
  /// (evicting LRU). `is_store` marks the line dirty.
  CacheLineResult access(std::uint64_t addr, bool is_store);

  /// True if the line is currently resident (no state change; for tests).
  [[nodiscard]] bool probe(std::uint64_t addr) const;

  [[nodiscard]] const CacheConfig& config() const { return config_; }
  [[nodiscard]] const CacheStats& stats() const { return stats_; }

 private:
  struct Line {
    bool valid = false;
    bool dirty = false;
    std::uint64_t tag = 0;
    std::uint64_t lru = 0;  ///< larger = more recently used
  };

  [[nodiscard]] std::uint64_t set_index(std::uint64_t addr) const {
    return (addr >> line_shift_) & set_mask_;
  }
  [[nodiscard]] std::uint64_t tag_of(std::uint64_t addr) const {
    return addr >> (line_shift_ + set_shift_);
  }

  CacheConfig config_;
  std::uint64_t num_sets_;
  unsigned line_shift_ = 0;       ///< log2(line_bytes)
  unsigned set_shift_ = 0;        ///< log2(num_sets_)
  std::uint64_t set_mask_ = 0;    ///< num_sets_ - 1
  std::vector<Line> lines_;       ///< num_sets_ x ways, row-major
  std::vector<std::uint32_t> mru_;  ///< per-set most-recently-used way
  std::uint64_t tick_ = 0;
  CacheStats stats_;
};

}  // namespace indexmac
