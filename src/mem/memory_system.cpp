#include "mem/memory_system.h"

#include <algorithm>

#include "common/bitutil.h"

namespace indexmac {

MemorySystem::MemorySystem(const MemHierConfig& config)
    : config_(config),
      l1d_(config.l1d),
      l2_(config.l2),
      l2_line_shift_(log2_exact(config.l2.line_bytes)),
      l2_bank_free_(config.l2_banks, 0) {
  IMAC_CHECK(config.l2_banks > 0, "L2 needs at least one bank");
}

std::uint64_t MemorySystem::dram_line(std::uint64_t line_addr, std::uint64_t cycle) {
  // Merge with an in-flight fill of the same line if one exists.
  if (const auto it = inflight_fills_.find(line_addr); it != inflight_fills_.end()) {
    if (cycle < it->second) return it->second;
    inflight_fills_.erase(it);
  }
  const std::uint64_t start = std::max(cycle, dram_channel_free_);
  dram_channel_free_ = start + config_.dram_line_occupancy;
  const std::uint64_t ready = start + config_.dram_latency;
  ++stats_.dram_lines;
  if (inflight_fills_.size() > 4096) inflight_fills_.clear();  // bound the merge window
  inflight_fills_[line_addr] = ready;
  inflight_max_ready_ = std::max(inflight_max_ready_, ready);
  return ready;
}

std::uint64_t MemorySystem::pending_fill(std::uint64_t line_addr, std::uint64_t cycle) const {
  // A tag-array hit on a line whose DRAM fill is still in flight must wait
  // for the fill (the tag allocates at miss time in this model). Once
  // `cycle` is past every in-flight ready time no entry can delay it, so
  // the common steady-state hit skips the hash lookup.
  if (cycle >= inflight_max_ready_) return cycle;
  const auto it = inflight_fills_.find(line_addr);
  return (it != inflight_fills_.end() && cycle < it->second) ? it->second : cycle;
}

std::uint64_t MemorySystem::l2_line(std::uint64_t line_addr, bool is_store, std::uint64_t cycle) {
  const std::uint64_t bank_count = l2_bank_free_.size();
  const std::uint64_t bank = (line_addr >> l2_line_shift_) % bank_count;
  const std::uint64_t start = std::max(cycle, l2_bank_free_[bank]);
  l2_bank_free_[bank] = start + config_.l2_bank_occupancy;

  const CacheLineResult r = l2_.access(line_addr, is_store);
  if (r.writeback) dram_line(r.victim_addr, start + config_.l2.hit_latency);
  if (r.hit) return pending_fill(line_addr, start + config_.l2.hit_latency);
  return dram_line(line_addr, start + config_.l2.hit_latency);
}

template <typename Fn>
std::uint64_t MemorySystem::for_lines(std::uint64_t addr, unsigned bytes, Fn&& fn) {
  std::uint64_t done = 0;
  const std::uint64_t first = addr >> l2_line_shift_;
  const std::uint64_t last = (addr + std::max(bytes, 1u) - 1) >> l2_line_shift_;
  for (std::uint64_t l = first; l <= last; ++l)
    done = std::max(done, fn(l << l2_line_shift_));
  return done;
}

std::uint64_t MemorySystem::scalar_data(std::uint64_t addr, unsigned bytes, bool is_store,
                                        std::uint64_t cycle) {
  (is_store ? stats_.scalar_writes : stats_.scalar_reads) += 1;
  return for_lines(addr, bytes, [&](std::uint64_t line_addr) {
    const CacheLineResult r = l1d_.access(line_addr, is_store);
    const std::uint64_t tag_done = cycle + config_.l1d.hit_latency;
    if (r.writeback) l2_line(r.victim_addr, /*is_store=*/true, tag_done);
    if (r.hit) return pending_fill(line_addr, tag_done);
    return l2_line(line_addr, /*is_store=*/false, tag_done);
  });
}

std::uint64_t MemorySystem::vector_data(std::uint64_t addr, unsigned bytes, bool is_store,
                                        std::uint64_t cycle) {
  (is_store ? stats_.vector_writes : stats_.vector_reads) += 1;
  return for_lines(addr, bytes,
                   [&](std::uint64_t line_addr) { return l2_line(line_addr, is_store, cycle); });
}

}  // namespace indexmac
