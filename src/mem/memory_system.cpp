#include "mem/memory_system.h"

#include <algorithm>

#include "common/bitutil.h"

namespace indexmac {

Dram::Dram(unsigned latency, unsigned line_occupancy)
    : latency_(latency), line_occupancy_(line_occupancy), fills_(kFillSlots) {}

std::uint64_t Dram::line(std::uint64_t line_addr, std::uint64_t cycle) {
  IMAC_ASSERT(line_addr != kNoLine, "DRAM line address 0xffffffffffffffff is reserved");
  std::size_t slot = slot_of(line_addr);
  const bool held = fills_[slot].line == line_addr;
  if (held && cycle < fills_[slot].ready) return fills_[slot].ready;  // merge
  const std::uint64_t start = std::max(cycle, channel_free_);
  channel_free_ = start + line_occupancy_;
  const std::uint64_t ready = start + latency_;
  ++lines_;
  // The line's expired fill, if held, is replaced in place. Past kMaxFills
  // other fills the table starts over (bounding the merge window).
  std::size_t others = held_ - (held ? 1 : 0);
  if (others > kMaxFills) {
    std::fill(fills_.begin(), fills_.end(), Fill{});
    others = 0;
    slot = slot_of(line_addr);
  }
  fills_[slot] = Fill{line_addr, ready};
  held_ = others + 1;
  max_ready_ = std::max(max_ready_, ready);
  return ready;
}

MemorySystem::MemorySystem(const MemHierConfig& config)
    : config_(config),
      l1d_(config.l1d),
      l2_(config.l2),
      l2_line_shift_(log2_exact(config.l2.line_bytes)),
      l2_bank_mask_(config.l2_banks - std::uint64_t{1}),
      l2_bank_free_(config.l2_banks, 0),
      dram_(config.dram_latency, config.dram_line_occupancy) {
  IMAC_CHECK(is_pow2(config.l2_banks),
             "L2 bank count must be a power of two, got " + std::to_string(config.l2_banks));
}

std::uint64_t MemorySystem::l2_line(std::uint64_t line_addr, bool is_store, std::uint64_t cycle) {
  const std::uint64_t bank = (line_addr >> l2_line_shift_) & l2_bank_mask_;
  const std::uint64_t start = std::max(cycle, l2_bank_free_[bank]);
  l2_bank_free_[bank] = start + config_.l2_bank_occupancy;

  const CacheLineResult r = l2_.access(line_addr, is_store);
  if (r.writeback) dram_.line(r.victim_addr, start + config_.l2.hit_latency);
  if (r.hit) return dram_.pending_fill(line_addr, start + config_.l2.hit_latency);
  return dram_.line(line_addr, start + config_.l2.hit_latency);
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
    if (r.hit) return dram_.pending_fill(line_addr, tag_done);
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
