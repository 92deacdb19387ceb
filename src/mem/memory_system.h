// The timing-side memory hierarchy of Table I (instruction fetch is not
// modelled, so Table I's L1I has no counterpart here):
//   * L1D  64 KB 4-way, 2-cycle hit (scalar data)
//   * L2  512 KB 8-way, 8 banks, 8-cycle hit, shared; the vector engine's
//     load/store queues access the L2 directly (no L1 on the vector path)
//   * DDR4-2400-like DRAM: fixed latency plus per-line channel occupancy
//
// The model is latency-computing: each access is presented with its start
// cycle and returns its completion cycle. Contention is modelled with
// next-free counters per L2 bank and for the DRAM channel, and in-flight
// DRAM fills merge accesses to the same line (MSHR-style).
//
// Hot-path notes: the L2 bank count must be a power of two, so the bank is
// a mask of the line number (no division per access); the in-flight fills
// live in a fixed open-addressed table allocated once per MemorySystem
// (see Dram), so no DRAM line allocates.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mem/cache.h"

namespace indexmac {

/// Configuration of the whole hierarchy (defaults reproduce Table I).
struct MemHierConfig {
  CacheConfig l1d{.size_bytes = 64 * 1024, .ways = 4, .line_bytes = 64, .hit_latency = 2};
  CacheConfig l2{.size_bytes = 512 * 1024, .ways = 8, .line_bytes = 64, .hit_latency = 8};
  unsigned l2_banks = 8;            ///< a power of two
  unsigned l2_bank_occupancy = 2;   ///< cycles a bank is busy per access
  unsigned dram_latency = 100;      ///< cycles from request to first data
  unsigned dram_line_occupancy = 7; ///< channel cycles per 64B line (~19.2 GB/s @2 GHz)

  friend auto operator<=>(const MemHierConfig&, const MemHierConfig&) = default;
};

/// Counter block for the Fig. 6 metric and general reporting.
struct MemStats {
  std::uint64_t scalar_reads = 0;
  std::uint64_t scalar_writes = 0;
  std::uint64_t vector_reads = 0;
  std::uint64_t vector_writes = 0;
  std::uint64_t ifetch_lines = 0;  ///< always 0: instruction fetch is not modelled
  std::uint64_t dram_lines = 0;  ///< lines transferred to/from DRAM

  /// Total data-side memory accesses (the paper's Fig. 6 counts memory
  /// operations performed by the kernels; instruction granularity).
  [[nodiscard]] std::uint64_t data_accesses() const {
    return scalar_reads + scalar_writes + vector_reads + vector_writes;
  }

  friend MemStats operator-(MemStats a, const MemStats& b) {
    a.scalar_reads -= b.scalar_reads;
    a.scalar_writes -= b.scalar_writes;
    a.vector_reads -= b.vector_reads;
    a.vector_writes -= b.vector_writes;
    a.ifetch_lines -= b.ifetch_lines;
    a.dram_lines -= b.dram_lines;
    return a;
  }
  friend bool operator==(const MemStats&, const MemStats&) = default;
};

/// DRAM behind the L2: one channel that serializes line transfers, plus
/// the fills still in flight, which a second request for the same line
/// merges with.
///
/// The in-flight fills live in one open-addressed, linearly probed table of
/// kFillSlots entries, allocated once. It keeps the rule of the hash map it
/// replaced exactly: a line's expired fill is overwritten by its next one,
/// and when a new line would join more than kMaxFills held fills, the
/// table first starts over empty. So at most kMaxFills + 1 (4,097) of its
/// 8,192 slots are ever used, and every probe ends at an empty slot.
class Dram {
 public:
  Dram(unsigned latency, unsigned line_occupancy);

  /// Transfers one line (a fill or a writeback) requested at `cycle` and
  /// returns its data-ready cycle. A line whose fill is still pending at
  /// `cycle` merges with it instead: no transfer, that fill's ready cycle.
  std::uint64_t line(std::uint64_t line_addr, std::uint64_t cycle);

  /// `cycle`, or the ready cycle of `line_addr`'s fill if it is still
  /// pending then: a tag hit on a line being filled waits for the data (the
  /// tag allocates at miss time in this model).
  [[nodiscard]] std::uint64_t pending_fill(std::uint64_t line_addr, std::uint64_t cycle) const {
    // Once `cycle` is past every ready cycle ever recorded no fill can
    // delay it, so the common steady-state hit skips the table.
    if (cycle >= max_ready_) return cycle;
    const Fill& fill = fills_[slot_of(line_addr)];
    return fill.line == line_addr && cycle < fill.ready ? fill.ready : cycle;
  }

  /// Lines transferred (merged requests are not).
  [[nodiscard]] std::uint64_t lines() const { return lines_; }

 private:
  static constexpr std::size_t kMaxFills = 4096;
  static constexpr std::size_t kFillSlots = 8192;
  /// Marks an empty slot: no line of two or more bytes starts there.
  static constexpr std::uint64_t kNoLine = ~std::uint64_t{0};

  struct Fill {
    std::uint64_t line = kNoLine;
    std::uint64_t ready = 0;
  };

  /// The slot holding `line_addr`'s fill, else the empty slot that ends its
  /// probe sequence (Fibonacci hash, then linear probing).
  [[nodiscard]] std::size_t slot_of(std::uint64_t line_addr) const {
    constexpr unsigned kSlotBits = 13;
    static_assert(kFillSlots == std::size_t{1} << kSlotBits && kFillSlots >= 2 * kMaxFills);
    std::size_t slot = (line_addr * 0x9e3779b97f4a7c15ull) >> (64 - kSlotBits);
    while (fills_[slot].line != line_addr && fills_[slot].line != kNoLine)
      slot = (slot + 1) & (kFillSlots - 1);
    return slot;
  }

  std::uint64_t latency_;
  std::uint64_t line_occupancy_;
  std::uint64_t channel_free_ = 0;
  std::vector<Fill> fills_;
  std::size_t held_ = 0;           ///< fills in the table
  std::uint64_t max_ready_ = 0;    ///< upper bound on every held ready cycle
  std::uint64_t lines_ = 0;
};

class MemorySystem {
 public:
  explicit MemorySystem(const MemHierConfig& config);

  /// Scalar load/store of `bytes` at `addr`, starting at `cycle`.
  /// Returns completion cycle.
  std::uint64_t scalar_data(std::uint64_t addr, unsigned bytes, bool is_store,
                            std::uint64_t cycle);

  /// Vector-engine load/store (straight to the banked L2).
  std::uint64_t vector_data(std::uint64_t addr, unsigned bytes, bool is_store,
                            std::uint64_t cycle);

  [[nodiscard]] MemStats stats() const {
    MemStats s = stats_;
    s.dram_lines = dram_.lines();
    return s;
  }
  [[nodiscard]] const Cache& l1d() const { return l1d_; }
  [[nodiscard]] const Cache& l2() const { return l2_; }

 private:
  /// Access one line through the L2 (+DRAM on miss); returns completion.
  std::uint64_t l2_line(std::uint64_t line_addr, bool is_store, std::uint64_t cycle);
  /// Walk all lines an access touches; returns worst completion.
  /// Precondition: addr + bytes <= MainMemory::kAddressLimit, so the last
  /// line's address cannot wrap past 2^64. The functional simulator raises
  /// on any access that breaks it before the timing model sees the access.
  template <typename Fn>
  std::uint64_t for_lines(std::uint64_t addr, unsigned bytes, Fn&& fn);

  MemHierConfig config_;
  Cache l1d_;
  Cache l2_;
  unsigned l2_line_shift_ = 0;     ///< log2(l2.line_bytes): bank/line math without divisions
  std::uint64_t l2_bank_mask_ = 0;  ///< l2_banks - 1
  std::vector<std::uint64_t> l2_bank_free_;
  Dram dram_;
  MemStats stats_;  ///< all but dram_lines, which dram_ counts
};

}  // namespace indexmac
