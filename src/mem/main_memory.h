// Functional (architectural) memory: a sparse, byte-addressable backing
// store shared by the functional and timing simulators. Timing models
// compute *when* an access completes; this class holds *what* the bytes are.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/error.h"

namespace indexmac {

/// Sparse page-granular memory. Reads of untouched memory return zeros.
class MainMemory {
 public:
  static constexpr std::uint64_t kPageBytes = 4096;
  /// The simulated address space is [0, 2^48), as under Sv48. The
  /// functional simulator raises on any access that does not lie wholly
  /// below this bound, so no access range it passes on wraps past 2^64.
  static constexpr std::uint64_t kAddressLimit = std::uint64_t{1} << 48;

  MainMemory() = default;
  // Non-copyable/movable: the last-page caches below hold raw pointers
  // into pages_, which a memberwise copy would leave aliasing the source
  // object. Nothing in the stack copies a memory image; simulations share
  // one by reference.
  MainMemory(const MainMemory&) = delete;
  MainMemory& operator=(const MainMemory&) = delete;

  [[nodiscard]] std::uint8_t read_u8(std::uint64_t addr) const;
  [[nodiscard]] std::uint32_t read_u32(std::uint64_t addr) const;
  [[nodiscard]] std::uint64_t read_u64(std::uint64_t addr) const;
  [[nodiscard]] float read_f32(std::uint64_t addr) const;

  void write_u8(std::uint64_t addr, std::uint8_t v);
  void write_u32(std::uint64_t addr, std::uint32_t v);
  void write_u64(std::uint64_t addr, std::uint64_t v);
  void write_f32(std::uint64_t addr, float v);

  /// Bulk 32-bit-word transfers for the functional simulator's vle32/vse32
  /// handlers and the array writers below: one page lookup covers the whole
  /// run when the range stays inside a page (the common case for 64-byte-
  /// aligned operand streams), falling back to per-word accesses across page
  /// boundaries. Results are bit-identical to `count` read_u32/write_u32
  /// calls.
  void read_u32_block(std::uint64_t addr, std::uint32_t* out, std::size_t count) const;
  void write_u32_block(std::uint64_t addr, const std::uint32_t* data, std::size_t count);

  /// Convenience for fp32/int32 arrays (the only element types used). The
  /// writers store one page's run per write_u32_block; the bytes are
  /// bit-identical to one write_u32 per element.
  void write_f32s(std::uint64_t addr, std::span<const float> data);
  void write_i32s(std::uint64_t addr, std::span<const std::int32_t> data);
  [[nodiscard]] std::vector<float> read_f32s(std::uint64_t addr, std::size_t count) const;
  [[nodiscard]] std::vector<std::int32_t> read_i32s(std::uint64_t addr, std::size_t count) const;

  /// Number of pages currently materialized (for tests).
  [[nodiscard]] std::size_t page_count() const { return pages_.size(); }

 private:
  using Page = std::vector<std::uint8_t>;

  [[nodiscard]] const Page* find_page(std::uint64_t addr) const;
  Page& page_for(std::uint64_t addr);

  std::unordered_map<std::uint64_t, Page> pages_;
  // Last-touched page per direction. Page addresses are stable (the map
  // never erases and rehashing preserves element addresses), so the cached
  // pointers can only go stale in one way — a cached "absent" read entry
  // whose page a later write materializes — and page_for refreshes the
  // read cache to cover it. Accessors stay O(1) without hashing across the
  // same-page streaks simulations produce. Note: the mutable read cache
  // makes concurrent use of a single MainMemory unsafe (each simulation
  // owns its memory; see core::run_batch).
  mutable std::uint64_t read_page_key_ = ~0ull;
  mutable const Page* read_page_ = nullptr;
  std::uint64_t write_page_key_ = ~0ull;
  Page* write_page_ = nullptr;
};

/// Bump allocator that hands out cache-line-aligned regions of the simulated
/// address space for kernel operands.
class AddressAllocator {
 public:
  explicit AddressAllocator(std::uint64_t start = 0x0010'0000, std::uint64_t align = 64)
      : next_(start), align_(align) {}

  /// Reserves `bytes` and returns the base address.
  [[nodiscard]] std::uint64_t alloc(std::uint64_t bytes);

  [[nodiscard]] std::uint64_t high_water() const { return next_; }

 private:
  std::uint64_t next_;
  std::uint64_t align_;
};

}  // namespace indexmac
