// Functional (architectural) memory: a sparse, byte-addressable backing
// store shared by the functional and timing simulators. Timing models
// compute *when* an access completes; this class holds *what* the bytes are.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "common/error.h"

namespace indexmac {

// Pages hold the simulated little-endian bytes, and every accessor copies
// a value's host bytes in or out verbatim.
static_assert(std::endian::native == std::endian::little, "MainMemory needs a little-endian host");

/// Sparse memory over the 48-bit address space: a radix table of three
/// 4,096-entry levels (12 + 12 + 12 address bits) over 4 KiB pages. A write
/// materializes the table nodes and the zeroed page it lands in. Reads walk
/// the table without allocating and return zeros for untouched memory, so
/// `const` accessors mutate nothing and several threads may read one image
/// at once.
class MainMemory {
 public:
  static constexpr std::uint64_t kPageBytes = 4096;
  /// The simulated address space is [0, 2^48), as under Sv48. Every access
  /// raises SimError, before memory is touched, unless it lies wholly below
  /// this bound; the functional simulator checks first and names the pc.
  static constexpr std::uint64_t kAddressLimit = std::uint64_t{1} << 48;

  /// True when the `bytes` at `addr` lie wholly below kAddressLimit. Zero
  /// bytes (a vector access at vl 0) touch nothing and pass at any address.
  [[nodiscard]] static constexpr bool in_bounds(std::uint64_t addr, std::uint64_t bytes) {
    return bytes == 0 || (addr < kAddressLimit && bytes <= kAddressLimit - addr);
  }

  MainMemory() = default;
  // Non-copyable and non-movable: simulations share one image by
  // reference, and a moved-from image would have no root table.
  MainMemory(const MainMemory&) = delete;
  MainMemory& operator=(const MainMemory&) = delete;

  [[nodiscard]] std::uint32_t read_u32(std::uint64_t addr) const {
    return load<std::uint32_t>(addr);
  }
  [[nodiscard]] std::uint64_t read_u64(std::uint64_t addr) const {
    return load<std::uint64_t>(addr);
  }
  [[nodiscard]] float read_f32(std::uint64_t addr) const { return load<float>(addr); }

  void write_u32(std::uint64_t addr, std::uint32_t v) { write(addr, &v, sizeof v); }
  void write_u64(std::uint64_t addr, std::uint64_t v) { write(addr, &v, sizeof v); }
  void write_f32(std::uint64_t addr, float v) { write(addr, &v, sizeof v); }

  /// Bulk 32-bit-word transfers (the functional simulator's vle32/vse32).
  void read_u32_block(std::uint64_t addr, std::uint32_t* out, std::size_t count) const {
    read(addr, out, 4 * count);
  }
  void write_u32_block(std::uint64_t addr, const std::uint32_t* data, std::size_t count) {
    write(addr, data, 4 * count);
  }

  /// Convenience for fp32/int32 arrays (the only element types used).
  void write_f32s(std::uint64_t addr, std::span<const float> data) {
    write(addr, data.data(), data.size_bytes());
  }
  void write_i32s(std::uint64_t addr, std::span<const std::int32_t> data) {
    write(addr, data.data(), data.size_bytes());
  }
  [[nodiscard]] std::vector<float> read_f32s(std::uint64_t addr, std::size_t count) const {
    return load_array<float>(addr, count);
  }
  [[nodiscard]] std::vector<std::int32_t> read_i32s(std::uint64_t addr, std::size_t count) const {
    return load_array<std::int32_t>(addr, count);
  }

  /// Number of pages currently materialized (for tests).
  [[nodiscard]] std::size_t page_count() const { return page_count_; }

 private:
  static constexpr unsigned kLevelBits = 12;
  static constexpr std::size_t kFanout = std::size_t{1} << kLevelBits;
  static_assert(kPageBytes << (3 * kLevelBits) == kAddressLimit);

  using Page = std::array<std::uint8_t, kPageBytes>;
  template <typename Child>
  using Table = std::array<std::unique_ptr<Child>, kFanout>;
  using Leaf = Table<Page>;
  using Mid = Table<Leaf>;
  using Root = Table<Mid>;

  /// The entry `addr` selects in a table at `level`: 0 picks the page in a
  /// leaf, 2 the mid node in the root.
  static constexpr std::size_t entry(std::uint64_t addr, unsigned level) {
    return (addr / kPageBytes >> (kLevelBits * level)) % kFanout;
  }

  /// The page holding `addr`, or nullptr if nothing was written to it.
  [[nodiscard]] const Page* find_page(std::uint64_t addr) const {
    const Mid* mid = (*root_)[entry(addr, 2)].get();
    const Leaf* leaf = mid != nullptr ? (*mid)[entry(addr, 1)].get() : nullptr;
    return leaf != nullptr ? (*leaf)[entry(addr, 0)].get() : nullptr;
  }
  /// The page holding `addr`, materialized with its table nodes if absent.
  Page& page_for(std::uint64_t addr);

  /// Copy the `bytes` at `addr` out of (read) or into (write) the image. A
  /// range inside one page is copied here, at the caller's fixed size;
  /// read_pages and write_pages take the rest: a range that crosses a page,
  /// is empty or is out of bounds.
  void read(std::uint64_t addr, void* out, std::size_t bytes) const {
    const std::uint64_t offset = addr % kPageBytes;
    if (bytes == 0 || bytes > kPageBytes - offset || !in_bounds(addr, bytes)) [[unlikely]]
      return read_pages(addr, static_cast<std::uint8_t*>(out), bytes);
    if (const Page* page = find_page(addr))
      std::memcpy(out, page->data() + offset, bytes);
    else
      std::memset(out, 0, bytes);
  }
  void write(std::uint64_t addr, const void* data, std::size_t bytes) {
    const std::uint64_t offset = addr % kPageBytes;
    if (bytes == 0 || bytes > kPageBytes - offset || !in_bounds(addr, bytes)) [[unlikely]]
      return write_pages(addr, static_cast<const std::uint8_t*>(data), bytes);
    std::memcpy(page_for(addr).data() + offset, data, bytes);
  }
  /// Raise unless the range is in bounds, then copy it one page's run at a
  /// time.
  void read_pages(std::uint64_t addr, std::uint8_t* out, std::size_t bytes) const;
  void write_pages(std::uint64_t addr, const std::uint8_t* data, std::size_t bytes);

  template <typename T>
  [[nodiscard]] T load(std::uint64_t addr) const {
    T v{};
    read(addr, &v, sizeof v);
    return v;
  }
  template <typename T>
  [[nodiscard]] std::vector<T> load_array(std::uint64_t addr, std::size_t count) const {
    std::vector<T> out(count);
    read(addr, out.data(), sizeof(T) * count);
    return out;
  }

  std::unique_ptr<Root> root_ = std::make_unique<Root>();
  std::size_t page_count_ = 0;
};

/// Bump allocator that hands out cache-line-aligned regions of the simulated
/// address space for kernel operands, from kStart up.
class AddressAllocator {
 public:
  static constexpr std::uint64_t kStart = 0x0010'0000;
  static constexpr std::uint64_t kAlign = 64;

  /// Reserves `bytes` and returns the base address.
  [[nodiscard]] std::uint64_t alloc(std::uint64_t bytes);

 private:
  std::uint64_t next_ = kStart;
};

}  // namespace indexmac
