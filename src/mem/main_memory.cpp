#include "mem/main_memory.h"

#include <algorithm>
#include <cstdio>
#include <string>

#include "common/bitutil.h"

namespace indexmac {

namespace {

/// The node or page in `slot`, value-initialized (null children, zero
/// bytes) on first use.
template <typename T>
T& materialize(std::unique_ptr<T>& slot) {
  if (slot == nullptr) slot = std::make_unique<T>();
  return *slot;
}

/// Raises SimError unless MainMemory::in_bounds(addr, bytes).
void check_bounds(std::uint64_t addr, std::size_t bytes) {
  if (MainMemory::in_bounds(addr, bytes)) return;
  char what[64];
  std::snprintf(what, sizeof what, "%zu bytes at 0x%llx", bytes,
                static_cast<unsigned long long>(addr));
  raise(std::string("memory access past the 48-bit address space: ") + what);
}

}  // namespace

MainMemory::Page& MainMemory::page_for(std::uint64_t addr) {
  std::unique_ptr<Page>& page =
      materialize(materialize((*root_)[entry(addr, 2)])[entry(addr, 1)])[entry(addr, 0)];
  if (page == nullptr) ++page_count_;
  return materialize(page);
}

void MainMemory::read_pages(std::uint64_t addr, std::uint8_t* out, std::size_t bytes) const {
  check_bounds(addr, bytes);
  while (bytes != 0) {
    const std::size_t run = std::min<std::uint64_t>(bytes, kPageBytes - addr % kPageBytes);
    read(addr, out, run);
    addr += run;
    out += run;
    bytes -= run;
  }
}

void MainMemory::write_pages(std::uint64_t addr, const std::uint8_t* data, std::size_t bytes) {
  check_bounds(addr, bytes);
  while (bytes != 0) {
    const std::size_t run = std::min<std::uint64_t>(bytes, kPageBytes - addr % kPageBytes);
    write(addr, data, run);
    addr += run;
    data += run;
    bytes -= run;
  }
}

std::uint64_t AddressAllocator::alloc(std::uint64_t bytes) {
  IMAC_CHECK(bytes > 0, "cannot allocate zero bytes");
  const std::uint64_t base = round_up(next_, kAlign);
  next_ = base + bytes;
  return base;
}

}  // namespace indexmac
