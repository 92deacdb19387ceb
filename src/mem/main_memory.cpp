#include "mem/main_memory.h"

#include <algorithm>

#include "common/bitutil.h"

namespace indexmac {

const MainMemory::Page* MainMemory::find_page(std::uint64_t addr) const {
  const std::uint64_t key = addr / kPageBytes;
  if (key == read_page_key_) return read_page_;
  const auto it = pages_.find(key);
  read_page_key_ = key;
  read_page_ = it == pages_.end() ? nullptr : &it->second;
  return read_page_;
}

MainMemory::Page& MainMemory::page_for(std::uint64_t addr) {
  const std::uint64_t key = addr / kPageBytes;
  if (key == write_page_key_) return *write_page_;
  Page& p = pages_[key];
  if (p.empty()) p.resize(kPageBytes, 0);
  write_page_key_ = key;
  write_page_ = &p;
  read_page_key_ = key;  // a cached "absent" entry may just have appeared
  read_page_ = &p;
  return p;
}

std::uint8_t MainMemory::read_u8(std::uint64_t addr) const {
  const Page* p = find_page(addr);
  return p ? (*p)[addr % kPageBytes] : 0;
}

void MainMemory::write_u8(std::uint64_t addr, std::uint8_t v) {
  page_for(addr)[addr % kPageBytes] = v;
}

std::uint32_t MainMemory::read_u32(std::uint64_t addr) const {
  const std::uint64_t offset = addr % kPageBytes;
  if (offset + 4 <= kPageBytes) {  // within one page: a single lookup
    const Page* p = find_page(addr);
    if (p == nullptr) return 0;
    const std::uint8_t* b = p->data() + offset;
    return static_cast<std::uint32_t>(b[0]) | static_cast<std::uint32_t>(b[1]) << 8 |
           static_cast<std::uint32_t>(b[2]) << 16 | static_cast<std::uint32_t>(b[3]) << 24;
  }
  std::uint32_t v = 0;
  for (unsigned i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(read_u8(addr + i)) << (8 * i);
  return v;
}

std::uint64_t MainMemory::read_u64(std::uint64_t addr) const {
  const std::uint64_t offset = addr % kPageBytes;
  if (offset + 8 <= kPageBytes) {
    const Page* p = find_page(addr);
    if (p == nullptr) return 0;
    const std::uint8_t* b = p->data() + offset;
    std::uint64_t v = 0;
    for (unsigned i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
    return v;
  }
  std::uint64_t v = 0;
  for (unsigned i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(read_u8(addr + i)) << (8 * i);
  return v;
}

float MainMemory::read_f32(std::uint64_t addr) const {
  const std::uint32_t raw = read_u32(addr);
  float out;
  std::memcpy(&out, &raw, sizeof out);
  return out;
}

void MainMemory::write_u32(std::uint64_t addr, std::uint32_t v) {
  const std::uint64_t offset = addr % kPageBytes;
  if (offset + 4 <= kPageBytes) {
    std::uint8_t* b = page_for(addr).data() + offset;
    for (unsigned i = 0; i < 4; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    return;
  }
  for (unsigned i = 0; i < 4; ++i) write_u8(addr + i, static_cast<std::uint8_t>(v >> (8 * i)));
}

void MainMemory::write_u64(std::uint64_t addr, std::uint64_t v) {
  const std::uint64_t offset = addr % kPageBytes;
  if (offset + 8 <= kPageBytes) {
    std::uint8_t* b = page_for(addr).data() + offset;
    for (unsigned i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    return;
  }
  for (unsigned i = 0; i < 8; ++i) write_u8(addr + i, static_cast<std::uint8_t>(v >> (8 * i)));
}

void MainMemory::write_f32(std::uint64_t addr, float v) {
  std::uint32_t raw;
  std::memcpy(&raw, &v, sizeof raw);
  write_u32(addr, raw);
}

void MainMemory::read_u32_block(std::uint64_t addr, std::uint32_t* out, std::size_t count) const {
  const std::uint64_t offset = addr % kPageBytes;
  if (count > 0 && offset + 4 * count <= kPageBytes) {
    const Page* p = find_page(addr);
    if (p == nullptr) {
      for (std::size_t i = 0; i < count; ++i) out[i] = 0;
      return;
    }
    const std::uint8_t* b = p->data() + offset;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(out, b, 4 * count);  // pages hold LE bytes: words verbatim
      return;
    }
    for (std::size_t i = 0; i < count; ++i, b += 4)
      out[i] = static_cast<std::uint32_t>(b[0]) | static_cast<std::uint32_t>(b[1]) << 8 |
               static_cast<std::uint32_t>(b[2]) << 16 | static_cast<std::uint32_t>(b[3]) << 24;
    return;
  }
  for (std::size_t i = 0; i < count; ++i) out[i] = read_u32(addr + 4 * i);
}

void MainMemory::write_u32_block(std::uint64_t addr, const std::uint32_t* data,
                                 std::size_t count) {
  const std::uint64_t offset = addr % kPageBytes;
  if (count > 0 && offset + 4 * count <= kPageBytes) {
    std::uint8_t* b = page_for(addr).data() + offset;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(b, data, 4 * count);
      return;
    }
    for (std::size_t i = 0; i < count; ++i, b += 4) {
      const std::uint32_t v = data[i];
      b[0] = static_cast<std::uint8_t>(v);
      b[1] = static_cast<std::uint8_t>(v >> 8);
      b[2] = static_cast<std::uint8_t>(v >> 16);
      b[3] = static_cast<std::uint8_t>(v >> 24);
    }
    return;
  }
  for (std::size_t i = 0; i < count; ++i) write_u32(addr + 4 * i, data[i]);
}

namespace {

/// Writes 4-byte elements one page's run at a time: each run's bytes are
/// copied into a word buffer and stored with a single write_u32_block. A
/// word that straddles a page boundary is a run of one, which
/// write_u32_block stores byte by byte.
template <typename T>
void write_words(MainMemory& mem, std::uint64_t addr, std::span<const T> data) {
  static_assert(sizeof(T) == 4);
  std::uint32_t words[MainMemory::kPageBytes / 4];
  for (std::size_t i = 0; i < data.size();) {
    const std::uint64_t at = addr + 4 * i;
    const std::size_t room = (MainMemory::kPageBytes - at % MainMemory::kPageBytes) / 4;
    const std::size_t n = std::min(std::max<std::size_t>(room, 1), data.size() - i);
    std::memcpy(words, data.data() + i, 4 * n);
    mem.write_u32_block(at, words, n);
    i += n;
  }
}

}  // namespace

void MainMemory::write_f32s(std::uint64_t addr, std::span<const float> data) {
  write_words(*this, addr, data);
}

void MainMemory::write_i32s(std::uint64_t addr, std::span<const std::int32_t> data) {
  write_words(*this, addr, data);
}

std::vector<float> MainMemory::read_f32s(std::uint64_t addr, std::size_t count) const {
  std::vector<float> out(count);
  for (std::size_t i = 0; i < count; ++i) out[i] = read_f32(addr + 4 * i);
  return out;
}

std::vector<std::int32_t> MainMemory::read_i32s(std::uint64_t addr, std::size_t count) const {
  std::vector<std::int32_t> out(count);
  for (std::size_t i = 0; i < count; ++i)
    out[i] = static_cast<std::int32_t>(read_u32(addr + 4 * i));
  return out;
}

std::uint64_t AddressAllocator::alloc(std::uint64_t bytes) {
  IMAC_CHECK(bytes > 0, "cannot allocate zero bytes");
  const std::uint64_t base = round_up(next_, align_);
  next_ = base + bytes;
  return base;
}

}  // namespace indexmac
