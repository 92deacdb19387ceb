// The uniform draw that random operands come from: std::mt19937's output
// sequence, generated a whole engine state at a time, with each word mapped
// to a float the way libstdc++'s std::uniform_real_distribution<float>
// maps it. The values equal that distribution's over std::mt19937(seed)
// bit for bit, at a fraction of its cost per value, and they no longer
// depend on the standard library's distribution, whose algorithm is
// implementation-defined.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>

namespace indexmac::sparse {

/// std::uniform_real_distribution<float>(lo, hi) of one 32-bit engine word
/// x, as libstdc++ computes it: generate_canonical<float, 24> takes
/// float(x) * 2^-32, clamped to the largest float below 1, and the
/// distribution scales that by (hi - lo) and adds lo.
[[nodiscard]] inline float uniform_float(std::uint32_t x, float lo, float hi) {
  const float canonical = std::min(static_cast<float>(x) * 0x1p-32f, 0x1.fffffep-1f);
  return canonical * (hi - lo) + lo;
}

/// The values std::uniform_real_distribution<float>(lo, hi) draws from
/// std::mt19937(seed), in order. The engine's 624-word state and the block
/// of values drawn from it live in the object, not on the heap.
class UniformFloats {
 public:
  UniformFloats(std::uint32_t seed, float lo, float hi) : lo_(lo), hi_(hi) {
    state_[0] = seed;
    for (std::uint32_t i = 1; i < kWords; ++i)
      state_[i] = 1812433253u * (state_[i - 1] ^ (state_[i - 1] >> 30)) + i;
  }

  /// Writes the next out.size() values.
  void fill(std::span<float> out) {
    for (float& v : out) {
      if (next_ == kWords) refill();
      v = block_[next_++];
    }
  }

 private:
  static constexpr std::uint32_t kWords = 624;  ///< mt19937's n
  static constexpr std::uint32_t kShift = 397;  ///< mt19937's m

  /// Twists the state to its next 624 words, as the standard defines
  /// mt19937, and draws one value from each tempered word.
  void refill() {
    const auto twist = [](std::uint32_t upper, std::uint32_t lower, std::uint32_t far) {
      const std::uint32_t y = (upper & 0x8000'0000u) | (lower & 0x7fff'ffffu);
      return far ^ (y >> 1) ^ ((0u - (y & 1u)) & 0x9908'b0dfu);
    };
    std::uint32_t k = 0;
    for (; k < kWords - kShift; ++k)
      state_[k] = twist(state_[k], state_[k + 1], state_[k + kShift]);
    for (; k < kWords - 1; ++k)
      state_[k] = twist(state_[k], state_[k + 1], state_[k + kShift - kWords]);
    state_[kWords - 1] = twist(state_[kWords - 1], state_[0], state_[kShift - 1]);
    for (k = 0; k < kWords; ++k) {
      std::uint32_t y = state_[k];
      y ^= y >> 11;
      y ^= (y << 7) & 0x9d2c'5680u;
      y ^= (y << 15) & 0xefc6'0000u;
      y ^= y >> 18;
      block_[k] = uniform_float(y, lo_, hi_);
    }
    next_ = 0;
  }

  std::array<std::uint32_t, kWords> state_{};
  std::array<float, kWords> block_{};
  std::uint32_t next_ = kWords;  ///< the next value of block_ to hand out
  float lo_;
  float hi_;
};

}  // namespace indexmac::sparse
