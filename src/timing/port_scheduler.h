// Small helper resources for the timestamp-dataflow timing model.
//
// A W-ports-per-cycle resource hands each request the first cycle at or
// after its earliest cycle that still has a free port. Fetch and commit are
// in order: their requests never go backwards (fetch asks for the cycle it
// is blocked until, which only rises; commit asks for the later of its
// completion and the previous commit), so InOrderPorts serves them from a
// single "newest claimed cycle" counter. Issue requests arrive in any cycle
// order (an instruction issues when its operands are ready), so the issue
// ports keep PortScheduler's sliding window of per-cycle port counts.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/error.h"

namespace indexmac::timing {

/// A W-ports-per-cycle resource whose requests arrive in any cycle order
/// (issue). Bookkeeping uses a power-of-two sliding window of recent
/// cycles; requests older than the window are clamped forward, a
/// negligible approximation for well-formed pipelines.
class PortScheduler {
 public:
  explicit PortScheduler(unsigned width, std::size_t window = 4096)
      : width_(width), mask_(window - 1), used_(window, 0) {
    IMAC_CHECK(width >= 1 && width <= 255, "port width must be in [1, 255]");
    IMAC_CHECK(std::has_single_bit(window),
               "port window must be a power of two, got " + std::to_string(window));
  }

  /// Returns the first cycle >= earliest with a free port and claims it.
  std::uint64_t claim(std::uint64_t earliest) {
    for (std::uint64_t cycle = std::max(earliest, base_);; ++cycle) {
      advance_window(cycle);
      std::uint8_t& used = used_[cycle & mask_];
      if (used < width_) {
        ++used;
        return cycle;
      }
    }
  }

 private:
  void advance_window(std::uint64_t cycle) {
    // Slide the window forward so `cycle` is representable. The recycled
    // slots are zeroed range-wise (the ring maps them to at most two
    // contiguous spans) rather than one slot at a time.
    const std::uint64_t window = used_.size();
    if (cycle < base_ + window) return;
    const std::uint64_t new_base = cycle - window / 2;
    const std::uint64_t count = std::min(new_base - base_, window);
    const std::uint64_t first = base_ & mask_;
    const std::uint64_t head = std::min(count, window - first);
    std::fill_n(used_.begin() + static_cast<std::ptrdiff_t>(first), head, std::uint8_t{0});
    std::fill_n(used_.begin(), count - head, std::uint8_t{0});
    base_ = new_base;
  }

  unsigned width_;
  std::uint64_t mask_;
  std::vector<std::uint8_t> used_;
  std::uint64_t base_ = 0;
};

/// A W-ports-per-cycle resource whose requests never go backwards (fetch,
/// in-order commit). For such a stream every cycle between a request and
/// the newest claimed cycle is already full, so the first free port is in
/// that newest cycle or the one after: O(1) per claim, no window, and the
/// same cycles a PortScheduler returns for the same stream.
class InOrderPorts {
 public:
  explicit InOrderPorts(unsigned width) : width_(width) {
    IMAC_CHECK(width >= 1, "port width must be positive");
  }

  /// Returns the first cycle >= earliest with a free port and claims it.
  /// `earliest` must not be below the previous request's.
  std::uint64_t claim(std::uint64_t earliest) {
    IMAC_ASSERT(earliest >= last_request_,
                "in-order port request for cycle " + std::to_string(earliest) +
                    " after one for cycle " + std::to_string(last_request_));
    last_request_ = earliest;
    if (earliest > cycle_) {
      cycle_ = earliest;
      used_ = 1;
    } else if (used_ < width_) {
      ++used_;
    } else {
      ++cycle_;
      used_ = 1;
    }
    return cycle_;
  }

 private:
  unsigned width_;
  unsigned used_ = 0;        ///< ports claimed in cycle_
  std::uint64_t cycle_ = 0;  ///< the newest cycle with a claimed port
  std::uint64_t last_request_ = 0;
};

/// A pool of N slots each held until a completion time (ROB, LSQ, queues).
/// Allocation is in program order (ring), which matches how these
/// structures fill and drain.
class SlotPool {
 public:
  explicit SlotPool(unsigned entries) : free_at_(entries, 0) {
    IMAC_CHECK(entries >= 1, "slot pool must have at least one entry");
  }

  /// Earliest cycle (>= earliest) at which the next slot is available.
  [[nodiscard]] std::uint64_t available(std::uint64_t earliest) const {
    return std::max(earliest, free_at_[next_]);
  }

  /// Claims the next slot, holding it until `release_cycle`.
  void claim(std::uint64_t release_cycle) {
    free_at_[next_] = release_cycle;
    if (++next_ == free_at_.size()) next_ = 0;
  }

 private:
  std::vector<std::uint64_t> free_at_;
  std::size_t next_ = 0;
};

}  // namespace indexmac::timing
