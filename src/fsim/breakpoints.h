// A set of breakpoint PCs shared by the debug stub and the functional
// simulator. Breakpoints are purely a stepping concern: they never modify
// the program image (no trap-instruction patching — Machine checks PCs
// directly), so setting or clearing one cannot perturb architectural
// results. Kept in fsim/ rather than debug/ because Machine takes it as a
// run_with_breakpoints() parameter; the GDB server (debug/gdb_server.h)
// owns the instance.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace indexmac {

/// A small ordered set of program counters. Sized for interactive debugging
/// (a handful of entries), so lookups binary-search a sorted vector — no
/// per-node allocation.
class BreakpointSet {
 public:
  /// Inserts `pc`; idempotent.
  void add(std::uint64_t pc) {
    const auto it = std::lower_bound(pcs_.begin(), pcs_.end(), pc);
    if (it == pcs_.end() || *it != pc) pcs_.insert(it, pc);
  }

  /// Removes `pc`; returns false when it was not set.
  bool remove(std::uint64_t pc) {
    const auto it = std::lower_bound(pcs_.begin(), pcs_.end(), pc);
    if (it == pcs_.end() || *it != pc) return false;
    pcs_.erase(it);
    return true;
  }

  [[nodiscard]] bool contains(std::uint64_t pc) const {
    return std::binary_search(pcs_.begin(), pcs_.end(), pc);
  }

  [[nodiscard]] bool empty() const { return pcs_.empty(); }
  [[nodiscard]] std::size_t size() const { return pcs_.size(); }
  void clear() { pcs_.clear(); }

  /// All breakpoint PCs in ascending order.
  [[nodiscard]] const std::vector<std::uint64_t>& pcs() const { return pcs_; }

 private:
  std::vector<std::uint64_t> pcs_;  // sorted ascending, unique
};

}  // namespace indexmac
