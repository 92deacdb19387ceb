#include "timing/config.h"

#include <sstream>

namespace indexmac::timing {

std::string ProcessorConfig::describe() const {
  std::ostringstream s;
  s << "Scalar core\n"
    << "  RISC-V subset (RV64 I/M + F loads/stores + RVV slice), "
    << scalar.issue_width << "-way-issue out-of-order, " << scalar.lsq_entries
    << "-entry LSQ, " << scalar.rob_entries << "-entry ROB\n"
    << "  L1D cache: " << memory.l1d.hit_latency << "-cycle hit latency, " << memory.l1d.ways
    << "-way, " << memory.l1d.size_bytes / 1024 << "KB\n"
    << "Vector engine\n"
    << "  " << vector.lanes * 32 << "-bit vector engine with " << vector.lanes
    << "-lane configuration (32-bit elements x " << vector.lanes << " execution lanes)\n"
    << "  Connected directly to the L2 cache through " << vector.store_queues
    << " store queues and " << vector.load_queues << " load queues\n"
    << "L2 cache\n"
    << "  " << memory.l2.ways << "-way, " << memory.l2_banks << "-bank\n"
    << "  " << memory.l2.hit_latency << "-cycle hit latency, " << memory.l2.size_bytes / 1024
    << "KB shared by both the big core and the vector engine\n"
    << "Main memory\n"
    << "  DDR4-2400-like: " << memory.dram_latency << "-cycle access latency, "
    << memory.dram_line_occupancy << " cycles/line channel occupancy\n";
  return s.str();
}

}  // namespace indexmac::timing
