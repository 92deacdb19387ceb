#include "fsim/tracer.h"

#include <cstdio>
#include <cstring>

#include "isa/encoding.h"
#include "isa/static_info.h"

namespace indexmac {

std::pair<TraceRecord, StopReason> Tracer::step() {
  const ArchState& pre = machine_.state();
  TraceRecord rec;
  rec.index = count_++;
  rec.pc = pre.pc;
  rec.inst = machine_.program().at(pre.pc);
  rec.disasm = isa::disassemble(rec.inst);
  rec.vl = pre.vl;

  const StopReason stop = machine_.step();

  const ArchState& post = machine_.state();
  const isa::StaticInstInfo si = isa::predecode(rec.inst);
  if (si.has(isa::kSiWritesX)) rec.x_write = post.x[rec.inst.rd];
  if (si.has(isa::kSiWritesF)) rec.f_write = post.f[rec.inst.rd];
  rec.v_write = si.has(isa::kSiWritesV);
  return {rec, stop};
}

StopReason Tracer::run(std::ostream& out, std::uint64_t max_steps) {
  for (std::uint64_t i = 0; i < max_steps; ++i) {
    auto [rec, stop] = step();
    out << format(rec) << '\n';
    if (stop != StopReason::kRunning) return stop;
  }
  return StopReason::kMaxSteps;
}

std::string Tracer::format(const TraceRecord& rec) {
  char head[64];
  std::snprintf(head, sizeof head, "%8llu  %08llx  ",
                static_cast<unsigned long long>(rec.index),
                static_cast<unsigned long long>(rec.pc));
  std::string line = head + rec.disasm;
  if (rec.x_write) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "   # x%u=0x%llx", rec.inst.rd,
                  static_cast<unsigned long long>(*rec.x_write));
    line += buf;
  } else if (rec.f_write) {
    char buf[48];
    float value;
    std::memcpy(&value, &*rec.f_write, sizeof value);
    std::snprintf(buf, sizeof buf, "   # f%u=%g", rec.inst.rd, value);
    line += buf;
  } else if (rec.v_write) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "   # v%u updated (vl=%u)", rec.inst.rd, rec.vl);
    line += buf;
  }
  return line;
}

}  // namespace indexmac
