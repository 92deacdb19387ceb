#include "debug/gdb_server.h"

#include <cstdio>
#include <deque>
#include <fstream>
#include <optional>

#include "common/error.h"
#include "debug/gdb_stub.h"
#include "debug/net.h"

namespace indexmac::debug {

namespace {

/// Steps the continue loop in slices so the interrupt poll (Ctrl-C over the
/// socket, SIGINT on the process) gets a look between them. Large enough
/// that the poll costs nothing; small enough that an interrupt lands within
/// milliseconds.
constexpr std::uint64_t kRunSliceSteps = 1'000'000;

/// Memory reads/writes per m/M packet are bounded: GDB chunks its own
/// requests well below this, and an absurd length is a corrupt packet, not
/// a real transfer.
constexpr std::uint64_t kMaxMemoryXfer = 1u << 16;

[[nodiscard]] std::string hex_addr(std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%llx", static_cast<unsigned long long>(value));
  return buf;
}

/// Bytes of one register in the g/G file (regnum order, see gdb_server.h).
[[nodiscard]] unsigned reg_bytes(unsigned regnum) {
  if (regnum <= kRegPc) return 8;                      // x0..x31, pc
  if (regnum < kRegV0) return 4;                       // f0..f31
  if (regnum < kRegVl) return isa::kVlMax * 4;         // v0..v31 (512-bit)
  return 4;                                            // vl
}

}  // namespace

const std::string& target_xml() {
  static const std::string xml = [] {
    std::string s;
    s += "<?xml version=\"1.0\"?>\n";
    s += "<!DOCTYPE target SYSTEM \"gdb-target.dtd\">\n";
    s += "<target version=\"1.0\">\n";
    s += "  <architecture>riscv:rv64</architecture>\n";
    s += "  <feature name=\"org.gnu.gdb.riscv.cpu\">\n";
    for (unsigned r = 0; r < isa::kNumXRegs; ++r)
      s += "    <reg name=\"x" + std::to_string(r) + "\" bitsize=\"64\" type=\"int\" regnum=\"" +
           std::to_string(kRegX0 + r) + "\"/>\n";
    s += "    <reg name=\"pc\" bitsize=\"64\" type=\"code_ptr\" regnum=\"" +
         std::to_string(kRegPc) + "\"/>\n";
    s += "  </feature>\n";
    s += "  <feature name=\"org.gnu.gdb.riscv.fpu\">\n";
    for (unsigned r = 0; r < isa::kNumFRegs; ++r)
      s += "    <reg name=\"f" + std::to_string(r) +
           "\" bitsize=\"32\" type=\"ieee_single\" regnum=\"" + std::to_string(kRegF0 + r) +
           "\"/>\n";
    s += "  </feature>\n";
    s += "  <feature name=\"org.gnu.gdb.riscv.vector\">\n";
    s += "    <vector id=\"v16u32\" type=\"uint32\" count=\"" + std::to_string(isa::kVlMax) +
         "\"/>\n";
    for (unsigned r = 0; r < isa::kNumVRegs; ++r)
      s += "    <reg name=\"v" + std::to_string(r) + "\" bitsize=\"" +
           std::to_string(isa::kVlenBits) + "\" type=\"v16u32\" regnum=\"" +
           std::to_string(kRegV0 + r) + "\"/>\n";
    s += "    <reg name=\"vl\" bitsize=\"32\" type=\"int\" regnum=\"" + std::to_string(kRegVl) +
         "\"/>\n";
    s += "  </feature>\n";
    s += "</target>\n";
    return s;
  }();
  return xml;
}

GdbSession::GdbSession(const AssembledText& assembled, Machine& machine, MainMemory& memory)
    : assembled_(assembled), machine_(machine), memory_(memory) {}

std::string GdbSession::read_register(unsigned regnum) const {
  const ArchState& st = machine_.state();
  if (regnum < isa::kNumXRegs) return u64_to_hex_le(st.x[regnum], 8);
  if (regnum == kRegPc) return u64_to_hex_le(st.pc, 8);
  if (regnum >= kRegF0 && regnum < kRegV0) return u64_to_hex_le(st.f[regnum - kRegF0], 4);
  if (regnum >= kRegV0 && regnum < kRegVl) {
    std::string out;
    out.reserve(isa::kVlMax * 8);
    for (unsigned lane = 0; lane < isa::kVlMax; ++lane)
      out += u64_to_hex_le(st.v[regnum - kRegV0][lane], 4);
    return out;
  }
  if (regnum == kRegVl) return u64_to_hex_le(st.vl, 4);
  raise("gdb stub: register number " + std::to_string(regnum) + " out of range");
}

bool GdbSession::write_register(unsigned regnum, std::string_view hex) {
  if (regnum >= kNumDebugRegs || hex.size() != reg_bytes(regnum) * 2) return false;
  ArchState& st = machine_.state();
  if (regnum < isa::kNumXRegs) {
    // x0 is architecturally zero; GDB may still write the slot — ignore.
    if (regnum != 0) st.x[regnum] = hex_le_to_u64(hex);
  } else if (regnum == kRegPc) {
    st.pc = hex_le_to_u64(hex);
  } else if (regnum < kRegV0) {
    st.f[regnum - kRegF0] = static_cast<std::uint32_t>(hex_le_to_u64(hex));
  } else if (regnum < kRegVl) {
    for (unsigned lane = 0; lane < isa::kVlMax; ++lane)
      st.v[regnum - kRegV0][lane] =
          static_cast<std::uint32_t>(hex_le_to_u64(hex.substr(lane * 8, 8)));
  } else {
    // Every vector handler loops to vl over 16-lane registers.
    const std::uint64_t vl = hex_le_to_u64(hex);
    if (vl > isa::kVlMax) return false;
    st.vl = static_cast<std::uint32_t>(vl);
  }
  return true;
}

std::string GdbSession::resume(bool single_step, std::string_view addr_text) {
  if (exited_) return last_stop_;  // process already reported W00
  if (!addr_text.empty()) machine_.state().pc = parse_hex_u64(addr_text);
  try {
    if (single_step) {
      const StopReason r = machine_.step();
      if (r == StopReason::kEbreak || r == StopReason::kEcall) {
        exited_ = true;
        last_stop_ = "W00";
      } else {
        last_stop_ = "S05";
      }
      return last_stop_;
    }
    // Continue. A pc parked on a breakpoint steps over it first, exactly as
    // GDB drives real stubs (it removes/reinserts traps; we just step).
    if (breakpoints_.contains(machine_.state().pc)) {
      const StopReason r = machine_.step();
      if (r == StopReason::kEbreak || r == StopReason::kEcall) {
        exited_ = true;
        last_stop_ = "W00";
        return last_stop_;
      }
    }
    while (true) {
      const StopReason r = machine_.run_with_breakpoints(breakpoints_, kRunSliceSteps);
      if (r == StopReason::kRunning) {
        last_stop_ = "T05swbreak:;";  // parked on a breakpoint
        return last_stop_;
      }
      if (r == StopReason::kEbreak || r == StopReason::kEcall) {
        exited_ = true;
        last_stop_ = "W00";
        return last_stop_;
      }
      // kMaxSteps: slice exhausted — give the transport a chance to Ctrl-C.
      if (interrupt_poll_ && interrupt_poll_()) {
        last_stop_ = "S02";
        return last_stop_;
      }
    }
  } catch (const SimError& e) {
    // Execution fault (pc left the program, disabled SSR pop, ...): the
    // debugger sees a SIGSEGV-style stop and can inspect state; the text
    // is kept for `monitor fault`.
    last_fault_ = e.what();
    last_stop_ = "S0b";
    return last_stop_;
  }
}

std::string GdbSession::monitor(std::string_view command) {
  if (command == "retired")
    return std::to_string(machine_.instructions_retired()) + "\n";
  if (command == "fault") return (last_fault_.empty() ? "none" : last_fault_) + "\n";
  if (command == "markers") {
    std::string out;
    const Program& p = machine_.program();
    for (std::size_t slot = 0; slot < p.decoded().size(); ++slot)
      if (p.decoded()[slot].op == isa::Op::kMarker)
        out += "marker " + std::to_string(p.decoded()[slot].imm) + " " +
               hex_addr(p.base() + 4 * slot) + "\n";
    return out.empty() ? "no markers\n" : out;
  }
  if (command == "symbols") {
    std::string out;
    for (const auto& [name, addr] : assembled_.symbols)
      out += name + " " + hex_addr(addr) + "\n";
    return out.empty() ? "no symbols\n" : out;
  }
  return "unknown monitor command \"" + std::string(command) +
         "\" (try: retired, fault, markers, symbols)\n";
}

std::string GdbSession::handle(std::string_view payload) {
  reply_suppressed_ = false;
  if (payload.empty()) return "";
  try {
    const char cmd = payload[0];
    const std::string_view rest = payload.substr(1);
    switch (cmd) {
      case '?':
        return last_stop_;
      case 'g': {
        std::string out;
        for (unsigned r = 0; r < kNumDebugRegs; ++r) out += read_register(r);
        return out;
      }
      case 'G': {
        std::size_t off = 0;
        for (unsigned r = 0; r < kNumDebugRegs; ++r) {
          const std::size_t digits = reg_bytes(r) * 2;
          if (off + digits > rest.size()) return "E01";
          if (!write_register(r, rest.substr(off, digits))) return "E01";
          off += digits;
        }
        return off == rest.size() ? "OK" : "E01";
      }
      case 'p': {
        const auto regnum = static_cast<unsigned>(parse_hex_u64(rest));
        if (regnum >= kNumDebugRegs) return "E01";
        return read_register(regnum);
      }
      case 'P': {
        const std::size_t eq = rest.find('=');
        if (eq == std::string_view::npos) return "E01";
        const auto regnum = static_cast<unsigned>(parse_hex_u64(rest.substr(0, eq)));
        return write_register(regnum, rest.substr(eq + 1)) ? "OK" : "E01";
      }
      case 'm': {
        const std::size_t comma = rest.find(',');
        if (comma == std::string_view::npos) return "E01";
        const std::uint64_t addr = parse_hex_u64(rest.substr(0, comma));
        const std::uint64_t len = parse_hex_u64(rest.substr(comma + 1));
        if (len == 0 || len > kMaxMemoryXfer) return "E01";
        std::string bytes(len, '\0');
        memory_.read_bytes(addr, {reinterpret_cast<std::uint8_t*>(bytes.data()), bytes.size()});
        return bytes_to_hex(bytes);
      }
      case 'M': {
        const std::size_t comma = rest.find(',');
        const std::size_t colon = rest.find(':');
        if (comma == std::string_view::npos || colon == std::string_view::npos || colon < comma)
          return "E01";
        const std::uint64_t addr = parse_hex_u64(rest.substr(0, comma));
        const std::uint64_t len = parse_hex_u64(rest.substr(comma + 1, colon - comma - 1));
        if (len > kMaxMemoryXfer) return "E01";
        const std::string bytes = hex_to_bytes(rest.substr(colon + 1));
        if (bytes.size() != len) return "E01";
        memory_.write_bytes(addr,
                            {reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()});
        return "OK";
      }
      case 'c':
        return resume(/*single_step=*/false, rest);
      case 's':
        return resume(/*single_step=*/true, rest);
      case 'Z':
      case 'z': {
        if (rest.size() < 2 || rest[0] != '0' || rest[1] != ',') return "";  // sw bp only
        const std::string_view body = rest.substr(2);
        const std::size_t comma = body.find(',');
        const std::uint64_t addr =
            parse_hex_u64(comma == std::string_view::npos ? body : body.substr(0, comma));
        if (cmd == 'Z')
          breakpoints_.add(addr);
        else
          breakpoints_.remove(addr);
        return "OK";
      }
      case 'H':
        return "OK";  // thread ops: single-threaded target, any Hg/Hc is fine
      case 'T':
        return "OK";  // "is thread alive" — the only thread always is
      case 'D':
        finished_ = true;
        return "OK";
      case 'k':
        finished_ = true;
        reply_suppressed_ = true;  // GDB closes without reading a reply
        return "";
      default:
        break;
    }
    if (payload == "qC") return "QC1";
    if (payload == "qAttached") return "1";
    if (payload == "QStartNoAckMode") {
      no_ack_ = true;
      return "OK";
    }
    if (payload.rfind("qSupported", 0) == 0)
      return "PacketSize=4000;qXfer:features:read+;swbreak+;QStartNoAckMode+";
    if (payload.rfind("qXfer:features:read:", 0) == 0) {
      // qXfer:features:read:ANNEX:OFFSET,LENGTH
      const std::string_view tail = payload.substr(std::string_view("qXfer:features:read:").size());
      const std::size_t colon = tail.rfind(':');
      if (colon == std::string_view::npos) return "E01";
      if (tail.substr(0, colon) != "target.xml") return "E00";
      const std::string_view range = tail.substr(colon + 1);
      const std::size_t comma = range.find(',');
      if (comma == std::string_view::npos) return "E01";
      const std::uint64_t offset = parse_hex_u64(range.substr(0, comma));
      const std::uint64_t length = parse_hex_u64(range.substr(comma + 1));
      const std::string& xml = target_xml();
      if (offset >= xml.size()) return "l";
      const std::string chunk = xml.substr(offset, length);
      const bool final_chunk = offset + chunk.size() >= xml.size();
      return (final_chunk ? "l" : "m") + chunk;
    }
    if (payload.rfind("qRcmd,", 0) == 0) {
      const std::string command = hex_to_bytes(payload.substr(6));
      return bytes_to_hex(monitor(command));
    }
  } catch (const SimError&) {
    return "E01";  // malformed packet contents (bad hex, short fields, ...)
  }
  return "";  // unsupported packet: empty reply, per protocol
}

int run_gdb_server(const AssembledText& assembled, MainMemory& memory,
                   const GdbServerOptions& options) {
  Listener listener(options.port);
  if (!options.port_file.empty()) {
    std::ofstream pf(options.port_file, std::ios::binary | std::ios::trunc);
    IMAC_CHECK(pf.good(), "gdb stub: cannot write port file " + options.port_file);
    pf << listener.port() << "\n";
    pf.close();
    IMAC_CHECK(pf.good(), "gdb stub: cannot write port file " + options.port_file);
  }
  if (!options.quiet)
    std::fprintf(stderr, "gdb stub: listening on 127.0.0.1:%u\n", listener.port());

  const auto stop_raised = [&] { return options.stop != nullptr && options.stop->load(); };

  Socket client;
  while (!client.valid()) {
    if (stop_raised()) return 130;
    if (wait_readable(listener.fd(), 100)) client = listener.accept();
  }
  if (!options.quiet) std::fprintf(stderr, "gdb stub: debugger connected\n");

  Machine machine(assembled.program, memory);
  GdbSession session(assembled, machine, memory);
  PacketBuffer buffer;
  // Events decoded by the interrupt poll while the target was running;
  // processed once control returns to the main loop.
  std::deque<PacketBuffer::Event> queued;
  std::string last_reply_frame;
  bool peer_eof = false;

  session.set_interrupt_poll([&]() -> bool {
    if (stop_raised()) return true;
    char tmp[4096];
    while (wait_readable(client.fd(), 0)) {
      const std::size_t n = client.recv_some(tmp, sizeof tmp);
      if (n == 0) {
        peer_eof = true;
        return true;  // debugger vanished: stop running, exit cleanly
      }
      buffer.feed(tmp, n);
    }
    bool interrupted = false;
    while (auto event = buffer.next()) {
      if (event->kind == PacketBuffer::Kind::kInterrupt)
        interrupted = true;
      else if (event->kind != PacketBuffer::Kind::kAck)
        queued.push_back(std::move(*event));
    }
    return interrupted;
  });

  while (!session.finished() && !peer_eof) {
    if (stop_raised()) return 130;
    std::optional<PacketBuffer::Event> event;
    if (!queued.empty()) {
      event = std::move(queued.front());
      queued.pop_front();
    } else {
      event = buffer.next();
    }
    if (!event.has_value()) {
      if (!wait_readable(client.fd(), 100)) continue;
      char tmp[4096];
      const std::size_t n = client.recv_some(tmp, sizeof tmp);
      if (n == 0) break;  // orderly EOF: debugger closed the connection
      buffer.feed(tmp, n);
      continue;
    }
    switch (event->kind) {
      case PacketBuffer::Kind::kAck:
        break;
      case PacketBuffer::Kind::kNak:
        if (!last_reply_frame.empty())
          client.send_all(last_reply_frame.data(), last_reply_frame.size());
        break;
      case PacketBuffer::Kind::kInterrupt:
        break;  // target already stopped; nothing to interrupt
      case PacketBuffer::Kind::kBadChecksum:
        client.send_all("-", 1);
        break;
      case PacketBuffer::Kind::kPacket: {
        if (!session.no_ack()) client.send_all("+", 1);
        const std::string reply = session.handle(event->payload);
        if (session.reply_suppressed()) {
          last_reply_frame.clear();
          break;
        }
        last_reply_frame = rsp_frame(reply);
        client.send_all(last_reply_frame.data(), last_reply_frame.size());
        break;
      }
    }
  }
  if (!options.quiet) std::fprintf(stderr, "gdb stub: session ended\n");
  return 0;
}

}  // namespace indexmac::debug
