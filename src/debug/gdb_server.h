// GDB remote-serial-protocol stub over a functional Machine: the command/
// session layer (packet framing lives in debug/gdb_stub.h, sockets in
// debug/net.h). `imac_run gdb file.s` serves one debugger connection so a
// generated kernel can be breakpointed, single-stepped, and inspected with
// stock `riscv64-elf-gdb` ("target remote :PORT") or the stdlib-only
// client in tools/rsp_client.py.
//
// Protocol surface (enough for real debugging, single thread, no-ack mode
// supported):
//
//   qSupported / qXfer:features:read   handshake + target XML describing
//                                      x0..x31+pc, f0..f31, v0..v31+vl
//   g / G, p / P                       whole-file and per-register access
//   m / M                              memory read/write (MainMemory bytes)
//   c / s [addr]                       continue / step; stop replies:
//                                      T05swbreak:; (breakpoint), S05
//                                      (step), S02 (Ctrl-C interrupt),
//                                      S0b (SimError fault, e.g. pc left
//                                      the program), W00 (ebreak/ecall)
//   Z0 / z0                            software breakpoints by pc — checked
//                                      by Machine::run_with_breakpoints,
//                                      never patched into the program image
//   qRcmd ("monitor")                  retired / markers / symbols / fault
//                                      — simulator introspection
//
// The session steps the same Machine every other run uses, so register and
// memory state observed at a stop is bit-identical to an undebugged run at
// the same instruction count.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "asm/text_assembler.h"
#include "fsim/breakpoints.h"
#include "fsim/machine.h"
#include "mem/main_memory.h"

namespace indexmac::debug {

/// Register numbering of the target XML (contiguous; the g/G packet is the
/// concatenation of all of these in regnum order, little-endian hex).
inline constexpr unsigned kRegX0 = 0;        ///< x0..x31: 64-bit
inline constexpr unsigned kRegPc = 32;       ///< 64-bit
inline constexpr unsigned kRegF0 = 33;       ///< f0..f31: 32-bit fp32 bits
inline constexpr unsigned kRegV0 = 65;       ///< v0..v31: 512-bit (16 x u32 lanes)
inline constexpr unsigned kRegVl = 97;       ///< 32-bit
inline constexpr unsigned kNumDebugRegs = 98;

/// The target description served via qXfer:features:read:target.xml.
[[nodiscard]] const std::string& target_xml();

/// One debugger session over one Machine. Transport-free: handle() maps a
/// decoded packet payload to a reply payload, so tests drive it directly
/// and the socket loop in run_gdb_server stays thin.
class GdbSession {
 public:
  /// The session steps `machine`; `memory` must be the machine's backing
  /// store (M packets write it; Machine only exposes a const view);
  /// `assembled` additionally provides label symbols and marker pcs for
  /// qRcmd.
  GdbSession(const AssembledText& assembled, Machine& machine, MainMemory& memory);
  /// Would keep a dangling AssembledText: the session holds a reference.
  GdbSession(AssembledText&&, Machine&, MainMemory&) = delete;

  /// Handles one packet payload, returns the reply payload ("" = unsupported
  /// packet, per protocol). SimErrors from malformed packets become "E.."
  /// replies; SimErrors raised by execution become "S0b" stops with the
  /// fault text retained for `monitor fault`.
  [[nodiscard]] std::string handle(std::string_view payload);

  /// Polled between execution slices during c/s so the transport can
  /// deliver a Ctrl-C (0x03) or the process a SIGINT; returning true stops
  /// with S02. Unset = uninterruptible until the program stops itself.
  void set_interrupt_poll(std::function<bool()> poll) { interrupt_poll_ = std::move(poll); }

  /// True once the debugger detached ('D') or killed ('k') the session.
  [[nodiscard]] bool finished() const { return finished_; }
  /// True when the last handle()d packet expects no reply at all ('k' —
  /// GDB closes without reading one; an empty packet would be misread as
  /// "unsupported").
  [[nodiscard]] bool reply_suppressed() const { return reply_suppressed_; }
  /// True once QStartNoAckMode was negotiated ('+'/'-' acks stop).
  [[nodiscard]] bool no_ack() const { return no_ack_; }

  [[nodiscard]] const BreakpointSet& breakpoints() const { return breakpoints_; }
  [[nodiscard]] const std::string& last_fault() const { return last_fault_; }

 private:
  [[nodiscard]] std::string resume(bool single_step, std::string_view addr_text);
  [[nodiscard]] std::string read_register(unsigned regnum) const;
  [[nodiscard]] bool write_register(unsigned regnum, std::string_view hex);
  [[nodiscard]] std::string monitor(std::string_view command);

  const AssembledText& assembled_;
  Machine& machine_;
  MainMemory& memory_;
  BreakpointSet breakpoints_;
  std::function<bool()> interrupt_poll_;
  std::string last_stop_ = "S05";  ///< reply to '?'
  std::string last_fault_;
  bool finished_ = false;
  bool no_ack_ = false;
  bool reply_suppressed_ = false;
  bool exited_ = false;  ///< program hit ebreak/ecall; further resumes reply W00
};

struct GdbServerOptions {
  std::uint16_t port = 0;       ///< 0 = kernel-assigned; see port_file
  std::string port_file;        ///< write the bound port here (harness handshake)
  std::atomic<bool>* stop = nullptr;  ///< SIGINT/SIGTERM flag; exit 130
  bool quiet = false;
};

/// Binds 127.0.0.1, publishes the port, serves ONE debugger connection to
/// completion (client EOF, detach, or kill), and returns a process exit
/// code: 0 on a clean session, 130 when `*stop` was raised. Throws SimError
/// on setup failures (bad port file path, socket errors).
[[nodiscard]] int run_gdb_server(const AssembledText& assembled, MainMemory& memory,
                                 const GdbServerOptions& options);

}  // namespace indexmac::debug
