// Debug-stub tests: the RSP packet layer (framing, checksums, escaping,
// incremental decode across recv boundaries), the BreakpointSet, the
// run_with_breakpoints contract (stop BEFORE the breakpointed instruction),
// and the GdbSession command layer driven packet-by-packet without a socket.
#include <gtest/gtest.h>

#include <string>
#include <type_traits>
#include <vector>

#include "asm/text_assembler.h"
#include "common/error.h"
#include "debug/gdb_server.h"
#include "debug/gdb_stub.h"
#include "fsim/breakpoints.h"
#include "fsim/machine.h"
#include "mem/main_memory.h"

namespace indexmac::debug {
namespace {

// The session keeps a reference to its AssembledText, so a temporary one
// must not compile.
static_assert(!std::is_constructible_v<GdbSession, AssembledText&&, Machine&, MainMemory&>);
static_assert(std::is_constructible_v<GdbSession, const AssembledText&, Machine&, MainMemory&>);

// --- packet layer ----------------------------------------------------------

TEST(RspChecksum, MatchesKnownVectors) {
  EXPECT_EQ(rsp_checksum(""), 0u);
  EXPECT_EQ(rsp_checksum("OK"), ('O' + 'K') % 256);
  // The canonical example from the GDB manual: "$g#67".
  EXPECT_EQ(rsp_checksum("g"), 0x67u);
  // Wraps mod 256.
  EXPECT_EQ(rsp_checksum(std::string(256, 'a')), static_cast<std::uint8_t>(256 * 'a'));
}

TEST(RspEscape, RoundTripsReservedBytes) {
  const std::string payload = "a$b#c}d*e";
  const std::string escaped = rsp_escape(payload);
  // Every reserved byte costs two output bytes.
  EXPECT_EQ(escaped.size(), payload.size() + 4);
  EXPECT_EQ(escaped.find('$'), std::string::npos);
  EXPECT_EQ(escaped.find('#'), std::string::npos);
  EXPECT_EQ(escaped.find('*'), std::string::npos);
  EXPECT_EQ(rsp_unescape(escaped), payload);
}

TEST(RspEscape, EscapeByteItselfRoundTrips) {
  const std::string payload = "\x7d\x7d$\x7d";
  EXPECT_EQ(rsp_unescape(rsp_escape(payload)), payload);
}

TEST(RspEscape, LoneTrailingEscapeThrows) {
  EXPECT_THROW((void)rsp_unescape("abc\x7d"), SimError);
}

TEST(RspFrame, ChecksumCoversEscapedBytes) {
  // '#' escapes to 0x7d,0x03; the checksum must cover those two bytes.
  const std::string frame = rsp_frame("#");
  EXPECT_EQ(frame.substr(0, 1), "$");
  const std::string escaped = rsp_escape("#");
  char expect[3];
  std::snprintf(expect, sizeof expect, "%02x", rsp_checksum(escaped));
  EXPECT_EQ(frame, "$" + escaped + "#" + expect);
}

TEST(RspHex, ByteConversionsRoundTrip) {
  EXPECT_EQ(bytes_to_hex(std::string("\x00\xff\x10", 3)), "00ff10");
  EXPECT_EQ(hex_to_bytes("00ff10"), std::string("\x00\xff\x10", 3));
  EXPECT_THROW((void)hex_to_bytes("abc"), SimError);   // odd length
  EXPECT_THROW((void)hex_to_bytes("zz"), SimError);    // non-hex digit
}

TEST(RspHex, LittleEndianU64) {
  EXPECT_EQ(u64_to_hex_le(0x1122334455667788ull, 8), "8877665544332211");
  EXPECT_EQ(hex_le_to_u64("8877665544332211"), 0x1122334455667788ull);
  EXPECT_EQ(u64_to_hex_le(0xbeef, 4), "efbe0000");
  EXPECT_EQ(hex_le_to_u64("efbe0000"), 0xbeefull);
  EXPECT_THROW((void)hex_le_to_u64(""), SimError);
  EXPECT_THROW((void)hex_le_to_u64("112233445566778899"), SimError);  // 9 bytes
}

TEST(RspHex, BigEndianNumbers) {
  EXPECT_EQ(parse_hex_u64("1000"), 0x1000ull);
  EXPECT_EQ(parse_hex_u64("ffffffffffffffff"), ~0ull);
  EXPECT_THROW((void)parse_hex_u64(""), SimError);
  EXPECT_THROW((void)parse_hex_u64("0x10"), SimError);  // no 0x prefix in RSP
}

TEST(PacketBuffer, DecodesWholePacket) {
  PacketBuffer buf;
  buf.feed(rsp_frame("qSupported"));
  const auto ev = buf.next();
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->kind, PacketBuffer::Kind::kPacket);
  EXPECT_EQ(ev->payload, "qSupported");
  EXPECT_FALSE(buf.next().has_value());
  EXPECT_EQ(buf.pending_bytes(), 0u);
}

TEST(PacketBuffer, EmptyPacket) {
  PacketBuffer buf;
  buf.feed("$#00");
  const auto ev = buf.next();
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->kind, PacketBuffer::Kind::kPacket);
  EXPECT_EQ(ev->payload, "");
}

TEST(PacketBuffer, ReassemblesAcrossEveryRecvBoundary) {
  // The same frame split at every possible byte boundary must decode to the
  // same packet exactly once — the "interrupted $...#xx frame across recv
  // boundaries" case.
  const std::string frame = rsp_frame("m8000,40") + "+";
  for (std::size_t split = 0; split <= frame.size(); ++split) {
    PacketBuffer buf;
    buf.feed(frame.substr(0, split));
    std::vector<PacketBuffer::Event> events;
    while (auto ev = buf.next()) events.push_back(*ev);
    buf.feed(frame.substr(split));
    while (auto ev = buf.next()) events.push_back(*ev);
    ASSERT_EQ(events.size(), 2u) << "split at " << split;
    EXPECT_EQ(events[0].kind, PacketBuffer::Kind::kPacket);
    EXPECT_EQ(events[0].payload, "m8000,40");
    EXPECT_EQ(events[1].kind, PacketBuffer::Kind::kAck);
  }
}

TEST(PacketBuffer, EscapedPayloadAcrossBoundaries) {
  const std::string payload = "X}$#*Y";
  const std::string frame = rsp_frame(payload);
  for (std::size_t split = 0; split <= frame.size(); ++split) {
    PacketBuffer buf;
    buf.feed(frame.substr(0, split));
    auto ev = buf.next();
    if (!ev.has_value()) {
      buf.feed(frame.substr(split));
      ev = buf.next();
    }
    ASSERT_TRUE(ev.has_value()) << "split at " << split;
    EXPECT_EQ(ev->payload, payload);
  }
}

TEST(PacketBuffer, BadChecksumSurfacesForNak) {
  PacketBuffer buf;
  buf.feed("$g#00");  // checksum of "g" is 67, not 00
  const auto ev = buf.next();
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->kind, PacketBuffer::Kind::kBadChecksum);
  EXPECT_EQ(ev->payload, "g");
}

TEST(PacketBuffer, AckNakInterruptBetweenPackets) {
  PacketBuffer buf;
  buf.feed("+-\x03");
  buf.feed(rsp_frame("?"));
  std::vector<PacketBuffer::Kind> kinds;
  while (auto ev = buf.next()) kinds.push_back(ev->kind);
  ASSERT_EQ(kinds.size(), 4u);
  EXPECT_EQ(kinds[0], PacketBuffer::Kind::kAck);
  EXPECT_EQ(kinds[1], PacketBuffer::Kind::kNak);
  EXPECT_EQ(kinds[2], PacketBuffer::Kind::kInterrupt);
  EXPECT_EQ(kinds[3], PacketBuffer::Kind::kPacket);
}

TEST(PacketBuffer, LineNoiseIsSkipped) {
  PacketBuffer buf;
  buf.feed("garbage\r\n");
  buf.feed(rsp_frame("OK"));
  const auto ev = buf.next();
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->kind, PacketBuffer::Kind::kPacket);
  EXPECT_EQ(ev->payload, "OK");
}

TEST(PacketBuffer, OversizedInFlightBodyThrows) {
  PacketBuffer buf;
  buf.feed("$");
  buf.feed(std::string(kMaxPacketBytes + 1, 'a'));  // no '#' yet
  EXPECT_THROW((void)buf.next(), SimError);
}

// --- breakpoint set --------------------------------------------------------

TEST(BreakpointSet, AddRemoveContains) {
  BreakpointSet bps;
  EXPECT_TRUE(bps.empty());
  bps.add(0x1010);
  bps.add(0x1000);
  bps.add(0x1010);  // duplicate is a no-op
  EXPECT_EQ(bps.size(), 2u);
  EXPECT_TRUE(bps.contains(0x1000));
  EXPECT_TRUE(bps.contains(0x1010));
  EXPECT_FALSE(bps.contains(0x1004));
  EXPECT_TRUE(bps.remove(0x1000));
  EXPECT_FALSE(bps.remove(0x1000));  // already gone
  EXPECT_EQ(bps.size(), 1u);
}

// --- run_with_breakpoints --------------------------------------------------

/// A loop over the Algorithm 3 inner shape (index extract -> MAC -> slide).
const char* kLoopSource = R"(
    li   t0, 16
    vsetvli zero, t0, e32m1
    li   t1, 0x8000
    li   t2, 3
    sw   t2, 0(t1)
    li   t2, 5
    sw   t2, 4(t1)
    vle32.v v4, (t1)
    li   t1, 0x8100
    li   t2, 16
    sw   t2, 0(t1)
    li   t2, 17
    sw   t2, 4(t1)
    vle32.v v8, (t1)
    vmv.v.i v0, 0
    vmv.v.i v16, 7
    vmv.v.i v17, 9
    marker 1
loop:
    vmv.x.s t4, v8
    vindexmac.vx v0, v4, t4
    vslide1down.vx v4, v4, zero
    vslide1down.vx v8, v8, zero
    addi t5, t5, 1
    li   t6, 2
    blt  t5, t6, loop
    ebreak
)";

TEST(RunWithBreakpoints, StopsBeforeBreakpoint) {
  const AssembledText assembled = assemble_text(kLoopSource);
  const std::uint64_t bp = assembled.symbols.at("loop");
  MainMemory mem;
  Machine m(assembled.program, mem);
  BreakpointSet bps;
  bps.add(bp);
  EXPECT_EQ(m.run_with_breakpoints(bps), StopReason::kRunning);
  EXPECT_EQ(m.state().pc, bp);  // parked ON the breakpoint, not past it
  // The breakpointed instruction has not executed: t4 (x29) still zero.
  EXPECT_EQ(m.state().x[29], 0u);
}

TEST(RunWithBreakpoints, PcAlreadyOnBreakpointReturnsImmediately) {
  const AssembledText assembled = assemble_text(kLoopSource);
  MainMemory mem;
  Machine m(assembled.program, mem);
  BreakpointSet bps;
  bps.add(assembled.program.base());
  const std::uint64_t before = m.instructions_retired();
  EXPECT_EQ(m.run_with_breakpoints(bps), StopReason::kRunning);
  EXPECT_EQ(m.instructions_retired(), before);  // nothing executed
}

TEST(RunWithBreakpoints, MaxStepsStillReported) {
  const AssembledText assembled = assemble_text(kLoopSource);
  MainMemory mem;
  Machine m(assembled.program, mem);
  BreakpointSet bps;
  bps.add(0xdead000);  // never hit
  EXPECT_EQ(m.run_with_breakpoints(bps, 5), StopReason::kMaxSteps);
  EXPECT_EQ(m.instructions_retired(), 5u);
}

TEST(RunWithBreakpoints, EmptySetRunsToCompletion) {
  const AssembledText assembled = assemble_text(kLoopSource);
  MainMemory mem;
  Machine m(assembled.program, mem);
  EXPECT_EQ(m.run_with_breakpoints(BreakpointSet{}), StopReason::kEbreak);
}

// --- GdbSession command layer ---------------------------------------------

struct SessionFixture {
  AssembledText assembled = assemble_text(kLoopSource);
  MainMemory mem;
  Machine machine{assembled.program, mem};
  GdbSession session{assembled, machine, mem};
};

TEST(GdbSession, SupportedAndFeatures) {
  SessionFixture f;
  const std::string reply = f.session.handle("qSupported:swbreak+");
  EXPECT_NE(reply.find("qXfer:features:read+"), std::string::npos);
  EXPECT_NE(reply.find("QStartNoAckMode+"), std::string::npos);
  EXPECT_NE(reply.find("PacketSize="), std::string::npos);

  // Chunked target.xml fetch reassembles to the full document.
  std::string xml;
  std::size_t offset = 0;
  for (;;) {
    char req[64];
    std::snprintf(req, sizeof req, "qXfer:features:read:target.xml:%zx,40", offset);
    const std::string chunk = f.session.handle(req);
    ASSERT_FALSE(chunk.empty());
    ASSERT_TRUE(chunk[0] == 'm' || chunk[0] == 'l');
    xml += chunk.substr(1);
    offset += chunk.size() - 1;
    if (chunk[0] == 'l') break;
  }
  EXPECT_EQ(xml, target_xml());
  EXPECT_NE(xml.find("riscv:rv64"), std::string::npos);
  EXPECT_NE(xml.find("name=\"vl\""), std::string::npos);
}

TEST(GdbSession, NoAckModeNegotiation) {
  SessionFixture f;
  EXPECT_FALSE(f.session.no_ack());
  EXPECT_EQ(f.session.handle("QStartNoAckMode"), "OK");
  EXPECT_TRUE(f.session.no_ack());
}

TEST(GdbSession, RegisterFileMatchesMachineState) {
  SessionFixture f;
  f.machine.state().x[5] = 0x1122334455667788ull;
  f.machine.state().v[4][0] = 0xabcd;
  f.machine.state().vl = 16;
  const std::string g = f.session.handle("g");
  // x5 at offset 5*16 hex digits, little-endian.
  EXPECT_EQ(g.substr(5 * 16, 16), "8877665544332211");
  // p picks out single registers: pc is regnum 32 (0x20).
  EXPECT_EQ(f.session.handle("p20"),
            u64_to_hex_le(f.machine.state().pc, 8));
  // vl is regnum 97 (0x61), a 32-bit register.
  EXPECT_EQ(f.session.handle("p61"), "10000000");
  // v4 is regnum 69 (0x45): 16 little-endian u32 lanes.
  const std::string v4 = f.session.handle("p45");
  ASSERT_EQ(v4.size(), isa::kVlMax * 8);
  EXPECT_EQ(v4.substr(0, 8), "cdab0000");
}

TEST(GdbSession, RegisterWriteReadRoundTrip) {
  SessionFixture f;
  EXPECT_EQ(f.session.handle("P5=efbeaddeefbeadde"), "OK");
  EXPECT_EQ(f.machine.state().x[5], 0xdeadbeefdeadbeefull);
  EXPECT_EQ(f.session.handle("p5"), "efbeaddeefbeadde");
  // x0 writes are accepted and ignored.
  EXPECT_EQ(f.session.handle("P0=0102030405060708"), "OK");
  EXPECT_EQ(f.machine.state().x[0], 0u);
  // Whole-file write round-trips.
  const std::string g = f.session.handle("g");
  EXPECT_EQ(f.session.handle("G" + g), "OK");
  EXPECT_EQ(f.session.handle("g"), g);
  // Bad register numbers and lengths error, not crash.
  EXPECT_EQ(f.session.handle("p7f"), "E01");
  EXPECT_EQ(f.session.handle("P5=1234"), "E01");
  // vl is capped at VLMAX: the vector handlers index 16-lane registers.
  EXPECT_EQ(f.session.handle("P61=10000000"), "OK");
  EXPECT_EQ(f.session.handle("P61=11000000"), "E01");
  EXPECT_EQ(f.machine.state().vl, isa::kVlMax);
}

TEST(GdbSession, MemoryAccess) {
  SessionFixture f;
  f.mem.write_u32(0x8000, 0x11223344);
  EXPECT_EQ(f.session.handle("m8000,4"), "44332211");
  EXPECT_EQ(f.session.handle("M9000,4:efbeadde"), "OK");
  EXPECT_EQ(f.mem.read_u32(0x9000), 0xdeadbeefu);
  EXPECT_EQ(f.session.handle("m9000,4"), "efbeadde");
  // Length/payload mismatch and absurd lengths are errors.
  EXPECT_EQ(f.session.handle("M9000,4:efbe"), "E01");
  EXPECT_EQ(f.session.handle("m9000,10001"), "E01");
  EXPECT_EQ(f.session.handle("m9000"), "E01");
}

TEST(GdbSession, BreakpointContinueStep) {
  SessionFixture f;
  const std::uint64_t bp = f.assembled.symbols.at("loop");
  char zpkt[32];
  std::snprintf(zpkt, sizeof zpkt, "Z0,%llx,4", static_cast<unsigned long long>(bp));
  EXPECT_EQ(f.session.handle(zpkt), "OK");
  EXPECT_EQ(f.session.handle("c"), "T05swbreak:;");
  EXPECT_EQ(f.machine.state().pc, bp);
  EXPECT_EQ(f.session.handle("?"), "T05swbreak:;");  // '?' repeats last stop
  // Single steps report S05 and advance exactly one instruction.
  const std::uint64_t retired = f.machine.instructions_retired();
  EXPECT_EQ(f.session.handle("s"), "S05");
  EXPECT_EQ(f.machine.instructions_retired(), retired + 1);
  // Continue resumes past the (still-set) breakpoint pc via step-over, hits
  // it again on the loop's second iteration, then removing it lets the
  // program run to ebreak (W00).
  f.machine.state().pc = bp;  // rewind onto the breakpoint
  EXPECT_EQ(f.session.handle("c"), "T05swbreak:;");
  char zrem[32];
  std::snprintf(zrem, sizeof zrem, "z0,%llx,4", static_cast<unsigned long long>(bp));
  EXPECT_EQ(f.session.handle(zrem), "OK");
  EXPECT_EQ(f.session.handle("c"), "W00");
  EXPECT_EQ(f.session.handle("c"), "W00");  // resuming an exited process
  // Non-software breakpoint types are unsupported (empty reply).
  EXPECT_EQ(f.session.handle("Z1,8000,4"), "");
}

TEST(GdbSession, ExecutionFaultBecomesSignalStop) {
  SessionFixture f;
  f.machine.state().pc = 0xdead0000;  // outside the program
  EXPECT_EQ(f.session.handle("s"), "S0b");
  EXPECT_EQ(f.session.handle("?"), "S0b");
  EXPECT_FALSE(f.session.last_fault().empty());
  // monitor fault surfaces the SimError text (hex-encoded qRcmd reply).
  const std::string reply = f.session.handle("qRcmd," + bytes_to_hex("fault"));
  EXPECT_EQ(hex_to_bytes(reply), f.session.last_fault() + "\n");
}

TEST(GdbSession, MonitorCommands) {
  SessionFixture f;
  const auto run_monitor = [&](const std::string& cmd) {
    return hex_to_bytes(f.session.handle("qRcmd," + bytes_to_hex(cmd)));
  };
  EXPECT_EQ(run_monitor("retired"), "0\n");
  EXPECT_EQ(run_monitor("fault"), "none\n");
  // markers lists the marker pc; symbols lists the labels.
  const std::string markers = run_monitor("markers");
  EXPECT_NE(markers.find("marker 1 0x"), std::string::npos);
  const std::string symbols = run_monitor("symbols");
  EXPECT_NE(symbols.find("loop 0x"), std::string::npos);
  EXPECT_NE(run_monitor("bogus").find("unknown monitor command"), std::string::npos);
}

TEST(GdbSession, DetachAndKill) {
  SessionFixture f;
  EXPECT_FALSE(f.session.finished());
  EXPECT_EQ(f.session.handle("D"), "OK");
  EXPECT_TRUE(f.session.finished());

  SessionFixture g;
  EXPECT_EQ(g.session.handle("k"), "");
  EXPECT_TRUE(g.session.finished());
  EXPECT_TRUE(g.session.reply_suppressed());
}

TEST(GdbSession, UnsupportedAndMalformedPackets) {
  SessionFixture f;
  EXPECT_EQ(f.session.handle("vMustReplyEmpty"), "");
  EXPECT_EQ(f.session.handle(""), "");
  EXPECT_EQ(f.session.handle("qC"), "QC1");
  EXPECT_EQ(f.session.handle("qAttached"), "1");
  EXPECT_EQ(f.session.handle("Hg0"), "OK");
  EXPECT_EQ(f.session.handle("mzz,4"), "E01");  // bad hex -> error, not throw
}

}  // namespace
}  // namespace indexmac::debug
