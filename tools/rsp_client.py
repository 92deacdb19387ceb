#!/usr/bin/env python3
"""GDB remote-serial-protocol client for the imac_run gdb stub (stdlib only).

Library half: RspClient speaks enough RSP to drive the stub — packet
framing/checksums/acks, QStartNoAckMode, register/memory access, software
breakpoints, continue/step, and qRcmd ("monitor") commands.

Script half (python3 rsp_client.py --run IMAC_RUN --program FILE.S): the
end-to-end test behind ctest's test_gdb_e2e. It launches `imac_run gdb`,
sets a breakpoint at the program's `marker 1` pc (found via `monitor
markers`), continues to it, single-steps 3 instructions, and then asserts
that every x-register, pc, and vl are bit-identical to a plain `imac_run
run --max-steps N --dump-regs` of the same program stopped at the same
instruction count — the stub must observe execution, never perturb it.
Memory reads check the program's self-built operand arrays; an M/m
round-trip checks writes; a final continue must report the program exit
(W00) with the correct kernel result in memory.
"""

import argparse
import os
import re
import socket
import subprocess
import sys
import tempfile
import time

# ---------------------------------------------------------------------------
# library


def checksum(data: bytes) -> int:
    return sum(data) % 256


def escape(payload: bytes) -> bytes:
    out = bytearray()
    for b in payload:
        if b in b"$#}*":
            out += bytes((0x7D, b ^ 0x20))
        else:
            out.append(b)
    return bytes(out)


def unescape(data: bytes) -> bytes:
    out = bytearray()
    i = 0
    while i < len(data):
        if data[i] == 0x7D:
            i += 1
            out.append(data[i] ^ 0x20)
        else:
            out.append(data[i])
        i += 1
    return bytes(out)


class RspError(Exception):
    pass


class RspClient:
    """One RSP connection. Methods raise RspError on protocol violations."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.settimeout(timeout)
        self.buf = bytearray()
        self.no_ack = False

    def close(self):
        self.sock.close()

    # --- packet transport

    def _recv_more(self):
        chunk = self.sock.recv(4096)
        if not chunk:
            raise RspError("stub closed the connection")
        self.buf += chunk

    def _read_byte(self) -> int:
        while not self.buf:
            self._recv_more()
        b = self.buf[0]
        del self.buf[0]
        return b

    def _read_packet(self) -> bytes:
        """Reads one $...#xx frame (skipping acks), verifies, acks it."""
        while True:
            b = self._read_byte()
            if b == ord("$"):
                break
            if b in (ord("+"), ord("-")):
                continue  # stray ack/nak outside send()
        body = bytearray()
        while True:
            b = self._read_byte()
            if b == ord("#"):
                break
            body.append(b)
        sum_text = bytes((self._read_byte(), self._read_byte()))
        if int(sum_text, 16) != checksum(body):
            raise RspError(f"bad checksum from stub on {bytes(body)!r}")
        if not self.no_ack:
            self.sock.sendall(b"+")
        return unescape(bytes(body))

    def send(self, payload: bytes) -> bytes:
        """Sends one packet and returns the stub's reply payload."""
        esc = escape(payload)
        frame = b"$" + esc + b"#" + b"%02x" % checksum(esc)
        self.sock.sendall(frame)
        if not self.no_ack:
            while True:
                b = self._read_byte()
                if b == ord("+"):
                    break
                if b == ord("-"):
                    self.sock.sendall(frame)  # retransmit request
                # anything else: line noise before the ack
        return self._read_packet()

    def cmd(self, text: str) -> str:
        return self.send(text.encode()).decode()

    # --- session helpers

    def handshake(self) -> str:
        features = self.cmd("qSupported:swbreak+")
        if "qXfer:features:read+" not in features:
            raise RspError(f"stub lacks qXfer:features:read: {features!r}")
        if self.cmd("QStartNoAckMode") != "OK":
            raise RspError("QStartNoAckMode refused")
        self.no_ack = True
        return features

    def target_xml(self) -> str:
        xml, offset = "", 0
        while True:
            reply = self.cmd(f"qXfer:features:read:target.xml:{offset:x},800")
            if not reply or reply[0] not in "ml":
                raise RspError(f"bad qXfer reply {reply!r}")
            xml += reply[1:]
            offset += len(reply) - 1
            if reply[0] == "l":
                return xml

    def read_reg(self, regnum: int) -> str:
        """Raw little-endian hex of one register."""
        reply = self.cmd(f"p{regnum:x}")
        if not reply or reply.startswith("E"):
            raise RspError(f"p{regnum:x} -> {reply!r}")
        return reply

    def read_reg_u64(self, regnum: int) -> int:
        return int.from_bytes(bytes.fromhex(self.read_reg(regnum)), "little")

    def write_reg(self, regnum: int, hex_le: str):
        if self.cmd(f"P{regnum:x}={hex_le}") != "OK":
            raise RspError(f"P{regnum:x} refused")

    def read_mem(self, addr: int, length: int) -> bytes:
        reply = self.cmd(f"m{addr:x},{length:x}")
        if not reply or reply.startswith("E"):
            raise RspError(f"m{addr:x},{length:x} -> {reply!r}")
        return bytes.fromhex(reply)

    def write_mem(self, addr: int, data: bytes):
        if self.cmd(f"M{addr:x},{len(data):x}:{data.hex()}") != "OK":
            raise RspError(f"M{addr:x} refused")

    def set_bp(self, addr: int):
        if self.cmd(f"Z0,{addr:x},4") != "OK":
            raise RspError(f"Z0 at {addr:#x} refused")

    def clear_bp(self, addr: int):
        if self.cmd(f"z0,{addr:x},4") != "OK":
            raise RspError(f"z0 at {addr:#x} refused")

    def cont(self) -> str:
        return self.cmd("c")

    def step(self) -> str:
        return self.cmd("s")

    def monitor(self, command: str) -> str:
        reply = self.send(b"qRcmd," + command.encode().hex().encode())
        return bytes.fromhex(reply.decode()).decode()

    def kill(self):
        """Sends 'k' (no reply expected) and closes."""
        esc = escape(b"k")
        self.sock.sendall(b"$" + esc + b"#" + b"%02x" % checksum(esc))
        self.close()


# ---------------------------------------------------------------------------
# end-to-end test


PC_REGNUM = 32
VL_REGNUM = 97
STEPS_PAST_BP = 3


def fail(msg: str):
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check(cond: bool, msg: str):
    if not cond:
        fail(msg)


def launch_stub(run_bin: str, program: str, workdir: str):
    """Starts `imac_run gdb`, waits for the port file, returns (proc, port)."""
    port_file = os.path.join(workdir, "port")
    proc = subprocess.Popen(
        [run_bin, "gdb", program, "--port", "0", "--port-file", port_file],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        try:
            with open(port_file) as f:
                port = int(f.read().strip())
            if port > 0:
                return proc, port
        except (FileNotFoundError, ValueError):
            pass
        check(proc.poll() is None, "stub exited early")
        time.sleep(0.05)
    fail("no port file after 30s")


def reference_regs(run_bin: str, program: str, max_steps: int):
    """x-registers and vl from a plain fsim run stopped at max_steps."""
    out = subprocess.run(
        [run_bin, "run", "--max-steps", str(max_steps), "--dump-regs", program],
        capture_output=True, text=True, check=True).stdout
    regs = {}
    for m in re.finditer(r"x(\d+)\s*=([0-9a-f]+)", out):
        regs[int(m.group(1))] = int(m.group(2), 16)
    check(len(regs) == 32, f"reference dump parsed {len(regs)} x-regs, want 32")
    vl = re.search(r"vl=(\d+)", out)
    check(vl is not None, "reference dump has no vl")
    return regs, int(vl.group(1))


def drive_session(run_bin: str, program: str, workdir: str):
    """Runs the full debug scenario against one stub process."""
    proc, port = launch_stub(run_bin, program, workdir)
    client = None
    try:
        client = RspClient("127.0.0.1", port)
        client.handshake()

        xml = client.target_xml()
        for needle in ('name="x31"', 'name="pc"', 'name="v31"', 'name="vl"',
                       "riscv:rv64"):
            check(needle in xml, f"target.xml lacks {needle}")

        # Find the marker pc and the program's labels.
        markers = dict(
            (int(m.group(1)), int(m.group(2), 16))
            for m in re.finditer(r"marker (\d+) 0x([0-9a-f]+)",
                                 client.monitor("markers")))
        check(1 in markers, "monitor markers lacks marker 1")
        bp = markers[1]
        check("loop" in client.monitor("symbols"), "monitor symbols lacks 'loop'")

        # Breakpoint at the marker, continue to it.
        client.set_bp(bp)
        stop = client.cont()
        check(stop.startswith("T05") or stop == "S05",
              f"continue to breakpoint -> {stop!r}")
        check(client.read_reg_u64(PC_REGNUM) == bp,
              f"stopped pc != marker pc {bp:#x}")
        retired = int(client.monitor("retired").strip())
        check(retired > 0, "no instructions retired before the marker")

        # The sentinel the program set right before the marker.
        check(client.read_reg_u64(27) == 0xBEEF, "x27 sentinel != 0xbeef at bp")

        # Memory the program built before the marker: B row 0 at 0x8000.
        row0 = client.read_mem(0x8000, 64)
        want = b"".join((100 + j).to_bytes(4, "little") for j in range(16))
        check(row0 == want, "B row 0 bytes mismatch at the breakpoint")

        # Single-step past the breakpoint.
        for i in range(STEPS_PAST_BP):
            stop = client.step()
            check(stop == "S05", f"step {i} -> {stop!r}")
        check(int(client.monitor("retired").strip()) == retired + STEPS_PAST_BP,
              "retired count off after stepping")

        # Bit-identical to a plain run stopped at the same instruction count.
        ref_x, ref_vl = reference_regs(run_bin, program,
                                       retired + STEPS_PAST_BP)
        for r in range(32):
            got = client.read_reg_u64(r)
            check(got == ref_x[r],
                  f"x{r} = {got:#x}, plain run has {ref_x[r]:#x}")
        check(client.read_reg_u64(VL_REGNUM) == ref_vl, "vl mismatch")

        # P/p round-trip on a dead register, restoring it after.
        old = client.read_reg(28)
        client.write_reg(28, "efbeaddeefbeadde")
        check(client.read_reg(28) == "efbeaddeefbeadde", "P/p round-trip failed")
        client.write_reg(28, old)

        # M/m round-trip on scratch memory the program never touches.
        blob = bytes(range(48))
        client.write_mem(0xA000, blob)
        check(client.read_mem(0xA000, len(blob)) == blob, "M/m round-trip failed")

        # Run to completion and check the kernel's result.
        client.clear_bp(bp)
        stop = client.cont()
        check(stop == "W00", f"final continue -> {stop!r}")
        c_row = client.read_mem(0x9000, 64)
        want = b"".join((1800 + 8 * j).to_bytes(4, "little") for j in range(16))
        check(c_row == want, "kernel result C row mismatch after W00")

        client.kill()
        client = None
        check(proc.wait(timeout=30) == 0, "stub exit code != 0 after kill")
        proc = None
    finally:
        if client is not None:
            client.close()
        if proc is not None:
            proc.kill()
            proc.wait()


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--run", required=True, help="path to the imac_run binary")
    ap.add_argument("--program", required=True, help="path to debug_demo.s")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory(prefix="imac_gdb_") as workdir:
        drive_session(args.run, args.program, workdir)
    print("PASS: gdb stub end-to-end")


if __name__ == "__main__":
    main()
