#!/usr/bin/env python3
"""Signal drill for crash-safe sweeps: `imac_run sweep --store` under fire.

Sends real signals to real `imac_run sweep` processes and checks that the
journal makes every interruption recoverable, byte for byte. Every run uses
one thread, and every signal is triggered by OBSERVED journal growth (the
first record appended past the 12-byte header), never by a timer, so the
drill replays identically however fast the simulations are:

  1. SIGKILL a `--store --rollup` run once its journal grows; it must die
     by SIGKILL (had it finished first, it would have exited 0), which
     proves the kill landed mid-grid.
  2. SIGINT a run on a fresh store the same way; it must exit 130 and say
     `rerun with --resume`.
  3. `--resume` the killed store: the report must equal the golden byte
     for byte. A second `--resume` must answer from the journal alone
     (`store: 0 new simulations journaled`), with the same bytes.
  4. SIGKILL shard 1/2 mid-run, resume it, then run shard 2/2 into its own
     store. `merge --store s1 --store s2` must equal the golden's point
     rows (the lines before `# rollup`).

Exit code 0 on success; nonzero with a diagnostic on any violation.
Stdlib only.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

TIMEOUT_S = 120
JOURNAL_HEADER_BYTES = 12  # 8-byte magic + u32 format version
JOURNAL_NAME = "results.journal"


def fail(message: str) -> None:
    print(f"chaos_sweep: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


class Drill:
    def __init__(self, run: str, spec: str, workdir: Path):
        self.run = run
        self.spec = spec
        self.workdir = workdir

    def sweep_args(self, store: str, *extra: str) -> list:
        return [self.run, "sweep", "--spec", self.spec, "--threads", "1",
                "--store", str(self.workdir / store), *extra]

    def signal_mid_run(self, name: str, store: str, sig: int, *extra: str):
        """Starts a sweep on a fresh `store`, sends `sig` as soon as its
        journal holds a record, and returns (exit code, stderr)."""
        journal = self.workdir / store / JOURNAL_NAME
        shutil.rmtree(self.workdir / store, ignore_errors=True)
        log_path = self.workdir / f"{name}.log"
        with open(log_path, "wb") as log:
            proc = subprocess.Popen(self.sweep_args(store, *extra),
                                    stdout=subprocess.DEVNULL, stderr=log)
            try:
                deadline = time.monotonic() + TIMEOUT_S
                while journal_size(journal) <= JOURNAL_HEADER_BYTES:
                    if proc.poll() is not None:
                        fail(f"{name}: sweep exited {proc.returncode} before its journal grew "
                             f"(see {log_path})")
                    if time.monotonic() > deadline:
                        fail(f"{name}: journal {journal} never grew")
                    time.sleep(0.001)
                proc.send_signal(sig)
                rc = proc.wait(timeout=TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        return rc, log_path.read_text(errors="replace")

    def sweep(self, name: str, store: str, *extra: str) -> str:
        """Runs a sweep to completion (it must exit 0); returns its stderr."""
        proc = subprocess.run(self.sweep_args(store, *extra),
                              capture_output=True, text=True, timeout=TIMEOUT_S)
        (self.workdir / f"{name}.log").write_text(proc.stderr)
        if proc.returncode != 0:
            fail(f"{name}: sweep exited {proc.returncode}:\n{proc.stderr}")
        return proc.stderr


def journal_size(path: Path) -> int:
    try:
        return path.stat().st_size
    except FileNotFoundError:
        return 0


def expect_same(got: Path, want: bytes, what: str) -> None:
    if got.read_bytes() != want:
        fail(f"{what}: {got} differs from the golden")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--run", required=True, help="path to the imac_run binary")
    parser.add_argument("--spec", required=True, help="sweep spec JSON file (exact mode)")
    parser.add_argument("--golden", required=True,
                        help="the spec's `sweep --rollup` CSV, byte for byte")
    parser.add_argument("--workdir", help="working directory (default: a fresh tempdir)")
    parser.add_argument("--keep", action="store_true",
                        help="keep the workdir for postmortems")
    args = parser.parse_args()

    workdir = Path(args.workdir) if args.workdir else Path(tempfile.mkdtemp(prefix="chaos_sweep_"))
    workdir.mkdir(parents=True, exist_ok=True)
    golden = Path(args.golden).read_bytes()
    marker = golden.find(b"# rollup")
    if marker < 0:
        fail(f"{args.golden} has no '# rollup' section")
    golden_points = golden[:marker]
    drill = Drill(args.run, args.spec, workdir)

    # 1. SIGKILL mid-run.
    rc, _ = drill.signal_mid_run("killed", "store", signal.SIGKILL, "--rollup")
    if rc != -signal.SIGKILL:
        fail(f"killed: expected death by SIGKILL mid-run, got exit {rc}")
    print("chaos_sweep: SIGKILL landed mid-run")

    # 2. SIGINT mid-run: graceful stop with a resume hint.
    rc, err = drill.signal_mid_run("interrupted", "store_int", signal.SIGINT, "--rollup")
    if rc != 130:
        fail(f"interrupted: expected exit 130 after SIGINT, got {rc}:\n{err}")
    if "rerun with --resume" not in err:
        fail(f"interrupted: no 'rerun with --resume' hint in stderr:\n{err}")
    print("chaos_sweep: SIGINT exited 130 with a resume hint")

    # 3. Resume the killed store, then re-query it warm.
    drill.sweep("resumed", "store", "--resume", "--rollup", "--out", str(workdir / "resumed.csv"))
    expect_same(workdir / "resumed.csv", golden, "resumed")
    err = drill.sweep("requery", "store", "--resume", "--rollup",
                      "--out", str(workdir / "requery.csv"))
    if "store: 0 new simulations journaled" not in err:
        fail(f"requery: a warm store still simulated:\n{err}")
    expect_same(workdir / "requery.csv", golden, "requery")
    print("chaos_sweep: resume matches the golden; the warm store ran 0 simulations")

    # 4. Shards: SIGKILL shard 1 mid-run, resume it, run shard 2, merge.
    rc, _ = drill.signal_mid_run("shard1_killed", "s1", signal.SIGKILL, "--shard", "1/2")
    if rc != -signal.SIGKILL:
        fail(f"shard1_killed: expected death by SIGKILL mid-run, got exit {rc}")
    drill.sweep("shard1", "s1", "--shard", "1/2", "--resume", "--out", os.devnull)
    shutil.rmtree(workdir / "s2", ignore_errors=True)
    drill.sweep("shard2", "s2", "--shard", "2/2", "--out", os.devnull)
    merged = workdir / "merged.csv"
    proc = subprocess.run([args.run, "merge", "--spec", args.spec,
                           "--store", str(workdir / "s1"), "--store", str(workdir / "s2"),
                           "--out", str(merged)],
                          capture_output=True, text=True, timeout=TIMEOUT_S)
    if proc.returncode != 0:
        fail(f"merge exited {proc.returncode}:\n{proc.stderr}")
    expect_same(merged, golden_points, "merged shards")
    print("chaos_sweep: killed + resumed shard merges to the golden point rows")

    if not args.keep and not args.workdir:
        shutil.rmtree(workdir, ignore_errors=True)
    print("chaos_sweep: PASS")


if __name__ == "__main__":
    main()
