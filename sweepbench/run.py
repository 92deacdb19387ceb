#!/usr/bin/env python3
"""Sweep benchmark: times `imac_run sweep` end to end on two workloads and,
with --trace 1, splits one sweep's work across the simulator's layers.

    python3 sweepbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it builds the simulator from source into
.bench_build (or $CARGO_TARGET_DIR) first. The last line of stdout is one
JSON object: correct, attempted, failed and metrics. See README.md here."""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import sweepcheck

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
RUN_LIMIT_S = 170  # every run must end within 180 s once built
BUILD_LIMIT_S = 850
# Set-up samples per run: a few before every timed sweep, topped up after.
SETUP_SAMPLES = 31
SETUP_PER_SWEEP = 3

CNNS = ["resnet50", "densenet121", "inceptionv3", "mobilenetv1"]
PAPER_ALGS = ["rowwise", "indexmac", "indexmac4"]

# The timed workloads; both are sampled sweeps (see README.md for why).
WORKLOADS = {
    "cnn-sampled": {
        "spec": {"workloads": CNNS, "sparsities": ["1:4", "2:4"], "algorithms": PAPER_ALGS,
                 "unroll": [4], "mode": "sampled"},
        "store": True,
    },
    "llm-decode-sampled": {
        "spec": {"workloads": ["llm-decode"], "sparsities": ["2:4", "2:8"],
                 "algorithms": PAPER_ALGS + ["ssr"], "unroll": [1, 2, 4], "mode": "sampled"},
        "store": False,
    },
}
# The full-size exact grid behind the exact-grade metrics. Every run
# simulates it outside the timed sweeps at the run's seed, and again in
# sampled mode, so those metrics mean the same on every workload.
MOBILENET_EXACT = {"workloads": ["mobilenetv1"], "sparsities": ["1:4", "2:4"],
                   "algorithms": PAPER_ALGS, "unroll": [4], "mode": "exact"}


class BenchError(Exception):
    pass


def note(msg):
    print(msg, flush=True)


class Run:
    """Paths and the wall-clock budget of one benchmark invocation."""

    def __init__(self, workload, seed):
        self.build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
        self.work = os.path.join(self.build, "work-%s-%d" % (workload, os.getpid()))
        self.imac_run = os.path.join(self.build, "indexmac", "tools", "imac_run")
        self.probe = os.path.join(self.build, "sweepbench_probe")
        self.deadline = None
        self.name = workload
        self.seed = seed

    def path(self, name):
        return os.path.join(self.work, name)

    def remaining(self):
        left = self.deadline - time.monotonic()
        if left <= 1:
            raise BenchError("run exceeded its %d s budget" % RUN_LIMIT_S)
        return left


def run_logged(cmd, log, timeout):
    with open(log, "ab") as out:
        try:
            proc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError("%s timed out after %d s" % (cmd[0], timeout))
    return proc.returncode


def build(run):
    """Configures (once) and builds imac_run and the probe, Release."""
    os.makedirs(run.build, exist_ok=True)
    log = os.path.join(run.build, "sweepbench-build.log")
    started = time.monotonic()
    if not os.path.exists(os.path.join(run.build, "CMakeCache.txt")):
        if run_logged(["cmake", "-S", HERE, "-B", run.build, "-DCMAKE_BUILD_TYPE=Release"],
                      log, BUILD_LIMIT_S) != 0:
            raise BenchError("cmake configure failed; see %s" % log)
    jobs = str(min(4, os.cpu_count() or 1))
    if run_logged(["cmake", "--build", run.build, "-j", jobs, "--target", "imac_run",
                   "sweepbench_probe"], log, BUILD_LIMIT_S) != 0:
        raise BenchError("build failed; see %s" % log)
    return time.monotonic() - started


def probe(run, *args):
    proc = subprocess.run([run.probe, *args], capture_output=True, text=True,
                          timeout=run.remaining())
    if proc.returncode != 0:
        raise BenchError("sweepbench_probe %s failed: %s" % (args[0], proc.stderr.strip()))
    return json.loads(proc.stdout)


def sweep(run, spec_path, out_csv, store=None, shard=None):
    """Runs one `imac_run sweep` on one worker thread under the probe's
    `measure`; returns (exit code, wall s, user+sys CPU s, peak RSS MB) of
    the sweep process alone."""
    cmd = [run.probe, "measure", out_csv + ".log", run.imac_run, "sweep", "--spec", spec_path,
           "--threads", "1", "--rollup", "--out", out_csv]
    if store:
        cmd += ["--store", store]
    if shard:
        cmd += ["--shard", shard]
    # A session of its own, so the time-budget kill reaches the sweep too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=run.remaining())
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError("imac_run sweep killed at the run's time budget")
    if proc.returncode != 0:
        raise BenchError("sweepbench_probe measure exited %d" % proc.returncode)
    m = json.loads(out)
    return m["exit"], m["wall_s"], m["cpu_s"], m["maxrss_kb"] / 1024.0


def write_spec(run, name, spec):
    # The engine reaches the program only through the spec's "engine" key.
    path = run.path(name + ".json")
    with open(path, "w") as f:
        json.dump(dict(spec, name=name, engine="threaded"), f)
    return path


def read(path):
    with open(path) as f:
        return f.read()


def reference_sweep(run, name, spec):
    out = run.path(name + ".csv")
    code, wall, _, _ = sweep(run, write_spec(run, name, spec), out)
    if code != 0:
        raise BenchError("%s sweep exited %d" % (name, code))
    return read(out), wall


def exact_sweep(run):
    """Runs the mobilenet grid exactly at the run's seed: (report, wall s)."""
    return reference_sweep(run, "mobilenet-exact", dict(MOBILENET_EXACT, seed=run.seed))


def exact_grade(run, exact, wall):
    """The four exact-grade metrics from the exact mobilenet report against
    the same grid sampled, plus whether the exact report validates."""
    spec = dict(MOBILENET_EXACT, seed=run.seed, mode="sampled")
    sampled, _ = reference_sweep(run, "mobilenet-sampled", spec)
    rows = sweepcheck.parse_report(exact)[0]
    valid = all(sweepcheck.validate_points(exact, rows, sweepcheck.analytic_accesses(sampled)))
    point_err, net_err = sweepcheck.sampled_errors(exact, sampled)
    note("  mobilenet exact grid (untimed): %d points, %.1f s wall, reports %s" % (
        len(rows), wall, "valid" if valid else "INVALID"))
    return valid, {
        "speedup.indexmac": sweepcheck.geomean_speedup(exact, "indexmac"),
        "speedup.indexmac4": sweepcheck.geomean_speedup(exact, "indexmac4"),
        "sampled_err_pct": point_err,
        "sampled_net_err_pct": net_err,
    }


def describe(name, values, unit):
    tail = sweepcheck.tail_percentile(len(values))
    extra = ("no percentile has >= 10 samples beyond it" if tail is None else
             "p%g %.6g" % (tail, sweepcheck.percentile(values, tail)))
    note("  %-20s %.6g %s  (median of n=%d; %s)" % (
        name, statistics.median(values), unit, len(values), extra))


def workload_spec(run):
    """Writes the workload's spec; returns (its path, its expansion)."""
    spec_path = write_spec(run, run.name, WORKLOADS[run.name]["spec"])
    return spec_path, probe(run, "expand", "--spec", spec_path)


def functional_pass(run, spec_path):
    """Instructions the spec's unique points retire; every C matrix must
    equal SpmmProblem::reference()."""
    result = probe(run, "fsim", "--spec", spec_path)
    if result["c_mismatches"]:
        raise BenchError("%d points computed a wrong C matrix" % result["c_mismatches"])
    return result["instructions"]


def store_dir(run, name):
    """A fresh result store for the journaled workload, else None."""
    return run.path(name) if WORKLOADS[run.name]["store"] else None


def end_to_end(run, seconds):
    spec_path, grid = workload_spec(run)
    expected = [row.split(",") for row in grid["rows"]]
    instructions = functional_pass(run, spec_path)

    setup = []

    def setup_samples(n):
        # A sweep restricted to a shard that owns no point does all of its
        # set-up (registries, spec parse, expansion and keying, store open)
        # and simulates nothing. Its CPU time is taken, not its wall time:
        # the host's descheduling and file-system waits swamp a few ms.
        for _ in range(n):
            code, _, cpu, _ = sweep(run, spec_path, run.path("setup.csv"),
                                    store=store_dir(run, "setup-store-%d" % len(setup)),
                                    shard=grid["empty_shard"])
            if code != 0:
                raise BenchError("set-up-only sweep exited %d" % code)
            setup.append(cpu)

    walls, cpus, rsss, reports, ok = [], [], [], [], []

    def timed_sweeps(budget):
        # One sweep, then more while the median sweep still fits the budget.
        while True:
            setup_samples(SETUP_PER_SWEEP)
            out = run.path("sweep-%d.csv" % len(walls))
            code, wall, cpu, rss = sweep(run, spec_path, out,
                                         store=store_dir(run, "store-%d" % len(walls)))
            walls.append(wall)
            cpus.append(cpu)
            rsss.append(rss)
            reports.append(read(out) if code == 0 and os.path.exists(out) else "")
            if sum(walls) + statistics.median(walls) > budget:
                return

    # Half the timed sweeps before the untimed exact grid and half after,
    # so their median spans the whole run, not one stretch of host speed.
    timed_sweeps(seconds / 2)
    exact = exact_sweep(run)
    timed_sweeps(seconds)
    setup_samples(max(0, SETUP_SAMPLES - len(setup)))

    for text in reports:
        ok += sweepcheck.validate_points(text, expected)
    note("workload %s, seed %d: %d points (%d unique) per sweep, %d sweeps, %d simulated "
         "instructions per sweep" % (run.name, run.seed, grid["points"], grid["unique"],
                                    len(walls), instructions))
    note("  seed: the mobilenet exact grid's spec seed; the timed sampled miniatures use the "
         "library's fixed seed 12345")
    for name, values, unit in (("wall_s", walls, "s"), ("cpu_s", cpus, "s"),
                               ("setup_s", setup, "s"), ("peak_rss_mb", rsss, "MB")):
        describe(name, values, unit)
    digests = {hashlib.sha256(t.encode()).hexdigest() for t in reports}
    note("  report digest (ungated): %s" % " ".join("sha256:" + d for d in sorted(digests)))
    exact_valid, exact_metrics = exact_grade(run, *exact)

    cpu = statistics.median(cpus)
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": cpu,
        "sim_mips": instructions / cpu / 1e6,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rsss),
        "ok_share": sum(ok) / len(ok),
        **exact_metrics,
    }
    correct = metrics["ok_share"] == 1.0 and len(digests) == 1 and exact_valid
    return correct, len(ok), len(ok) - sum(ok), metrics


def traced(run):
    spec_path, grid = workload_spec(run)
    expected = [row.split(",") for row in grid["rows"]]
    out = run.path("untraced.csv")
    code, wall, _, _ = sweep(run, spec_path, out, store=store_dir(run, "untraced-store"))
    untraced_ok = code == 0 and all(sweepcheck.validate_points(read(out), expected))
    spans_path = run.path("spans.json")
    summary = probe(run, "trace", "--spec", spec_path, "--store", run.path("trace-store"),
                    "--spans", spans_path, "--csv", out)
    with open(spans_path) as f:
        spans = json.load(f)
    metrics, points_ms = sweepcheck.layer_metrics(spans, wall)
    note("workload %s, seed %d: traced %d unique points of %d" % (
        run.name, run.seed, summary["traced"], summary["points"]))
    for failure in summary["failures"]:
        note("  point %d failed: %s" % (failure["point"], failure["reason"]))
    note("  traced report equals the untraced sweep's bytes: %s" % summary["report_matches"])
    describe("point_ms", points_ms, "ms")
    # The full-size exact points end-to-end runs simulate outside the timed
    # sweeps: run each on the functional model and check its C matrix.
    mobilenet = functional_pass(run, write_spec(run, "mobilenet-exact",
                                                dict(MOBILENET_EXACT, seed=run.seed)))
    note("  mobilenet exact grid: every C matrix equals the reference (%d instructions)"
         % mobilenet)
    failed = len(summary["failures"])
    correct = failed == 0 and summary["report_matches"] and untraced_ok
    return correct, summary["traced"], failed, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seed >= 2 ** 32:
        parser.error("--seed must fit in 32 bits")
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src", "core")):
        sys.exit("sweepbench: run from the repository root (no simulator sources in %s)" % ROOT)
    # Metric names and units are declared once, in BENCHMARK.json.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]

    run = Run(args.workload, args.seed)
    try:
        build_s = build(run)
        run.deadline = time.monotonic() + RUN_LIMIT_S
        note("build checked in %.1f s" % build_s)
        shutil.rmtree(run.work, ignore_errors=True)
        os.makedirs(run.work)
        if args.trace:
            correct, attempted, failed, metrics = traced(run)
        else:
            correct, attempted, failed, metrics = end_to_end(run, args.seconds)
    except (BenchError, OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        sys.exit("sweepbench: %s" % e)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    for m in declared:
        note("  %-28s %.6g %s" % (m["name"], metrics[m["name"]], m["unit"]))
    if not correct:
        note("OUTPUTS FAILED VALIDATION")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))


if __name__ == "__main__":
    main()
