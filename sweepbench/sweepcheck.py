"""Arithmetic of the sweep benchmark: report parsing, point validation,
sampled-vs-exact joins, rollup speedups, percentiles and the per-layer split
of a traced run. Pure functions over text and lists, tested by
test_sweepcheck.py; run.py does the process work."""

import math

# CSV row fields that identify a point (everything before cycles, accesses).
KEY_FIELDS = 12
MODE = 11
COUNT = 2
CYCLES = 12
ACCESSES = 13
# Rollup row: suite,sparsity,algorithm,dataflow,unroll,tile_rows,mode,
# layers,workloads,cycles,data_accesses,energy_proxy_bytes
R_ALG, R_MODE, R_LAYERS, R_WORKLOADS, R_CYCLES, R_ACCESSES, R_ENERGY = 2, 6, 7, 8, 9, 10, 11
ROLLUP_MARKER = "# rollup"
BASELINE = "rowwise"


def parse_report(text):
    """Splits an `imac_run sweep --rollup` CSV into point rows and rollup
    rows, each a list of fields (header and comment lines dropped). The
    rollup list is None when the report has no rollup section."""
    rows, rollup = [], None
    for line in text.splitlines():
        if line.startswith(ROLLUP_MARKER):
            rollup = []
            continue
        if not line or line.startswith("#") or line.startswith("suite,"):
            continue
        (rows if rollup is None else rollup).append(line.split(","))
    return rows, rollup


def rollup_key(row):
    """(suite, sparsity, algorithm, dataflow, unroll, tile_rows, mode) of a
    point row, the grouping core/rollup uses."""
    return (row[0], row[6], row[7], row[8], row[9], row[10], row[11])


def fold_rollup(rows):
    """Count-weighted network totals of point rows, in first-occurrence
    order: key -> [layers, workloads, cycles, data_accesses]."""
    groups = {}
    for row in rows:
        g = groups.setdefault(rollup_key(row), [0, 0, 0.0, 0])
        count = int(row[COUNT])
        g[0] += count
        g[1] += 1
        g[2] += count * float(row[CYCLES])
        g[3] += count * int(row[ACCESSES])
    return groups


def _rollup_matches(total, row):
    layers, workloads, cycles, accesses = total
    if (int(row[R_LAYERS]), int(row[R_WORKLOADS])) != (layers, workloads):
        return False
    if (int(row[R_ACCESSES]), int(row[R_ENERGY])) != (accesses, accesses * 64):
        return False
    # Sampled cycles are printed to 2 decimals per row and per total, so
    # the count-weighted sum of printed rows may differ by half a cent per
    # layer; exact cycles are integers and must match exactly.
    slack = 0.0 if row[R_MODE] == "exact" else 0.005 * (layers + 1)
    return abs(float(row[R_CYCLES]) - cycles) <= slack + 1e-9 * abs(cycles)


def _good_groups(rows, rollup):
    """Rollup keys whose printed total equals the fold of the rows."""
    printed = {tuple(r[:R_MODE + 1]): r for r in rollup or []}
    if rollup is None or len(printed) != len(rollup):
        return set()  # no rollup section, or a group printed twice
    try:
        return {k for k, total in fold_rollup(rows).items()
                if k in printed and _rollup_matches(total, printed[k])}
    except (ValueError, IndexError):
        return set()


def validate_points(text, expected, analytic=None):
    """One bool per expected point (expected: rows of key fields in
    expansion order). A point validates only if its row appears exactly
    once and at its expansion position, its cycles are finite and above 0,
    an exact point's data_accesses equals `analytic[key]` (when given), and
    its `# rollup` total equals the count-weighted sum of its group's rows."""
    rows, rollup = parse_report(text)
    keys = [tuple(r[:KEY_FIELDS]) for r in rows]
    occurrences = {}
    for k in keys:
        occurrences[k] = occurrences.get(k, 0) + 1
    good_groups = _good_groups(rows, rollup)
    ok = []
    for i, exp in enumerate(expected):
        key = tuple(exp[:KEY_FIELDS])
        if i >= len(rows) or keys[i] != key or occurrences[key] != 1:
            ok.append(False)
            continue
        row = rows[i]
        # A group folds cleanly only if all its rows parse, so a point of
        # a good group has numeric fields.
        good = rollup_key(row) in good_groups and len(row) == ACCESSES + 1
        if good:
            cycles = float(row[CYCLES])
            good = math.isfinite(cycles) and cycles > 0
        if good and row[MODE] == "exact" and analytic is not None:
            good = analytic.get(key[:MODE]) == int(row[ACCESSES])
        ok.append(good)
    return ok


def analytic_accesses(sampled_text):
    """Point key (without mode) -> data_accesses of a sampled report: the
    sampled estimator reports the algorithm registry's analytic footprint."""
    rows, _ = parse_report(sampled_text)
    return {tuple(r[:MODE]): int(r[ACCESSES]) for r in rows}


def _err_pct(sampled, exact):
    return abs(sampled - exact) / exact * 100.0


def sampled_errors(exact_text, sampled_text):
    """(worst per-point |sampled - exact| / exact, worst per-rollup error),
    both in percent, joining rows on every key field but the mode."""
    exact_rows, exact_roll = parse_report(exact_text)
    sampled_rows, sampled_roll = parse_report(sampled_text)
    sampled = {tuple(r[:MODE]): float(r[CYCLES]) for r in sampled_rows}
    point = [_err_pct(sampled[tuple(r[:MODE])], float(r[CYCLES])) for r in exact_rows]
    sampled_net = {tuple(r[:R_MODE]): float(r[R_CYCLES]) for r in sampled_roll or []}
    net = [_err_pct(sampled_net[tuple(r[:R_MODE])], float(r[R_CYCLES]))
           for r in exact_roll or []]
    if len(point) != len(sampled_rows) or not point or not net:
        raise ValueError("exact and sampled reports do not cover the same points")
    return max(point), max(net)


def geomean_speedup(text, algorithm):
    """Geometric mean over rollup groups of rowwise cycles / `algorithm`
    cycles, pairing groups that differ only in the algorithm."""
    _, rollup = parse_report(text)
    by_key = {}
    for r in rollup or []:
        by_key[(r[0], r[1], r[3], r[4], r[5], r[6], r[R_ALG])] = float(r[R_CYCLES])
    ratios = [cycles / by_key[k[:-1] + (algorithm,)]
              for k, cycles in by_key.items()
              if k[-1] == BASELINE and k[:-1] + (algorithm,) in by_key]
    if not ratios:
        raise ValueError("no rollup pairs %s against %s" % (BASELINE, algorithm))
    return math.exp(sum(math.log(x) for x in ratios) / len(ratios))


def percentile(values, p):
    """Nearest-rank percentile (p in (0, 100])."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1]


def tail_percentile(n, candidates=(99.9, 99, 95, 90, 75, 50)):
    """Highest candidate percentile with at least ten of n samples beyond
    its nearest rank, or None."""
    for p in candidates:
        if n - max(1, math.ceil(p / 100.0 * n)) >= 10:
            return p
    return None


def self_times(spans):
    """Per span: its duration (s) minus the durations of its children."""
    own = [(s["t1_ns"] - s["t0_ns"]) / 1e9 for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            own[int(s["parent"])] -= (s["t1_ns"] - s["t0_ns"]) / 1e9
    return own


def layer_metrics(spans, untraced_wall_s):
    """Per-layer metrics of a traced run (see README.md for definitions).
    `untraced_wall_s` is the wall clock of the same sweep with tracing off."""
    own = self_times(spans)
    by_name = {}
    for s, t in zip(spans, own):
        by_name.setdefault(s["name"], []).append((s, t))

    def total(name):
        return sum(t for _, t in by_name.get(name, []))

    def attr(name, key):
        return sum(s["attrs"][key] for s, _ in by_name.get(name, []))

    expand = by_name["sweep.expand"][0][0]["attrs"]
    replay = by_name["store.replay"][0][0]["attrs"]
    setup_s, emit_s = total("setup"), total("emit")
    # run_exact prepares its own copy of the program; the emit span timed
    # that same work, so it is taken out of the timing span.
    timing_s = total("timing") - emit_s
    fsim_s = total("fsim")
    work_s = setup_s + emit_s + timing_s
    per_point = {}
    for name in ("setup", "timing"):
        for s, t in by_name[name]:
            per_point[s["id"]] = per_point.get(s["id"], 0.0) + t * 1e3
    points_ms = list(per_point.values())
    insts = attr("timing", "insts")
    cycles = attr("timing", "cycles")
    dram = attr("timing", "dram_lines")
    traced_equiv_s = (total("sweep.expand") + setup_s + total("timing")
                      + total("store.put") + total("report"))
    return {
        "sweep.points": expand["points"],
        "sweep.unique_share": expand["unique"] / expand["points"],
        "sweep.expand_s": total("sweep.expand"),
        "setup.calls": len(by_name["setup"]),
        "setup.distinct_share":
            len({s["attrs"]["problem"] for s, _ in by_name["setup"]}) / len(by_name["setup"]),
        "setup.s": setup_s,
        "setup.share": setup_s / work_s,
        "emit.s": emit_s,
        "emit.static_insts": attr("emit", "static_insts"),
        "emit.share": emit_s / work_s,
        "fsim.s": fsim_s,
        "fsim.insts": attr("fsim", "insts"),
        "fsim.mips": attr("fsim", "insts") / fsim_s / 1e6,
        "fsim.share": fsim_s / timing_s,
        "timing.s": timing_s,
        "timing.share": timing_s / work_s,
        "point.p50_ms": percentile(points_ms, 50),
        "point.p90_ms": percentile(points_ms, 90),
        "point.samples": len(points_ms),
        "timing.insts": insts,
        "timing.cycles": cycles,
        "timing.ipc": insts / cycles,
        "timing.v2s_moves": attr("timing", "v2s_moves"),
        "timing.dispatch_stall_cycles": attr("timing", "dispatch_stall_cycles"),
        "timing.mispredicts": attr("timing", "mispredicts"),
        "mem.data_accesses": attr("timing", "data_accesses"),
        "mem.dram_lines": dram,
        "mem.ifetch_lines": attr("timing", "ifetch_lines"),
        "mem.dram_lines_per_kinst": dram / (insts / 1e3),
        "store.records": replay["records"],
        "store.bytes": replay["bytes"],
        "store.put_s": total("store.put"),
        "store.replay_s": total("store.replay"),
        "report.rows": by_name["report"][0][0]["attrs"]["rows"],
        "report.s": total("report"),
        "trace.overhead_pct": (traced_equiv_s - untraced_wall_s) / untraced_wall_s * 100.0,
    }, points_ms
