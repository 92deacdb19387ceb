#!/usr/bin/env python3
"""End-to-end check of the checkpoint import + network-rollup pipeline.

Stdlib-only driver shared by ctest (test_model_import_e2e) and the
model-import steps of CI's cli-checks job:

  1. generates a synthetic exactly-2:4-pruned checkpoint
     (make_synthetic_checkpoint.py) and captures its ground-truth
     per-layer density/conformity,
  2. runs `imac_run import-model --json` and compares every measured
     per-layer sparsity against the ground truth (exact equality at the
     JSON wire precision of %.10g: both sides compute nnz/total in double
     from identical integers),
  3. sweeps the imported model with the checked-in golden spec and
     byte-compares the CSV + rollup section against the checked-in golden
     (timing is data-independent, so the golden is stable across hosts),
  4. re-renders the rollup via `report --rollup` as a smoke test that
     rollup-bearing CSVs stay parseable.

Usage: model_import_check.py IMAC_RUN_BINARY SOURCE_DIR [WORK_DIR]
"""

import json
import os
import subprocess
import sys
import tempfile


def run(cmd, **kw):
    res = subprocess.run(cmd, capture_output=True, text=True, **kw)
    if res.returncode != 0:
        sys.exit(
            "FAIL: %s exited %d\nstdout:\n%s\nstderr:\n%s"
            % (" ".join(map(str, cmd)), res.returncode, res.stdout, res.stderr)
        )
    return res.stdout


def main():
    if len(sys.argv) not in (3, 4):
        sys.exit("usage: model_import_check.py IMAC_RUN_BINARY SOURCE_DIR [WORK_DIR]")
    imac_run = os.path.abspath(sys.argv[1])
    source = os.path.abspath(sys.argv[2])
    work = (
        os.path.abspath(sys.argv[3])
        if len(sys.argv) == 4
        else tempfile.mkdtemp(prefix="model_import_check.")
    )
    os.makedirs(work, exist_ok=True)
    ckpt = os.path.join(work, "ckpt")
    generator = os.path.join(source, "tools", "make_synthetic_checkpoint.py")
    spec = os.path.join(source, "tests", "golden", "model_import_sweep.json")
    golden = os.path.join(source, "tests", "golden", "model_import_rollup.csv")

    # 1. Generate; stdout is the ground truth.
    truth = json.loads(run([sys.executable, generator, ckpt]))

    # 2. Measured sparsity must equal the generator's ground truth exactly.
    imported = json.loads(run([imac_run, "import-model", ckpt, "--json"]))
    measured = {layer["name"]: layer for layer in imported["layer_records"]}
    for expect in truth["layers"]:
        got = measured[expect["name"]]
        for key in ("density", "nm_conformity"):
            # The C++ side serializes doubles at %.10g, so compare the
            # ground truth through the same wire precision.
            if got[key] != float("%.10g" % expect[key]):
                sys.exit(
                    "FAIL: layer %s %s: measured %r != ground truth %r"
                    % (expect["name"], key, got[key], expect[key])
                )
        if not got["measured"]:
            sys.exit("FAIL: layer %s not flagged as measured" % expect["name"])
    print(
        "import-model: %d layers match generator ground truth exactly"
        % len(truth["layers"])
    )

    # 3. Sweep + rollup must be byte-identical to the checked-in golden.
    out_csv = os.path.join(work, "rollup.csv")
    run(
        [
            imac_run,
            "sweep",
            "--import",
            ckpt,
            "--spec",
            spec,
            "--rollup",
            "--out",
            out_csv,
        ]
    )
    with open(out_csv, "rb") as f:
        produced = f.read()
    with open(golden, "rb") as f:
        expected = f.read()
    if produced != expected:
        sys.exit(
            "FAIL: rollup CSV differs from golden %s\nproduced:\n%s"
            % (golden, produced.decode())
        )
    print("sweep --rollup: byte-identical to %s" % os.path.basename(golden))

    # 4. The rollup-bearing CSV must stay consumable by the report reader.
    table = run([imac_run, "report", "--rollup", out_csv])
    if "network rollup" not in table or "synth24" not in table:
        sys.exit("FAIL: report --rollup did not render the rollup table:\n" + table)
    print("report --rollup: rollup-bearing CSV re-parses cleanly")
    print("OK")


if __name__ == "__main__":
    main()
