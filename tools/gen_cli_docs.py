#!/usr/bin/env python3
"""Generates docs/cli.md from imac_run's own --help output (stdlib only).

The CLI help text in tools/imac_run.cpp (the SubcommandDoc table) is the
single source of truth for flag documentation; this script captures it
into a reviewable markdown page. Run it after changing any --help text:

    python3 tools/gen_cli_docs.py --run build/tools/imac_run --out docs/cli.md

With --check, the file is regenerated in memory and compared to the
checked-in copy instead; a mismatch exits 1 with a diff hint. ctest's
test_cli_docs and the docs-freshness steps of CI's cli-checks job both run
the check, so a help edit that forgets to regenerate docs/cli.md fails fast.
"""

import argparse
import difflib
import re
import subprocess
import sys

HEADER = """\
<!-- GENERATED FILE - DO NOT EDIT BY HAND.
     Regenerate with:
       python3 tools/gen_cli_docs.py --run <imac_run> --out docs/cli.md
     The source of truth is the --help text in tools/imac_run.cpp; ctest
     (test_cli_docs) and CI (docs-freshness) fail when this file is
     stale. -->

# Command-line reference

Captured verbatim from `imac_run <subcommand> --help`. See
[architecture.md](architecture.md) for how the pieces fit together and
[formats.md](formats.md) for the on-disk formats these commands produce.
"""


def capture(argv):
    """Runs a --help invocation and returns its stdout (must exit 0)."""
    proc = subprocess.run(argv, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"gen_cli_docs: {' '.join(argv)} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return proc.stdout


def subcommand_names(run_help: str):
    """Parses the summary list of `imac_run --help` ("  name  brief" lines
    between "subcommands:" and the next blank line)."""
    names = []
    in_list = False
    for line in run_help.splitlines():
        if line.strip() == "subcommands:":
            in_list = True
            continue
        if in_list:
            m = re.match(r"  (\S+)\s{2,}\S", line)
            if m is None:
                break
            names.append(m.group(1))
    if not names:
        raise SystemExit("gen_cli_docs: no subcommands found in imac_run --help")
    return names


def render(run_bin: str) -> str:
    run_help = capture([run_bin, "--help"])
    out = [HEADER]

    out.append("\n## imac_run\n")
    out.append("```text\n")
    # The summary block only — each subcommand's full help follows.
    summary_end = run_help.index("\n\n", run_help.index("subcommands:"))
    out.append(run_help[: summary_end + 1])
    out.append("```\n")
    for name in subcommand_names(run_help):
        out.append(f"\n### imac_run {name}\n\n```text\n")
        help_text = capture([run_bin, name, "--help"])
        # Drop the generic "usage:" preamble; the section heading names it.
        body = help_text.split("\n\n", 1)[1] if "\n\n" in help_text else help_text
        out.append(body)
        out.append("```\n")
    return "".join(out)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--run", required=True, help="path to the imac_run binary")
    ap.add_argument("--out", required=True, help="path to docs/cli.md")
    ap.add_argument("--check", action="store_true",
                    help="compare instead of write; exit 1 when stale")
    args = ap.parse_args()

    rendered = render(args.run)
    if args.check:
        try:
            with open(args.out, encoding="utf-8") as f:
                on_disk = f.read()
        except FileNotFoundError:
            on_disk = ""
        if on_disk != rendered:
            diff = "".join(difflib.unified_diff(
                on_disk.splitlines(keepends=True),
                rendered.splitlines(keepends=True),
                fromfile=f"{args.out} (checked in)",
                tofile=f"{args.out} (regenerated)"))
            sys.stderr.write(diff)
            sys.stderr.write(
                f"\ngen_cli_docs: {args.out} is stale; regenerate it:\n"
                f"  python3 tools/gen_cli_docs.py --run <imac_run> --out {args.out}\n")
            return 1
        print(f"gen_cli_docs: {args.out} is up to date")
        return 0

    with open(args.out, "w", encoding="utf-8") as f:
        f.write(rendered)
    print(f"gen_cli_docs: wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
