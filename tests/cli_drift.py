"""How far the default CLI outputs of one source tree drift from another's.

    python tests/cli_drift.py OLD_SRC NEW_SRC [--cells N]

OLD_SRC and NEW_SRC are `src/` directories, for example the one of a base
commit unpacked with `git archive BASE src | tar -x -C base` and this
checkout's.  The script runs the default `simulate`, `sweep-cutoff`,
`sweep-population`, `ift`, `nonmarkov` and `rates` commands under each of
them, every command in a fresh interpreter whose PYTHONPATH starts with that
directory.  `simulate` prints its summary block; it is compared as the file
`summary.csv`, one `key,value` row per line.

Per output file it prints how many cells differ at the 9 significant digits
the CLI writes, the largest relative change among them and up to N of the
changed cells (default 20), and it lists the `#` header lines that changed
separately.  It only reports: the exit status is 0 whatever moved, and 1
only when a command cannot be run.
"""
from __future__ import annotations

import argparse
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field

COMMANDS = ("simulate", "sweep-cutoff", "sweep-population", "ift",
            "nonmarkov", "rates")


@dataclass
class Drift:
    """Cell-by-cell comparison of one output file."""

    cells: int = 0
    changed: list = field(default_factory=list)   # (row, col, old, new)
    max_rel: float = 0.0
    header_removed: list = field(default_factory=list)
    header_added: list = field(default_factory=list)


def _split(lines: list[str]) -> tuple[list[str], list[list[str]]]:
    header = [ln for ln in lines if ln.startswith("#")]
    rows = [ln.split(",") for ln in lines if ln and not ln.startswith("#")]
    return header, rows


def _rel_change(old: str, new: str) -> float:
    try:
        a, b = float(old), float(new)
    except ValueError:
        return math.inf          # a text cell that changed
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if math.isfinite(scale) else math.inf


def compare(old_lines: list[str], new_lines: list[str]) -> Drift:
    """Compare two CSV texts, given as lists of lines, cell by cell; a
    row or cell that only one side has counts as changed."""
    old_header, old_rows = _split(old_lines)
    new_header, new_rows = _split(new_lines)
    drift = Drift(
        header_removed=[ln for ln in old_header if ln not in new_header],
        header_added=[ln for ln in new_header if ln not in old_header])
    for r in range(max(len(old_rows), len(new_rows))):
        old_row = old_rows[r] if r < len(old_rows) else []
        new_row = new_rows[r] if r < len(new_rows) else []
        for c in range(max(len(old_row), len(new_row))):
            old = old_row[c] if c < len(old_row) else ""
            new = new_row[c] if c < len(new_row) else ""
            drift.cells += 1
            if old != new:
                drift.changed.append((r, c, old, new))
                drift.max_rel = max(drift.max_rel, _rel_change(old, new))
    return drift


def run_defaults(src: str, outdir: str) -> dict[str, str]:
    """Run every default command under `src`; output file name -> path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    files = {}
    for command in COMMANDS:
        out = os.path.join(outdir, command)
        os.makedirs(out)
        proc = subprocess.run(
            [sys.executable, "-m", "qotto.cli", command, "--out", out],
            env=env, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"{command} under {src} exited "
                               f"{proc.returncode}: {proc.stderr.strip()}")
        if command == "simulate":
            with open(os.path.join(out, "summary.csv"), "w",
                      encoding="utf-8") as fh:
                fh.write(proc.stdout.replace(" = ", ","))
        for name in sorted(os.listdir(out)):
            files[name] = os.path.join(out, name)
    return files


def _lines(path: str | None) -> list[str]:
    if path is None:
        return []
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--cells", type=int, default=20,
                        help="changed cells listed per file")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        try:
            old = run_defaults(args.old_src, os.path.join(tmp, "old"))
            new = run_defaults(args.new_src, os.path.join(tmp, "new"))
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 1
        print(f"{'file':<24}{'cells':>8}{'changed':>9}  largest rel change")
        report = []
        for name in sorted(set(old) | set(new)):
            drift = compare(_lines(old.get(name)), _lines(new.get(name)))
            print(f"{name:<24}{drift.cells:>8}{len(drift.changed):>9}  "
                  f"{drift.max_rel:.3g}")
            report.append((name, drift))
    for name, drift in report:
        for r, c, a, b in drift.changed[:args.cells]:
            print(f"{name} row {r} column {c}: {a} -> {b}")
        if len(drift.changed) > args.cells:
            print(f"{name}: {len(drift.changed) - args.cells} more "
                  f"changed cells")
        for line in drift.header_removed:
            print(f"{name} header - {line}")
        for line in drift.header_added:
            print(f"{name} header + {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
