"""Table report: the data files of the 14 CLI runs of two source trees.

The runs are the four default scenarios and the three perfbench workload
configs, each at its default seed and at ``--seed 1``; together they write
72 data files (every CSV; ``metadata.json`` holds wall times and is left
out).  Each tree runs from its own ``src/``, and both run the workload
configs of NEW.  For each data file the report prints ``same`` when the two
files are byte-identical.  Otherwise it prints the largest relative change
|new - old| / |old| of a numeric cell (inf where old is 0) and the largest
absolute change |new - old|, each with its column and row, or why the
cells cannot be compared.

Run from anywhere:

    python3 tools/table_report.py OLD NEW     # two repository roots

OLD may be a copy of an earlier commit, made with ``git archive``.  The
outputs go to a temporary directory.  The exit status is 1 when a run
exited non-zero, else 0.
"""

from __future__ import annotations

import argparse
import csv
import filecmp
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SCENARIOS = ("mir-pulse-train", "rwa-check", "short-time-convergence", "closure")
WORKLOADS = ("mir-train", "bath-suite", "wide-bath")
SEEDS = (None, 1)  # None: the scenario's own default seed


def runs(configs: Path) -> list[tuple[str, str]]:
    """(name, config text) of every run, before the seeds."""
    out = [(name, f"scenario: {name}\n") for name in SCENARIOS]
    out += [(name, (configs / f"{name}.yaml").read_text()) for name in WORKLOADS]
    return out


def run_tree(root: Path, configs: Path, out: Path) -> list[str]:
    """The 14 CLI runs of the tree at ``root`` into ``out/<run>/<seed>/``;
    returns a line for each run that did not exit 0."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    failed = []
    for name, text in runs(configs):
        for seed in SEEDS:
            where = out / name / ("default-seed" if seed is None else f"seed-{seed}")
            where.mkdir(parents=True)
            config = where.parent / f"{where.name}.yaml"
            config.write_text(text)
            cmd = [sys.executable, "-m", "oscbath.cli", "run", str(config),
                   "--out", str(where)]
            if seed is not None:
                cmd += ["--seed", str(seed)]
            done = subprocess.run(cmd, env=env, capture_output=True, text=True)
            if done.returncode:
                failed.append(f"{root}: {name} {where.name} exit {done.returncode}")
    return failed


def _cell(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _larger(new: float, held: float) -> bool:
    """Whether ``new`` replaces ``held``: nan outranks every number and,
    once held, stays."""
    return not math.isnan(held) and (math.isnan(new) or new > held)


def change(old: Path, new: Path) -> str:
    """``same`` for byte-identical files, else their largest changes."""
    if filecmp.cmp(old, new, shallow=False):
        return "same"
    with open(old, newline="") as f:
        a = list(csv.reader(f))
    with open(new, newline="") as f:
        b = list(csv.reader(f))
    if not a or not b or a[0] != b[0]:
        return "differs: header"
    if len(a) != len(b) or any(len(r) != len(s) for r, s in zip(a, b)):
        return "differs: shape"
    rel = abs_ = (0.0, "")
    for i, (r, s) in enumerate(zip(a[1:], b[1:]), start=1):
        for col, x, y in zip(a[0], r, s):
            if x == y:
                continue
            u, v = _cell(x), _cell(y)
            if u is None or v is None:
                return f"differs: text in {col!r}, row {i}"
            if u == v or (math.isnan(u) and math.isnan(v)):
                continue
            where = f"{col}, row {i}"
            d = abs(v - u)  # nan when one side is nan
            r_ = d if math.isnan(d) else d / abs(u) if u else math.inf
            if _larger(r_, rel[0]):
                rel = (r_, where)
            if _larger(d, abs_[0]):
                abs_ = (d, where)
    return (f"rel {rel[0]:.2e} ({rel[1]}), abs {abs_[0]:.2e} ({abs_[1]})"
            if abs_[1] else "differs: formatting only")


def compare(old: Path, new: Path) -> list[tuple[str, str]]:
    """(data file, change) for every CSV under either output tree."""
    files = sorted({p.relative_to(root) for root in (old, new)
                    for p in root.rglob("*.csv")})
    out = []
    for rel in files:
        a, b = old / rel, new / rel
        out.append((str(rel), change(a, b) if a.exists() and b.exists()
                    else "only in " + ("new" if b.exists() else "old")))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="repository root of the old tree")
    parser.add_argument("new", type=Path, help="repository root of the new tree")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        configs = args.new.resolve() / "perfbench" / "configs"
        failed = []
        for label in ("old", "new"):
            root = getattr(args, label).resolve()
            failed += run_tree(root, configs, base / label)
        rows = compare(base / "old", base / "new")
    width = max((len(name) for name, _ in rows), default=0)
    for name, what in rows:
        print(f"{name:{width}}  {what}")
    same = sum(what == "same" for _, what in rows)
    print(f"{len(rows)} data files: {same} identical, {len(rows) - same} not")
    for line in failed:
        print("non-zero exit:", line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
