"""oscbath benchmark: one workload, one closed-loop client, one fresh process.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: mir-train, bath-suite, wide-bath (see README.md).
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the environment.  Raw samples and
spans are written under ``perfbench/out/``.

The iterations run in a child process (``worker.py``), so ``setup_s`` can
be timed from process start.  Set-up is repeated in ``SETUP_PROBES`` extra
short-lived processes and ``setup_s`` is the median of all of them.

Times are reported at the host's nominal speed (``hostspeed.py``): each
iteration's wall and CPU time is multiplied by the mean host speed measured
just before and just after it, and each set-up time by the speed measured
right after it.  The raw medians are in the line before the result and in
the result file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("mir-train", "bath-suite", "wide-bath")
SETUP_PROBES = 3
# Every run, build included, must end within this many seconds.
DEADLINE_S = 170.0

PER_LAYER_UNITS = {
    "profiles.calls": "count",
    "profiles.points": "count",
    "profiles.inner_calls": "count",
    "profiles.self_s": "s",
    "profiles.ns_per_point": "ns",
    "system.calls": "count",
    "system.self_s": "s",
    "propagate.calls": "count",
    "propagate.steps": "count",
    "propagate.self_s": "s",
    "propagate.us_per_step": "us",
    "propagate.gflop": "GFLOP",
    "propagate.gflop_per_s": "GFLOP/s",
    "propagate.max_defect": "1",
    "propagate.traj_mb": "MB",
    "reduced.calls": "count",
    "reduced.points": "count",
    "reduced.visits_per_point": "ratio",
    "reduced.skipped": "count",
    "reduced.self_s": "s",
    "reduced.us_per_point": "us",
    "perturb.calls": "count",
    "perturb.noise_calls": "count",
    "perturb.self_s": "s",
    "langevin.calls": "count",
    "langevin.steps": "count",
    "langevin.self_s": "s",
    "langevin.us_per_step": "us",
    "langevin.max_wronskian_drift": "1",
    "scenarios.self_s": "s",
    "scenarios.table_max_rel_dev": "1",
    "cli.parse_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "bytes",
    "cli.files_written": "count",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    pass


def _spawn(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run the worker; return its spawn time and its JSON result."""
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker timed out: {' '.join(args)}")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}: {' '.join(args)}")
    return spawned, json.loads(lines[-1])


def _value(x: float, unit: str) -> dict:
    return {"value": x, "unit": unit}


def _at_speed(samples: list[dict], key: str) -> float:
    """Median of a time over iterations, each scaled by its host speed."""
    return statistics.median(s[key] * s["speed"] for s in samples)


def raw_medians(result: dict, setups: list[tuple[float, float]]) -> dict:
    samples = result["samples"]
    return {
        "setup_s": statistics.median(t for t, _ in setups),
        "wall_s": statistics.median(s["wall_s"] for s in samples),
        "cpu_s": statistics.median(s["cpu_s"] for s in samples),
        "speed": statistics.median(s["speed"] for s in samples),
    }


def end_to_end(result: dict, setups: list[tuple[float, float]]) -> dict:
    samples = result["samples"]
    return {
        "setup_s": _value(statistics.median(t * v for t, v in setups), "s"),
        "wall_s": _value(_at_speed(samples, "wall_s"), "s"),
        "cpu_s": _value(_at_speed(samples, "cpu_s"), "s"),
        "peak_rss_mb": _value(result["peak_rss_mb"], "MB"),
        "pass_ratio": _value(
            sum(s["ok"] for s in samples) / len(samples), "ratio"),
    }


def per_layer(result: dict) -> dict:
    samples = result["samples"]
    traced = [s for s in samples if s["traced"]]
    plain = [s for s in samples if not s["traced"] and s["seed"] == traced[0]["seed"]]
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        if name in traced[0]["layers"]:
            metrics[name] = _value(
                statistics.median(s["layers"][name] for s in traced), unit)
    deviations = result["table_deviations"]
    metrics["scenarios.table_max_rel_dev"] = _value(
        max(deviations.values(), default=0.0), "1")
    metrics["trace.overhead_s"] = _value(
        _at_speed(traced, "wall_s") - _at_speed(plain, "wall_s"), "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "oscbath" / "__init__.py").is_file():
        print(f"no oscbath sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                spawned, probe = _spawn([*common, "--setup-only"], deadline)
                setups.append((probe["ready"] - spawned, probe["setup_speed"]))
        spawned, result = _spawn(
            [*common, "--seconds", str(args.seconds),
             "--trace", str(args.trace)], deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append((result["ready"] - spawned, result["setup_speed"]))

    samples = result["samples"]
    failed = sum(not s["ok"] for s in samples)
    for problem in result["problems"]:
        print(f"{args.workload}: {problem}", file=sys.stderr)
    metrics = per_layer(result) if args.trace else end_to_end(result, setups)

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "setup_samples": [{"setup_s": t, "speed": v} for t, v in setups],
              "raw": raw_medians(result, setups), "metrics": metrics, **result}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({"environment": result["environment"],
                      "raw": record["raw"]}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
