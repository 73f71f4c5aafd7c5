"""Command-line front end: config ingestion, scenario dispatch, output.

Configs are YAML mappings with a fixed schema; unknown keys are rejected
with a close-match suggestion so typos fail loudly before any numerics
run.  Data files are deterministic functions of (config, seed): every
float is written as 17-significant-digit scientific notation and the
wall-clock timestamp lives only in the metadata file.

Exit codes: 0 all verdicts passed, 1 at least one verdict failed,
2 usage or configuration error, 3 numerical failure (the failure time
is recorded in the metadata file).
"""

from __future__ import annotations

import argparse
import difflib
import inspect
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy
import yaml

from .errors import ConfigError, IntegrationError
from .profiles import TimeProfile, profile_from_dict, profile_to_dict
from .scenarios import SCENARIOS, ScenarioReport, run_scenarios

__all__ = ["RunConfig", "parse_config", "main"]

OUTPUT_DIR_ENV = "OSCBATH_OUT"

_TOP_KEYS = ("scenario", "seed", "out", "system", "model", "grid", "params",
             "tolerances")
_SECTIONS = ("system", "model", "grid", "params", "tolerances")

# config key -> scenario keyword, per scenario and section
_SCHEMA: dict[str, dict[str, dict[str, str]]] = {
    "short-time-convergence": {
        "system": {
            "n_modes": "n_modes",
            "coupling_scale": "coupling_scale",
            "omega_max": "omega_max",
        },
        "model": {},
        "grid": {"steps": "grid_points"},
        "params": {"ladder": "ladder"},
        "tolerances": {
            "closed_form_tol": "closed_form_tol",
            "order_floor": "order_floor",
            "diag_gap_limit": "diag_gap_limit",
            "control_floor": "control_floor",
        },
    },
    "rwa-check": {
        "system": {
            "omega0": "omega0",
            "temperature": "temperature",
            "n_modes": "n_modes",
            "omega_max": "omega_max",
        },
        "model": {},
        "grid": {},
        "params": {
            "rho_values": "rho_values",
            "epsilon": "epsilon",
            "modulation_depth": "modulation_depth",
            "nu_bridge": "nu_bridge",
            "window": "window",
        },
        "tolerances": {
            "structure_tol": "structure_tol",
            "cross_limit": "cross_limit",
            "ratio_limit": "ratio_limit",
            "psd_tol": "psd_tol",
        },
    },
    "mir-pulse-train": {
        "system": {"omega0": "omega0"},
        "model": {
            "y": "y_values",
            "G": "noise_scale",
            "gamma": "gamma_profile",
            "omega": "omega_profile",
        },
        "grid": {"dt": "dt"},
        "params": {
            "period": "period",
            "count": "count",
            "onset": "onset",
            "depth": "depth",
            "gamma_max": "gamma_max",
            "decay": "decay",
            "rise": "rise",
        },
        "tolerances": {
            "asym_floor": "asym_floor",
            "constancy_tol": "constancy_tol",
        },
    },
    "closure": {
        "system": {"n_modes": "n_modes", "temperature": "temperature"},
        "model": {},
        "grid": {"t_max": "t_max", "steps": "fine_points"},
        "params": {"coupling_scales": "coupling_scales"},
        "tolerances": {
            "weak_tol": "weak_tol",
            "zero_tol": "zero_tol",
            "ratio_band": "ratio_band",
        },
    },
}

_PROFILE_KEYS = {("model", "gamma"), ("model", "omega")}


@dataclass(frozen=True)
class RunConfig:
    """Validated run request: which scenarios, with which overrides."""

    scenarios: tuple[str, ...]
    seed: int | None = None
    out: str | None = None
    system: dict = field(default_factory=dict)
    model: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)


def _reject_unknown(key: str, candidates: tuple[str, ...], where: str) -> None:
    close = difflib.get_close_matches(key, candidates, n=1, cutoff=0.6)
    hint = f"; did you mean {close[0]!r}?" if close else ""
    raise ConfigError(f"unknown key {key!r} in {where}{hint}", field=key)


def _require_number(value, name: str, *, positive=False, non_negative=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}", field=name)
    if positive and not value > 0:
        raise ConfigError(f"{name} must be > 0, got {value}", field=name)
    if non_negative and value < 0:
        raise ConfigError(f"{name} must be >= 0, got {value}", field=name)
    return value


def _require_finite(value, name: str) -> None:
    # Numbers anywhere in a section value, lists included; profile mappings
    # are checked field by field by profile_from_dict.
    if isinstance(value, list):
        for item in value:
            _require_finite(item, name)
    elif isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}", field=name)


def _validate_section(name: str, raw, scenarios: tuple[str, ...]) -> dict:
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError(f"section {name!r} must be a mapping", field=name)
    allowed: set[str] = set()
    for sc in scenarios:
        allowed |= set(_SCHEMA[sc][name])
    for key, value in raw.items():
        if key not in allowed:
            _reject_unknown(str(key), tuple(sorted(allowed)), f"section {name!r}")
        _require_finite(value, key)
        if key == "omega0":
            _require_number(value, "omega0", positive=True)
        elif key == "temperature":
            _require_number(value, "temperature", non_negative=True)
        elif key == "n_modes":
            if not isinstance(value, int) or value < 1:
                raise ConfigError(
                    f"n_modes must be a positive integer, got {value!r}",
                    field="n_modes",
                )
        elif key == "steps":
            if not isinstance(value, int) or value < 3:
                raise ConfigError(
                    f"steps must be an integer >= 3, got {value!r}",
                    field="steps",
                )
        elif key == "count":
            if not isinstance(value, int) or value < 1:
                raise ConfigError(
                    f"count must be a positive integer, got {value!r}",
                    field="count",
                )
        elif key in ("t_max", "dt", "coupling_scale", "omega_max"):
            _require_number(value, key, positive=True)
        elif (name, key) in _PROFILE_KEYS:
            try:
                profile_from_dict(value)
            except (ValueError, TypeError) as exc:
                raise ConfigError(
                    f"invalid profile for {key!r}: {exc}", field=key
                ) from exc
    return dict(raw)


def parse_config(path: str | os.PathLike) -> RunConfig:
    """Load and validate a YAML run configuration."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}", field="path")
    try:
        raw = yaml.safe_load(p.read_text())
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            raise ConfigError(
                f"parse error at line {mark.line + 1}, column {mark.column + 1}:"
                f" {getattr(exc, 'problem', exc)}"
            ) from exc
        raise ConfigError(f"parse error: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping at the top level")

    for key in raw:
        if key not in _TOP_KEYS:
            _reject_unknown(str(key), _TOP_KEYS, "config")

    if "scenario" not in raw:
        raise ConfigError("config must name a scenario", field="scenario")
    names = raw["scenario"]
    if isinstance(names, str):
        names = [names]
    if not isinstance(names, list) or not names:
        raise ConfigError(
            "scenario must be a name or a non-empty list of names",
            field="scenario",
        )
    for n in names:
        if not isinstance(n, str) or n not in SCENARIOS:
            _reject_unknown(str(n), tuple(sorted(SCENARIOS)), "scenario")
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise ConfigError(
            f"scenario names must be distinct; repeated: {', '.join(repeated)}",
            field="scenario",
        )
    scenarios = tuple(names)

    seed = raw.get("seed")
    if seed is not None:
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise ConfigError(
                f"seed must be a non-negative integer, got {seed!r}",
                field="seed",
            )

    out = raw.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"out must be a path string, got {out!r}", field="out")

    sections = {
        name: _validate_section(name, raw.get(name), scenarios)
        for name in _SECTIONS
    }
    return RunConfig(scenarios=scenarios, seed=seed, out=out, **sections)


def _to_complex(value, name: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, list) and len(value) == 2 and all(
        isinstance(v, (int, float)) for v in value
    ):
        return complex(value[0], value[1])
    raise ConfigError(
        f"{name} entries must be numbers or [re, im] pairs, got {value!r}",
        field=name,
    )


def scenario_kwargs(cfg: RunConfig, name: str, seed: int | None) -> dict:
    """Translate validated config sections into scenario keywords."""
    kwargs: dict = {}
    schema = _SCHEMA[name]
    for section in _SECTIONS:
        mapping = schema[section]
        for key, value in getattr(cfg, section).items():
            if key not in mapping:
                continue
            if (section, key) in _PROFILE_KEYS:
                value = profile_from_dict(value)
            kwargs[mapping[key]] = value
    if name == "rwa-check" and "rho_values" in kwargs:
        vals = kwargs["rho_values"]
        if not isinstance(vals, list) or not vals:
            raise ConfigError(
                "rho_values must be a non-empty list", field="rho_values"
            )
        kwargs["rho_values"] = tuple(
            _to_complex(v, "rho_values") for v in vals
        )
    if name == "mir-pulse-train" and "y_values" in kwargs:
        vals = kwargs["y_values"]
        if not isinstance(vals, list):
            raise ConfigError("y must be a list of splits", field="y")
        kwargs["y_values"] = tuple(float(v) for v in vals)
    if seed is not None:
        kwargs["seed"] = seed
    return kwargs


def _echo_value(value):
    if isinstance(value, TimeProfile):
        return profile_to_dict(value)
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, tuple):
        return [_echo_value(v) for v in value]
    if isinstance(value, list):
        return [_echo_value(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


def config_echo(name: str, kwargs: dict) -> dict:
    """Scenario parameters with defaults filled in, JSON-ready."""
    sig = inspect.signature(SCENARIOS[name])
    echo = {}
    for pname, param in sig.parameters.items():
        if pname in kwargs:
            echo[pname] = _echo_value(kwargs[pname])
        elif param.default is not inspect.Parameter.empty:
            echo[pname] = _echo_value(param.default)
    return echo


# ---------------------------------------------------------------------------
# output writers


def _fmt(x: float) -> str:
    return f"{float(x):.16e}"


def _write_csv(path: Path, columns: dict[str, list[float]]) -> None:
    names = list(columns)
    rows = len(columns[names[0]]) if names else 0
    lines = [",".join(names)]
    for i in range(rows):
        lines.append(",".join(_fmt(columns[n][i]) for n in names))
    path.write_text("\n".join(lines) + "\n")


def _write_jsonl(path: Path, columns: dict[str, list[float]]) -> None:
    names = list(columns)
    rows = len(columns[names[0]]) if names else 0
    lines = []
    for i in range(rows):
        lines.append(json.dumps(
            {n: float(columns[n][i]) for n in names}, sort_keys=True
        ))
    path.write_text("\n".join(lines) + "\n")


def write_report_files(
    report: ScenarioReport, out_dir: Path, fmt: str
) -> list[Path]:
    """Write one data file per table plus the verdict series."""
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    writer = _write_csv if fmt == "csv" else _write_jsonl
    ext = "csv" if fmt == "csv" else "jsonl"
    for tname in sorted(report.tables):
        path = out_dir / f"{report.scenario}__{tname}.{ext}"
        writer(path, report.tables[tname])
        written.append(path)
    vpath = out_dir / f"{report.scenario}__verdicts.{ext}"
    if fmt == "csv":
        lines = ["name,passed,value,threshold,comparator"]
        for v in report.verdicts:
            lines.append(
                f"{v.name},{int(v.passed)},{_fmt(v.value)},"
                f"{_fmt(v.threshold)},{v.comparator}"
            )
        vpath.write_text("\n".join(lines) + "\n")
    else:
        lines = [
            json.dumps(
                {
                    "name": v.name,
                    "passed": v.passed,
                    "value": v.value,
                    "threshold": v.threshold,
                    "comparator": v.comparator,
                },
                sort_keys=True,
            )
            for v in report.verdicts
        ]
        vpath.write_text("\n".join(lines) + "\n")
    written.append(vpath)
    return written


def _versions() -> dict[str, str]:
    from . import __version__

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "oscbath": __version__,
    }


def write_metadata(
    out_dir: Path,
    entries: list[dict],
    seed: int | None,
    fmt: str,
    wall_time: float,
    error: dict | None = None,
) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = {
        "seed": seed,
        "format": fmt,
        "scenarios": entries,
        "versions": _versions(),
        "wall_time": wall_time,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    if error is not None:
        doc["error"] = error
    path = out_dir / "metadata.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscbath",
        description="Run oscillator-bath scenarios from a config file.",
    )
    parser.add_argument(
        "--list-scenarios", action="store_true",
        help="print available scenario names and exit",
    )
    sub = parser.add_subparsers(dest="command")
    run = sub.add_parser("run", help="run the scenarios named in a config")
    run.add_argument("config", help="path to a YAML run configuration")
    run.add_argument("--out", help="output directory (overrides config)")
    run.add_argument("--seed", type=int, help="seed override (u64)")
    run.add_argument(
        "--format", choices=("csv", "jsonl"), default="csv",
        help="data file format (default csv)",
    )
    run.add_argument(
        "--check", action="store_true",
        help="validate the config and exit without running",
    )
    run.add_argument(
        "--threads", type=int,
        help="cap on scenario fan-out workers (default sequential)",
    )
    return parser


def _resolve_out(args_out: str | None, cfg_out: str | None) -> Path:
    if args_out:
        return Path(args_out)
    if cfg_out:
        return Path(cfg_out)
    env = os.environ.get(OUTPUT_DIR_ENV)
    if env:
        return Path(env)
    return Path("oscbath-runs")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    if args.list_scenarios:
        for name in sorted(SCENARIOS):
            print(name)
        return 0
    if args.command != "run":
        parser.print_usage(sys.stderr)
        return 2

    try:
        cfg = parse_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None and args.seed < 0:
        print("config error: seed must be non-negative", file=sys.stderr)
        return 2
    if args.threads is not None and args.threads < 1:
        print("config error: threads must be >= 1", file=sys.stderr)
        return 2

    seed = args.seed if args.seed is not None else cfg.seed
    try:
        requests = [
            (name, scenario_kwargs(cfg, name, seed)) for name in cfg.scenarios
        ]
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.check:
        print(f"config ok: scenarios {', '.join(cfg.scenarios)}")
        return 0

    out_dir = _resolve_out(args.out, cfg.out)
    t0 = time.perf_counter()
    try:
        reports = run_scenarios(requests, threads=args.threads)
    except (IntegrationError, np.linalg.LinAlgError) as exc:
        # LinAlgError subclasses ValueError, so it must be caught before
        # the config-error branch below: a singular solve is numerical.
        wall = time.perf_counter() - t0
        t = getattr(exc, "t", None)
        write_metadata(
            out_dir, [], seed, args.format, wall,
            error={"type": "numerical", "message": str(exc), "failure_time": t},
        )
        print(f"numerical failure at t={t}: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    wall = time.perf_counter() - t0

    entries = []
    kwargs_by_name = dict(requests)
    for report in reports:
        write_report_files(report, out_dir, args.format)
        entries.append(
            {
                "scenario": report.scenario,
                "digest": report.digest,
                "seed": report.seed,
                "passed": report.passed,
                "wall_time": report.wall_time,
                "config_echo": config_echo(
                    report.scenario, kwargs_by_name[report.scenario]
                ),
                "details": _echo_value_dict(report.metadata),
            }
        )
    write_metadata(out_dir, entries, seed, args.format, wall)

    failed = [
        f"{r.scenario}:{v.name}"
        for r in reports for v in r.verdicts if not v.passed
    ]
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.scenario}: {status} ({len(r.verdicts)} verdicts,"
              f" {r.wall_time:.2f}s)")
    if failed:
        print("failed verdicts: " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


def _echo_value_dict(obj):
    if isinstance(obj, dict):
        return {k: _echo_value_dict(v) for k, v in obj.items()}
    return _echo_value(obj)


if __name__ == "__main__":
    sys.exit(main())
