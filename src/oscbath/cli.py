"""Command-line front end: config ingestion, scenario dispatch, output.

Configs are YAML mappings with a fixed schema; unknown keys are rejected
with a close-match suggestion so typos fail loudly before any numerics
run.  Data files are deterministic functions of (config, seed): every
float is written as 17-significant-digit scientific notation and the
wall-clock timestamp lives only in the metadata file.

Exit codes: 0 all verdicts passed, 1 at least one verdict failed,
2 usage or configuration error, 3 numerical failure (the failure time
is recorded in the metadata file, and the scenarios that completed
before it are written as usual).
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
from .profiles import profile_from_dict
from .scenarios import BAND_LO, SCENARIOS, ScenarioReport, _json_safe

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
# Integer keys and their smallest allowed value.
_INT_MIN = {"n_modes": 1, "steps": 3, "count": 1}
# Number keys that may be null: the scenario then derives the value.
_OPTIONAL_KEYS = {"period", "onset", "gamma_max", "rise"}
# Number keys with a lower bound, as (bound, inclusive).  The bath band of
# short-time-convergence and rwa-check starts at BAND_LO (times omega0).
_LOWER = {
    "omega0": (0.0, False), "temperature": (0.0, True), "t_max": (0.0, False),
    "dt": (0.0, False), "coupling_scale": (0.0, False), "epsilon": (0.0, False),
    "omega_max": (BAND_LO, False), "G": (1.0, True), "period": (0.0, False),
    "onset": (0.0, False), "gamma_max": (0.0, True), "decay": (0.0, False),
    "rise": (0.0, False),
}


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


def _require_number(value, name: str, lower: tuple[float, bool] | None = None):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}", field=name)
    if lower is not None:
        bound, inclusive = lower
        if not (value >= bound if inclusive else value > bound):
            op = ">=" if inclusive else ">"
            raise ConfigError(
                f"{name} must be {op} {bound:g}, got {value}", field=name
            )
    return value


def _require_seed(seed) -> None:
    # Philox keys are unsigned 64-bit integers; bool is no seed
    if type(seed) is not int or not 0 <= seed < 2**64:
        raise ConfigError(
            f"seed must be an integer in [0, 2**64), got {seed!r}",
            field="seed",
        )


def _require_list(value, name: str, size: int, exact: bool = False) -> list:
    """A list of numbers: ``size`` of them if ``exact``, else at least."""
    if not isinstance(value, list) or not (
        len(value) == size if exact else len(value) >= size
    ):
        want = size if exact else f"at least {size}"
        raise ConfigError(
            f"{name} must be a list of {want} numbers, got {value!r}",
            field=name,
        )
    for v in value:
        _require_number(v, name)
    return value


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


def _require_finite(value, name: str) -> None:
    # Numbers anywhere in a section value, lists included; profile mappings
    # are checked field by field by profile_from_dict.
    if isinstance(value, list):
        for item in value:
            _require_finite(item, name)
    elif isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}", field=name)
    elif isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ConfigError(f"{name} is beyond the float range", field=name)


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
        if value is None and key in _OPTIONAL_KEYS:
            continue
        if key in _INT_MIN:
            if not isinstance(value, int) or value < _INT_MIN[key]:
                raise ConfigError(
                    f"{key} must be an integer >= {_INT_MIN[key]},"
                    f" got {value!r}",
                    field=key,
                )
            if key == "steps" and "closure" in scenarios and value % 2 == 0:
                raise ConfigError(
                    f"steps must be odd for closure, got {value}", field=key
                )
        elif key in _LOWER:
            _require_number(value, key, _LOWER[key])
        elif (name, key) in _PROFILE_KEYS:
            try:
                profile_from_dict(value)
            except (ValueError, TypeError, OverflowError) as exc:
                raise ConfigError(
                    f"invalid profile for {key!r}: {exc}", field=key
                ) from exc
        elif key in ("ladder", "coupling_scales"):
            vals = _require_list(value, key, 2)
            if not all(a > b > 0 for a, b in zip(vals, vals[1:])):
                raise ConfigError(
                    f"{key} must be positive and descending, got {value}",
                    field=key,
                )
        elif key in ("window", "ratio_band"):
            lo, hi = _require_list(value, key, 2, exact=True)
            if key == "window" and not 0 < lo < hi:
                raise ConfigError(
                    f"window must satisfy 0 < start < end, got {value}",
                    field=key,
                )
        elif key == "y":
            if any(abs(v) > 1 for v in _require_list(value, key, 2)):
                raise ConfigError(
                    f"y entries must satisfy |y| <= 1, got {value}", field=key
                )
        elif key == "rho_values":
            if not isinstance(value, list) or not value or any(
                _to_complex(v, key) == 0 for v in value
            ):
                raise ConfigError(
                    f"rho_values must be a non-empty list of non-zero"
                    f" amplitudes, got {value!r}",
                    field=key,
                )
        else:
            _require_number(value, key)
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
        _require_seed(seed)

    out = raw.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"out must be a path string, got {out!r}", field="out")

    sections = {
        name: _validate_section(name, raw.get(name), scenarios)
        for name in _SECTIONS
    }
    return RunConfig(scenarios=scenarios, seed=seed, out=out, **sections)


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
    if "rho_values" in kwargs:
        kwargs["rho_values"] = tuple(
            _to_complex(v, "rho_values") for v in kwargs["rho_values"]
        )
    if "y_values" in kwargs:
        kwargs["y_values"] = tuple(map(float, kwargs["y_values"]))
    if seed is not None:
        kwargs["seed"] = seed
    return kwargs


def config_echo(name: str, kwargs: dict) -> dict:
    """Scenario parameters with defaults filled in."""
    sig = inspect.signature(SCENARIOS[name])
    return {
        pname: kwargs.get(pname, param.default)
        for pname, param in sig.parameters.items()
        if pname in kwargs or param.default is not inspect.Parameter.empty
    }


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
    path.write_text(
        json.dumps(doc, indent=2, sort_keys=True, default=_json_safe) + "\n"
    )
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
    seed = args.seed if args.seed is not None else cfg.seed
    try:
        if args.seed is not None:
            _require_seed(args.seed)
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
    reports, error = [], None
    try:
        for name, kwargs in requests:
            reports.append(SCENARIOS[name](**kwargs))
    except (IntegrationError, np.linalg.LinAlgError) as exc:
        # LinAlgError subclasses ValueError, so it must be caught before
        # the config-error branch below: a singular solve is numerical.
        t = getattr(exc, "t", None)
        error = {"type": "numerical", "message": str(exc), "failure_time": t}
        print(f"numerical failure at t={t}: {exc}", file=sys.stderr)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    wall = time.perf_counter() - t0

    # The scenarios that completed are written even after a failure.
    reports.sort(key=lambda r: (r.scenario, r.digest))
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
                "details": report.metadata,
            }
        )
    write_metadata(out_dir, entries, seed, args.format, wall, error=error)

    for r in reports:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.scenario}: {status} ({len(r.verdicts)} verdicts,"
              f" {r.wall_time:.2f}s)")
    if error is not None:
        return 3
    failed = [
        f"{r.scenario}:{v.name}"
        for r in reports for v in r.verdicts if not v.passed
    ]
    if failed:
        print("failed verdicts: " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
