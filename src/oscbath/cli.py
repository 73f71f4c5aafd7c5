"""Command-line front end: config ingestion, scenario dispatch, output.

A config is a YAML mapping: ``scenario`` (a name or a list of names),
optional ``seed`` and ``out``, and the sections ``system``, ``model``,
``grid``, ``params`` and ``tolerances``.  Parsing, ``run --check`` and the
run check every field through the parameter tables of
:mod:`oscbath.scenarios`; a field that several named scenarios share is
checked by each one's entry.  Unknown keys are rejected with a
close-match suggestion, and every field error names its ``section.key``.
PyYAML reads ``1e-3`` as a string: write ``1.0e-3``.

Data files are deterministic functions of (config, seed): every float is
written as 17-significant-digit scientific notation and the wall-clock
timestamp lives only in the metadata file.

Exit codes: 0 all verdicts passed, 1 at least one verdict failed,
2 usage or configuration error, 3 numerical failure.  A failure after the
scenarios start still writes the scenarios that completed, and
``metadata.json`` records it as ``error`` (type, message, failure time).

The fields of each scenario, then of each profile kind, with their defaults:

"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy
import yaml

from .errors import ConfigError, IntegrationError
from .scenarios import (
    PARAMS,
    SCENARIOS,
    ScenarioReport,
    _json_safe,
    bind_params,
    param_docs,
)

if __doc__:   # None under python -OO
    __doc__ += param_docs() + "\n"

__all__ = ["RunConfig", "parse_config", "main"]

OUTPUT_DIR_ENV = "OSCBATH_OUT"

_TOP_KEYS = ("scenario", "seed", "out", "system", "model", "grid", "params",
             "tolerances")
_SECTIONS = _TOP_KEYS[3:]


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


def _require_seed(seed) -> None:
    # Philox keys are unsigned 64-bit integers; bool is no seed
    if type(seed) is not int or not 0 <= seed < 2**64:
        raise ConfigError(
            f"seed must be an integer in [0, 2**64), got {seed!r}",
            field="seed",
        )


def _validate_section(name: str, raw, scenarios: tuple[str, ...]) -> dict:
    """The section's keys, which the named scenarios' tables must know;
    their values are checked per scenario by :func:`scenario_kwargs`."""
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError(f"section {name!r} must be a mapping", field=name)
    allowed = sorted(
        {p.key for sc in scenarios for p in PARAMS[sc] if p.section == name}
    )
    for key in raw:
        if key not in allowed:
            _reject_unknown(str(key), tuple(allowed), f"section {name!r}")
    return dict(raw)


def parse_config(path: str | os.PathLike) -> RunConfig:
    """Load and validate a YAML run configuration."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}", field="path")
    try:
        raw = yaml.safe_load(p.read_text())
    except (yaml.YAMLError, RecursionError) as exc:   # or nested too deeply
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
    cfg = RunConfig(scenarios=scenarios, seed=seed, out=out, **sections)
    for name in scenarios:
        scenario_kwargs(cfg, name, None)
    return cfg


def scenario_kwargs(cfg: RunConfig, name: str, seed: int | None) -> dict:
    """The config's values for scenario ``name``, checked and converted by
    its parameter table, by keyword."""
    given = {
        p.keyword: getattr(cfg, p.section)[p.key]
        for p in PARAMS[name] if p.key in getattr(cfg, p.section)
    }
    kwargs = {k: v for k, v in bind_params(name, given).items() if k in given}
    if seed is not None:
        kwargs["seed"] = seed
    return kwargs


def config_echo(name: str, kwargs: dict) -> dict:
    """Scenario parameters with the table's defaults filled in."""
    return {p.keyword: kwargs.get(p.keyword, p.default) for p in PARAMS[name]}


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
    else:
        lines = [json.dumps(asdict(v), sort_keys=True) for v in report.verdicts]
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


def _failure_type(exc: Exception) -> str:
    # LinAlgError subclasses ValueError, but a singular solve is numerical
    if isinstance(exc, (IntegrationError, np.linalg.LinAlgError,
                        ArithmeticError)):
        return "numerical"
    return "config" if isinstance(exc, ValueError) else "internal"


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
        seed = args.seed if args.seed is not None else cfg.seed
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
    reports, failure, error = [], None, None
    try:
        for name, kwargs in requests:
            reports.append(SCENARIOS[name](**kwargs))
    except Exception as exc:   # written down below, then reported or raised
        failure = exc
        error = {
            "type": _failure_type(exc),
            "message": str(exc),
            "failure_time": getattr(exc, "t", None),
        }
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
        if error["type"] == "internal":
            raise failure
        numerical = error["type"] == "numerical"
        what = (f"numerical failure at t={error['failure_time']}"
                if numerical else "config error")
        print(f"{what}: {failure}", file=sys.stderr)
        return 3 if numerical else 2
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
