"""Command-line front end: config validation, output files, exit codes."""

from __future__ import annotations

import ast
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oscbath
from oscbath.cli import main, parse_config, scenario_kwargs
from oscbath.errors import ConfigError
from oscbath.profiles import PROFILE_KINDS
from oscbath.scenarios import PARAMS

SMALL_CLOSURE = """\
scenario: closure
seed: 9
system:
  n_modes: 4
  temperature: 0.3
grid:
  t_max: 4.0
  steps: 401
params:
  coupling_scales: [0.1, 0.05]
"""


def write(tmp_path, text, name="run.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_list_scenarios(capsys):
    assert main(["--list-scenarios"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["closure", "mir-pulse-train", "rwa-check",
                   "short-time-convergence"]


def test_minimal_config_is_valid(tmp_path):
    cfg = parse_config(write(tmp_path, "scenario: closure\n"))
    assert cfg.scenarios == ("closure",)
    assert cfg.seed is None
    assert scenario_kwargs(cfg, "closure", None) == {}


def _subprocess_env() -> dict:
    """The environment of a fresh interpreter that imports this oscbath."""
    env = dict(os.environ)
    src = str(Path(oscbath.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return env


def test_import_and_parse_leave_scipy_linalg_unloaded(tmp_path):
    # a fresh interpreter, because this one has loaded scipy.linalg through
    # the test oracles
    cfg = write(tmp_path, SMALL_CLOSURE)
    code = (
        "import json, sys\n"
        "import oscbath, oscbath.cli\n"
        "oscbath.cli.parse_config(sys.argv[1])\n"
        "print(json.dumps(sorted(m for m in sys.modules if 'scipy' in m)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(cfg)],
        capture_output=True, text=True, env=_subprocess_env(), timeout=60,
        check=True,
    )
    loaded = json.loads(proc.stdout)
    assert "scipy" in loaded   # the version recorded in metadata.json
    assert not [m for m in loaded if m.startswith("scipy.linalg")]


def test_exports_name_what_each_module_defines():
    # a deleted function must not leave a stale export behind: every name
    # in a module's __all__ exists there, and every name the package
    # re-exports is in the __all__ of the module it comes from
    init = ast.parse(Path(oscbath.__file__).read_text())
    reexports = {
        node.module: [alias.name for alias in node.names]
        for node in init.body if isinstance(node, ast.ImportFrom)
    }
    modules = [info.name for info in pkgutil.iter_modules(oscbath.__path__)]
    assert set(reexports) <= set(modules)
    for name in modules:
        module = importlib.import_module(f"oscbath.{name}")
        declared = getattr(module, "__all__", [])
        assert [n for n in declared if not hasattr(module, n)] == []
        assert [n for n in reexports.get(name, []) if n not in declared] == []


# One small run of every scenario, with a profile mapping for the model's
# frequency so that the profile parser and the config echo's serializer run
# too; mir's damping is its default pulse train, read at y != 0.
ALL_SCENARIOS = """\
scenario: [closure, mir-pulse-train, rwa-check, short-time-convergence]
seed: 3
system:
  n_modes: 1
  omega_max: 2.0
grid:
  t_max: 1.0
  steps: 5
  dt: 0.01
model:
  omega: {kind: constant, value: 1.0}
params:
  count: 1
  coupling_scales: [0.1, 0.05]
  ladder: [0.2, 0.1]
  rho_values: [[0.3, 0.2]]
  window: [2.0, 4.0]
"""
# A second mir run, so that every profile kind a config can name runs: a
# piecewise-linear frequency and a continuous pulse-train damping at y != 0.
GUARD_RUNS = (ALL_SCENARIOS, """\
scenario: mir-pulse-train
grid:
  dt: 0.01
model:
  y: [0.0, 0.5]
  omega: {kind: piecewise-linear, times: [0.0, 8.0], values: [1.0, 0.99]}
  gamma: {kind: pulse-train, count: 2, period: 1.0,
          base: {kind: gaussian-pulse, amplitude: 0.005, center: 0.5,
                 width: 0.1}}
params:
  count: 1
""")

# Public functions, methods and properties that no run reaches, each with
# the reader that keeps it.
_OVERRIDDEN = "the interface's default or stub; every kind overrides it"
_INTEGRAND = ("lambda_factor and mu_elements, which integrate any coupling"
              " profile; no config sets nu")
_STEPLESS = "_resolving_step, for a run given no step; mir passes grid.dt"
# perfbench's step and byte counts, until the benchmark reads run statistics
_COUNTS, _TRACER = "perfbench/counts.py", "perfbench/tracer.py"
UNREACHED = {
    "errors.ConfigError.__init__": "config checks, on a rejected config",
    "errors.IntegrationError.__init__": "run checks, on a failed run",
    "profiles.TimeProfile.support": _OVERRIDDEN,
    "profiles.TimeProfile.values": _OVERRIDDEN,
    "profiles.TimeProfile.derivatives": _OVERRIDDEN,
    "profiles.TimeProfile.integral": _OVERRIDDEN,
    "profiles.Constant.derivatives":
        "effective_frequency_terms, for a constant damping at y != 0",
    "profiles.PiecewiseLinear.derivatives":
        "effective_frequency_terms, for a piecewise-linear damping at y != 0",
    "profiles.PiecewiseLinear.support": "PulseTrain, of a piecewise-linear base",
    "profiles.Constant.integral": "acceptance criterion 3",
    "profiles.ExpPulse.integral": "acceptance criterion 3",
    "profiles.PiecewiseLinear.integral": "acceptance criterion 3",
    "profiles.PulseTrain.integral": _INTEGRAND,
    "profiles.Affine.integral": _INTEGRAND,
    "profiles.ExpPulse.timescale": _STEPLESS,
    "profiles.PulseTrain.timescale": _STEPLESS,
    "profiles.PiecewiseLinear.timescale": _STEPLESS,
    "propagate.PropagatorState.R11": _COUNTS,
    "propagate.PropagatorState.R12": _COUNTS,
    "propagate.PropagatorState.R21": _COUNTS,
    "propagate.PropagatorState.R22": _COUNTS,
    "propagate.PropagatorTrajectory.__iter__": _COUNTS,
    "propagate.PropagatorTrajectory.__len__": _TRACER,
    "propagate.PropagatorTrajectory.max_defect": _TRACER,
    "scenarios.ScenarioReport.verdict": "acceptance criterion 4",
    "scenarios.Param.__post_init__": "runs when oscbath.scenarios is imported",
    "scenarios.param_docs": "runs once, when oscbath.cli is imported",
}


def _oscbath_imports(path: Path) -> set:
    """The functions a file imports from oscbath and its modules."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module and (
                node.module.split(".")[0] == "oscbath"):
            module = importlib.import_module(node.module)
            objs = (getattr(module, alias.name) for alias in node.names)
            found.update(filter(inspect.isfunction, objs))
    return found


def _public_members() -> dict:
    """``module.name`` -> function, for every function in a module's
    ``__all__`` and every public method and property (dunders included)
    that a class in one defines in ``src/``."""
    src = Path(oscbath.__file__).resolve().parent
    members = {}
    for info in pkgutil.iter_modules(oscbath.__path__):
        module = importlib.import_module(f"oscbath.{info.name}")
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if inspect.isfunction(obj):
                members[f"{info.name}.{name}"] = obj
            if not inspect.isclass(obj) or obj.__module__ != module.__name__:
                continue
            for attr, member in vars(obj).items():
                if attr.startswith("_") and not attr.endswith("__"):
                    continue
                fn = (member.fget if isinstance(member, property)
                      else getattr(member, "__func__", member))
                if (inspect.isfunction(fn) and
                        Path(fn.__code__.co_filename).parent == src):
                    members[f"{info.name}.{obj.__qualname__}.{attr}"] = fn
    return members


def test_every_public_function_is_on_a_run_path(tmp_path):
    # A public function, method or property is run by the CLI, or named
    # above; a function may instead be read by the pinned acceptance
    # criteria or bound by the benchmark.  An entry above that the run
    # reaches, or that names no public member, fails too.
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        codes = [main(["run", str(write(tmp_path, text, f"{i}.yaml")),
                       "--out", str(tmp_path / f"out{i}")])
                 for i, text in enumerate(GUARD_RUNS)]
    finally:
        sys.setprofile(previous)
    assert set(codes) <= {0, 1}
    root = Path(__file__).resolve().parent.parent
    imported = _oscbath_imports(root / "tests" / "test_acceptance.py")
    for path in sorted((root / "perfbench").glob("*.py")):
        imported |= _oscbath_imports(path)
    unreached = [name for name, fn in _public_members().items()
                 if fn.__code__ not in called and fn not in imported]
    assert [name for name in unreached if name not in UNREACHED] == []
    assert [name for name in UNREACHED if name not in unreached] == []


def test_run_writes_csv_and_metadata(tmp_path, capsys):
    cfg = write(tmp_path, SMALL_CLOSURE)
    out = tmp_path / "run1"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    files = sorted(p.name for p in out.iterdir())
    assert files == [
        "closure__closure.csv",
        "closure__ratios.csv",
        "closure__uncoupled.csv",
        "closure__verdicts.csv",
        "metadata.json",
    ]
    table = (out / "closure__closure.csv").read_text().splitlines()
    assert table[0] == "coupling_scale,max_rel_cov_gap"
    # 17 significant digits, scientific notation
    assert table[1].split(",")[0] == "1.0000000000000001e-01"
    verdicts = (out / "closure__verdicts.csv").read_text().splitlines()
    assert verdicts[0] == "name,passed,value,threshold,comparator"
    assert all(line.split(",")[1] == "1" for line in verdicts[1:])

    meta = json.loads((out / "metadata.json").read_text())
    assert meta["seed"] == 9
    assert {"numpy", "scipy", "python", "oscbath"} <= set(meta["versions"])
    entry = meta["scenarios"][0]
    assert entry["scenario"] == "closure"
    assert len(entry["digest"]) == 64
    assert entry["passed"] is True
    # defaults are echoed alongside the overrides
    assert entry["config_echo"]["fine_points"] == 401
    assert entry["config_echo"]["weak_tol"] == 1e-6
    assert "timestamp" in meta


def test_reruns_are_byte_identical(tmp_path):
    cfg = write(tmp_path, SMALL_CLOSURE)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", str(cfg), "--out", str(out2)]) == 0
    for p1 in out1.iterdir():
        if p1.name == "metadata.json":
            continue  # timestamp and wall time live here by design
        assert p1.read_bytes() == (out2 / p1.name).read_bytes()


def test_jsonl_format(tmp_path):
    cfg = write(tmp_path, SMALL_CLOSURE)
    out = tmp_path / "run"
    assert main(["run", str(cfg), "--out", str(out), "--format", "jsonl"]) == 0
    lines = (out / "closure__closure.jsonl").read_text().splitlines()
    rows = [json.loads(line) for line in lines]
    assert len(rows) == 2
    assert rows[0]["coupling_scale"] == 0.1
    vlines = (out / "closure__verdicts.jsonl").read_text().splitlines()
    assert all(json.loads(v)["passed"] is True for v in vlines)


def test_seed_flag_overrides_config(tmp_path):
    cfg = write(tmp_path, SMALL_CLOSURE)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg), "--out", str(out1), "--seed", "11"]) == 0
    assert main(["run", str(cfg), "--out", str(out2)]) == 0
    m1 = json.loads((out1 / "metadata.json").read_text())
    m2 = json.loads((out2 / "metadata.json").read_text())
    assert m1["seed"] == 11 and m2["seed"] == 9
    assert m1["scenarios"][0]["digest"] != m2["scenarios"][0]["digest"]


def test_unknown_top_key_suggestion(tmp_path):
    path = write(tmp_path, "scenari: closure\n")
    with pytest.raises(ConfigError, match="did you mean 'scenario'"):
        parse_config(path)
    assert main(["run", str(path)]) == 2


def test_unknown_section_key_suggests_gamma(tmp_path):
    path = write(
        tmp_path,
        "scenario: mir-pulse-train\nmodel:\n  gamm: {kind: constant, value: 0}\n",
    )
    with pytest.raises(ConfigError, match="did you mean 'gamma'") as err:
        parse_config(path)
    assert err.value.field == "gamm"


def test_negative_omega0_names_the_field(tmp_path):
    path = write(tmp_path, "scenario: rwa-check\nsystem:\n  omega0: -2.0\n")
    with pytest.raises(ConfigError, match="omega0") as err:
        parse_config(path)
    assert err.value.field == "system.omega0"


def test_non_finite_numbers_name_the_field(tmp_path, capsys):
    path = write(tmp_path, "scenario: closure\ngrid:\n  t_max: .inf\n")
    with pytest.raises(ConfigError, match="t_max must be finite") as err:
        parse_config(path)
    assert err.value.field == "grid.t_max"
    assert main(["run", str(path), "--check"]) == 2
    text = (
        "scenario: mir-pulse-train\n"
        "model:\n  omega: {kind: constant, value: .nan}\n"
    )
    path = write(tmp_path, text, "nan.yaml")
    assert main(["run", str(path), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "model.omega" in err and "'value' must be finite" in err
    text = "scenario: mir-pulse-train\nparams:\n  depth: .nan\n"
    path = write(tmp_path, text, "depth.yaml")
    assert main(["run", str(path), "--out", str(tmp_path / "run")]) == 2
    assert "depth must be finite" in capsys.readouterr().err
    text = "scenario: rwa-check\nparams:\n  rho_values: [[0.5, -.inf]]\n"
    path = write(tmp_path, text, "rho.yaml")
    with pytest.raises(ConfigError, match="rho_values must be finite"):
        parse_config(path)


def test_missing_profile_field_is_a_config_error(tmp_path, capsys):
    text = "scenario: mir-pulse-train\nmodel:\n  omega: {kind: gaussian-pulse}\n"
    path = write(tmp_path, text)
    assert main(["run", str(path), "--check"]) == 2
    assert "needs field 'amplitude'" in capsys.readouterr().err


def test_fractional_pulse_count_is_a_config_error(tmp_path, capsys):
    train = (
        "scenario: mir-pulse-train\nmodel:\n  omega: {kind: pulse-train,"
        " base: {kind: gaussian-pulse, amplitude: 0.1, width: 0.2},"
        " period: 1.0, count: %s}\n"
    )
    path = write(tmp_path, train % "2.7")
    assert main(["run", str(path), "--check"]) == 2
    assert "'count' must be an integer, got 2.7" in capsys.readouterr().err
    path = write(tmp_path, train % "6.0", "integral.yaml")
    assert main(["run", str(path), "--check"]) == 0


def test_parse_error_reports_line_and_column(tmp_path, capsys):
    path = write(tmp_path, "scenario: closure\ngrid:\n  t_max: 5.0\n   steps: 801\n")
    with pytest.raises(ConfigError, match=r"line 4, column"):
        parse_config(path)
    assert main(["run", str(path)]) == 2
    assert "line 4" in capsys.readouterr().err


def test_deeply_nested_config_is_a_config_error(tmp_path, capsys):
    # the YAML composer recursed past the interpreter's limit with a
    # traceback, from about 500 levels
    omega = "{kind: gaussian-pulse, amplitude: 1.0, width: 0.1}"
    for _ in range(599):
        omega = f"{{kind: pulse-train, base: {omega}, period: 1.0, count: 1}}"
    cfg = write(tmp_path, f"scenario: mir-pulse-train\nmodel:\n  omega: {omega}\n")
    out = tmp_path / "never"
    for extra in (["--check"], ["--out", str(out)]):
        assert main(["run", str(cfg), *extra]) == 2
        assert "config error: parse error: " in capsys.readouterr().err
    assert not out.exists()


def test_missing_file_and_bad_scenario(tmp_path):
    assert main(["run", str(tmp_path / "absent.yaml")]) == 2
    path = write(tmp_path, "scenario: closur\n")
    with pytest.raises(ConfigError, match="did you mean 'closure'"):
        parse_config(path)


def test_check_validates_without_running(tmp_path, capsys):
    cfg = write(tmp_path, SMALL_CLOSURE)
    out = tmp_path / "never"
    assert main(["run", str(cfg), "--out", str(out), "--check"]) == 0
    assert "config ok" in capsys.readouterr().out
    assert not out.exists()
    bad = write(tmp_path, "scenario: closure\nsystem:\n  omega0: -1\n", "bad.yaml")
    assert main(["run", str(bad), "--check"]) == 2
    assert not out.exists()


def test_verdict_failure_exits_one(tmp_path, capsys):
    text = SMALL_CLOSURE + "tolerances:\n  weak_tol: 1.0e-30\n"
    cfg = write(tmp_path, text)
    out = tmp_path / "run"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "closure:weak_coupling_closure" in err
    # data files are still written so the failure can be inspected
    assert (out / "closure__verdicts.csv").exists()


def test_numerical_failure_exits_three(tmp_path, capsys):
    text = (
        "scenario: mir-pulse-train\n"
        "params:\n  count: 3\n"
        "grid:\n  dt: 1.0\n"
    )
    cfg = write(tmp_path, text)
    out = tmp_path / "run"
    assert main(["run", str(cfg), "--out", str(out)]) == 3
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["error"]["type"] == "numerical"
    assert meta["error"]["failure_time"] > 0.0
    assert "numerical failure" in capsys.readouterr().err


def test_singular_solve_exits_three(tmp_path, monkeypatch, capsys):
    # LinAlgError subclasses ValueError; it must not be reported as a
    # config error
    import numpy as np

    from oscbath import scenarios

    def singular(**kwargs):
        np.linalg.solve(np.zeros((2, 2)), np.ones(2))

    monkeypatch.setitem(scenarios.SCENARIOS, "rwa-check", singular)
    cfg = write(tmp_path, "scenario: rwa-check\n")
    out = tmp_path / "run"
    assert main(["run", str(cfg), "--out", str(out)]) == 3
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["error"]["type"] == "numerical"
    assert meta["error"]["failure_time"] is None
    err = capsys.readouterr().err
    assert "numerical failure" in err and "config error" not in err


def test_skipped_closure_point_exits_three(tmp_path, monkeypatch, capsys):
    # closure feeds the drift at every fine point to the moment
    # integrator; a skipped extraction point is a numerical failure
    from oscbath import reduced

    monkeypatch.setattr(reduced, "COND_LIMIT", 0.5)
    cfg = write(tmp_path, SMALL_CLOSURE)
    out = tmp_path / "run"
    with pytest.warns(RuntimeWarning, match="near-singular"):
        assert main(["run", str(cfg), "--out", str(out)]) == 3
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["error"]["type"] == "numerical"
    assert meta["error"]["failure_time"] == 0.0
    err = capsys.readouterr().err
    assert "near-singular at t=0" in err and "config error" not in err


def test_completed_scenarios_survive_a_later_failure(
    tmp_path, monkeypatch, capsys
):
    from oscbath import scenarios
    from oscbath.errors import IntegrationError

    def failing(**kwargs):
        raise IntegrationError("defect too large at t=1.5", t=1.5)

    monkeypatch.setitem(scenarios.SCENARIOS, "rwa-check", failing)
    text = SMALL_CLOSURE.replace(
        "scenario: closure", "scenario: [closure, rwa-check]"
    )
    cfg = write(tmp_path, text)
    out = tmp_path / "run"
    assert main(["run", str(cfg), "--out", str(out)]) == 3
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "closure__closure.csv",
        "closure__ratios.csv",
        "closure__uncoupled.csv",
        "closure__verdicts.csv",
        "metadata.json",
    ]
    meta = json.loads((out / "metadata.json").read_text())
    assert [e["scenario"] for e in meta["scenarios"]] == ["closure"]
    assert meta["scenarios"][0]["passed"] is True
    assert meta["error"]["failure_time"] == 1.5
    assert "numerical failure" in capsys.readouterr().err


def test_completed_scenarios_survive_a_later_config_error(
    tmp_path, monkeypatch, capsys
):
    # a value error in a run (here a profile evaluated off its domain) takes
    # the same path as a numerical failure, with exit code 2
    from oscbath import scenarios

    def failing(**kwargs):
        raise ValueError("time 2.5 outside profile domain [0.0, 1.0]")

    monkeypatch.setitem(scenarios.SCENARIOS, "rwa-check", failing)
    text = SMALL_CLOSURE.replace(
        "scenario: closure", "scenario: [closure, rwa-check]"
    )
    cfg = write(tmp_path, text)
    out = tmp_path / "run"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "closure__closure.csv",
        "closure__ratios.csv",
        "closure__uncoupled.csv",
        "closure__verdicts.csv",
        "metadata.json",
    ]
    meta = json.loads((out / "metadata.json").read_text())
    assert [e["scenario"] for e in meta["scenarios"]] == ["closure"]
    assert meta["error"] == {
        "type": "config",
        "message": "time 2.5 outside profile domain [0.0, 1.0]",
        "failure_time": None,
    }
    err = capsys.readouterr().err
    assert "config error: time 2.5" in err and "numerical" not in err


def test_internal_error_is_recorded_then_raised(tmp_path, monkeypatch):
    # a fault in the program is no config or numerical failure: the run
    # writes what it has and the traceback shows
    from oscbath import scenarios

    def broken(**kwargs):
        raise KeyError("no such table")

    monkeypatch.setitem(scenarios.SCENARIOS, "closure", broken)
    cfg = write(tmp_path, "scenario: closure\n")
    out = tmp_path / "run"
    with pytest.raises(KeyError, match="no such table"):
        main(["run", str(cfg), "--out", str(out)])
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["scenarios"] == []
    assert meta["error"]["type"] == "internal"


def test_out_of_memory_is_a_config_error_after_the_completed_scenarios(
    tmp_path, monkeypatch, capsys
):
    # a MemoryError took the internal path: traceback and exit 1
    from oscbath import scenarios

    def too_big(**kwargs):
        raise MemoryError()

    monkeypatch.setitem(scenarios.SCENARIOS, "rwa-check", too_big)
    text = SMALL_CLOSURE.replace(
        "scenario: closure", "scenario: [closure, rwa-check]"
    )
    cfg = write(tmp_path, text)
    out = tmp_path / "run"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert (out / "closure__verdicts.csv").exists()
    meta = json.loads((out / "metadata.json").read_text())
    assert [e["scenario"] for e in meta["scenarios"]] == ["closure"]
    assert meta["error"] == {
        "type": "config", "message": "out of memory", "failure_time": None,
    }
    assert "config error: out of memory" in capsys.readouterr().err


@pytest.mark.parametrize("data", [
    b"scenario: closure\n\xff\xfe: 1\n",
    "scenario: closure\n".encode("utf-16"),
], ids=["invalid_utf8", "utf16"])
def test_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys, data):
    # both raised UnicodeDecodeError with a traceback and exit 1
    cfg = tmp_path / "bad.yaml"
    cfg.write_bytes(data)
    with pytest.raises(ConfigError, match="UTF-8") as err:
        parse_config(cfg)
    assert err.value.field == "path"
    out = tmp_path / "never"
    for extra in (["--check"], ["--out", str(out)]):
        assert main(["run", str(cfg), *extra]) == 2
        assert "config error: cannot read config" in capsys.readouterr().err
    assert not out.exists()


def test_unreadable_config_is_a_config_error(tmp_path, monkeypatch):
    cfg = write(tmp_path, "scenario: closure\n")

    def denied(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "read_text", denied)
    with pytest.raises(ConfigError, match="Permission denied"):
        parse_config(cfg)


def test_output_path_under_a_file_exits_two_before_running(
    tmp_path, monkeypatch, capsys
):
    # --out at a file ran every scenario, then mkdir raised FileExistsError
    # (or NotADirectoryError under it) with a traceback, and --check passed
    from oscbath import scenarios

    ran = []
    monkeypatch.setitem(scenarios.SCENARIOS, "closure",
                        lambda **kwargs: ran.append(kwargs))
    cfg = write(tmp_path, "scenario: closure\n")
    taken = write(tmp_path, "not a directory\n", "taken")
    for out in (taken, taken / "sub"):
        for extra in (["--check"], []):
            assert main(["run", str(cfg), "--out", str(out), *extra]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: out ") and str(taken) in err
    assert ran == []
    assert taken.read_text() == "not a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.yaml", "taken"]

    def denied(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "mkdir", denied)
    out = tmp_path / "new"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert "config error: out: cannot make directory" in capsys.readouterr().err
    assert ran == []


@pytest.mark.parametrize("text, verdict", [
    ("scenario: closure\ngrid: {t_max: 1.0e-9, steps: 5}\n",
     "closure_gap_ratio_bounded"),
    ("scenario: rwa-check\nparams: {rho_values: [1.0e-300]}\n",
     "closed_form_cross_diffusion_zero"),
], ids=["closure_zero_gaps", "rwa_vanishing_diffusion"])
def test_vanishing_gaps_fail_their_verdicts_without_a_traceback(
    tmp_path, text, verdict
):
    # both divided by zero with a traceback; the NaN now reaches its verdict
    # (a max() that starts from 0.0 would drop it and pass)
    cfg = write(tmp_path, text)
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-m", "oscbath.cli", "run", str(cfg),
         "--out", str(out)],
        capture_output=True, text=True, env=_subprocess_env(), timeout=120,
    )
    assert proc.returncode in (1, 3)
    assert "Traceback" not in proc.stderr
    assert (out / "metadata.json").exists()
    name = text.split()[1]
    rows = (out / f"{name}__verdicts.csv").read_text().splitlines()
    failed = {row.split(",")[0]: row for row in rows[1:] if ",0," in row}
    assert verdict in failed and ",nan," in failed[verdict]


def test_scenario_list_must_hold_distinct_names(tmp_path, capsys):
    cfg = write(tmp_path, "scenario: [rwa-check, closure, rwa-check]\n")
    with pytest.raises(ConfigError, match="rwa-check") as exc:
        parse_config(cfg)
    assert exc.value.field == "scenario"
    out = tmp_path / "never"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()
    # an entry that is not a name at all (unhashable) is no traceback
    for text in ("scenario: [{a: 1}]\n", "scenario: [[closure]]\n"):
        bad = write(tmp_path, text, "bad.yaml")
        assert main(["run", str(bad), "--check"]) == 2
        assert "config error" in capsys.readouterr().err


def test_env_var_sets_default_output(tmp_path, monkeypatch):
    target = tmp_path / "from-env"
    monkeypatch.setenv("OSCBATH_OUT", str(target))
    cfg = write(tmp_path, SMALL_CLOSURE)
    assert main(["run", str(cfg)]) == 0
    assert (target / "closure__verdicts.csv").exists()


def test_usage_errors_exit_two(capsys):
    assert main([]) == 2
    assert main(["run"]) == 2
    # scenarios run in sequence; there is no worker-count option
    assert main(["run", "run.yaml", "--threads", "2"]) == 2
    capsys.readouterr()


def test_multi_scenario_fanout(tmp_path):
    text = (
        "scenario: [short-time-convergence, closure]\n"
        "grid:\n  steps: 401\n"
        "params:\n"
        "  coupling_scales: [0.1, 0.05]\n"
        "  ladder: [0.2, 0.1]\n"
        "tolerances:\n  diag_gap_limit: 0.25\n"
    )
    cfg = write(tmp_path, text)
    out = tmp_path / "run"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert "closure__closure.csv" in names
    assert "short-time-convergence__asymmetry.csv" in names
    meta = json.loads((out / "metadata.json").read_text())
    # entries are sorted by (scenario, digest), not by request order
    listed = [e["scenario"] for e in meta["scenarios"]]
    assert listed == ["closure", "short-time-convergence"]


def test_rho_values_parsing(tmp_path):
    path = write(
        tmp_path,
        "scenario: rwa-check\nparams:\n  rho_values: [[0.3, 0.2], 0.5]\n",
    )
    cfg = parse_config(path)
    kwargs = scenario_kwargs(cfg, "rwa-check", None)
    assert kwargs["rho_values"] == (0.3 + 0.2j, 0.5 + 0j)
    bad = write(
        tmp_path, "scenario: rwa-check\nparams:\n  rho_values: [oops]\n",
        "bad.yaml",
    )
    with pytest.raises(ConfigError, match="rho_values"):
        scenario_kwargs(parse_config(bad), "rwa-check", None)


@pytest.mark.parametrize("text, args, field", [
    ("scenario: rwa-check\nparams:\n  window: [5]\n", [], "window"),
    ("scenario: closure\ntolerances:\n  ratio_band: [2]\n", [], "ratio_band"),
    ("scenario: closure\nparams:\n  coupling_scales: 0.1\n", [],
     "coupling_scales"),
    ("scenario: rwa-check\nparams:\n  rho_values: [[0, 0], 0.5]\n", [],
     "rho_values"),
    ("scenario: closure\n", ["--seed", str(2**130)], "seed"),
    (f"scenario: closure\nseed: {2**64}\n", [], "seed"),
    ("scenario: closure\ntolerances:\n  weak_tol: [1.0e-6]\n", [],
     "weak_tol"),
    ("scenario: mir-pulse-train\nmodel:\n  y: [0.0, 2.0]\n", [], "y"),
    ("scenario: rwa-check\nparams:\n  window: [40, 20]\n", [], "window"),
    ("scenario: closure\ngrid:\n  steps: 400\n", [], "steps"),
    ("scenario: mir-pulse-train\nmodel:\n  G: 0.5\n", [], "G"),
    ("scenario: short-time-convergence\nsystem:\n  omega_max: 0.1\n", [],
     "omega_max"),
    ("scenario: rwa-check\nsystem:\n  omega_max: 0.1\n", [], "omega_max"),
    ("scenario: mir-pulse-train\nparams:\n  decay: -1\n", [], "decay"),
    ("scenario: mir-pulse-train\nparams:\n  rise: -1\n", [], "rise"),
    ("scenario: mir-pulse-train\nparams:\n  period: 0\n", [], "period"),
    ("scenario: mir-pulse-train\nparams:\n  gamma_max: -0.1\n", [],
     "gamma_max"),
    ("scenario: mir-pulse-train\nparams:\n  onset: -5\n", [], "onset"),
    ("scenario: mir-pulse-train\nparams:\n  rise: 0\n", [], "rise"),
    ("scenario: mir-pulse-train\nparams:\n  decay: 0\n", [], "decay"),
    ("scenario: rwa-check\nparams:\n  epsilon: -0.05\n", [], "epsilon"),
    ("scenario: rwa-check\nparams:\n  nu_bridge: 0\n", [], "nu_bridge"),
    ("scenario: rwa-check\nparams:\n  nu_bridge: -0.08\n", [], "nu_bridge"),
    ("scenario: rwa-check\nparams:\n  modulation_depth: 1.0\n", [],
     "params.modulation_depth"),
    ("scenario: rwa-check\nparams:\n  modulation_depth: 5\n", [],
     "params.modulation_depth"),
    ("scenario: rwa-check\nparams:\n  modulation_depth: -5\n", [],
     "params.modulation_depth"),
    ("scenario: mir-pulse-train\nmodel:\n  omega: {kind: piecewise-linear,"
     " times: [0, 1], values: [1, 1]}\n", [], "model.omega"),
    ("scenario: mir-pulse-train\nmodel:\n  gamma: {kind: constant,"
     " value: -1}\n", [], "model.gamma"),
    ("scenario: mir-pulse-train\nmodel:\n  gamma: {kind: exp-rise-decay-pulse,"
     " amplitude: 0.1, center: 1.0, decay: 0.5, rise: 0}\n", [],
     "model.gamma"),
    ("scenario: mir-pulse-train\nparams:\n  depth: -0.02\n", [],
     "params.gamma_max"),
    ("scenario: mir-pulse-train\nmodel:\n  omega: {kind: pulse-train,"
     " base: {kind: constant, value: 1.0e-4}, period: 1.0, count: 10000}\n",
     [], "model.omega"),
], ids=["window", "ratio_band", "coupling_scales", "rho_values", "seed_flag",
        "seed_key", "scalar_as_list", "y_range", "window_order", "even_steps",
        "G_below_one", "band_stc", "band_rwa", "decay_negative",
        "rise_negative", "period_zero", "gamma_max_negative",
        "onset_negative", "rise_zero", "decay_zero", "epsilon_negative",
        "nu_bridge_zero", "nu_bridge_negative", "depth_above_bound",
        "depth_five", "depth_minus_five", "omega_off_span", "gamma_negative",
        "gamma_jump_with_split", "derived_gamma_max_negative",
        "train_of_unbounded_base"])
def test_check_agrees_with_the_run(tmp_path, capsys, text, args, field):
    # each of these passed --check and then failed in the run; the first
    # four, the scalar given as a list, a zero rise or decay and a zero
    # nu_bridge with a traceback, the next four with a message that named
    # no field; the last ran, summing every pulse of its train at every
    # evaluation, for a time that grew with its count
    cfg = write(tmp_path, text)
    out = tmp_path / "never"
    for extra in (["--check"], ["--out", str(out)]):
        assert main(["run", str(cfg), *args, *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and field in err
    assert not out.exists()


def test_profile_on_exactly_the_window_runs(tmp_path, capsys):
    # omega is defined on exactly [0, t_max]; stage nodes formed by running
    # sums t + h + ... landed past the window's end, and the run failed
    # with exit 2 after --check had passed
    text = (
        "scenario: mir-pulse-train\n"
        "params:\n  count: 2\n"
        "model:\n  omega: {kind: piecewise-linear,"
        " times: [0.0, 7.853981633974483], values: [1.0, 1.01]}\n"
    )
    cfg = write(tmp_path, text)
    for extra in (["--check"], ["--out", str(tmp_path / "run")]):
        assert main(["run", str(cfg), *extra]) in (0, 1)
        assert "outside profile domain" not in capsys.readouterr().err


# Any YAML value: NaN and inf among the floats, integers beyond the float
# range, lists and nested mappings.
_ANY = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(-(10**400))
    | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
_PROFILE = st.fixed_dictionaries(
    {"kind": st.sampled_from(sorted(PROFILE_KINDS)) | _ANY},
    optional={f.key: _ANY for entry in PROFILE_KINDS.values()
              for f in entry.fields},
)



@st.composite
def _configs(draw):
    """Config mappings over the table keys of the named scenarios, with
    any values; one in four times a seed, an output path or a scenario
    entry drawn from any values."""

    def rarely():
        return draw(st.sampled_from(range(4))) == 3

    names = draw(st.lists(st.sampled_from(sorted(PARAMS)), min_size=1,
                          max_size=3, unique=True))
    config = {"scenario": draw(_ANY) if rarely() else names}
    for key in ("seed", "out"):
        if rarely():
            config[key] = draw(_ANY)
    for section in sorted({p.section for n in names for p in PARAMS[n]}):
        keys = sorted({p.key for n in names for p in PARAMS[n]
                       if p.section == section})
        chosen = draw(st.lists(st.sampled_from(keys), max_size=2, unique=True))
        config[section] = {
            key: draw(_PROFILE | _ANY if key in ("gamma", "omega") else _ANY)
            for key in chosen
        }
    return config


@settings(max_examples=300, deadline=None)
@given(config=_configs())
@example(config={"scenario": "mir-pulse-train", "model": {"y": ["abc"]}})
@example(config={"scenario": "mir-pulse-train", "model": {"y": [0.0, None]}})
@example(config={"scenario": "mir-pulse-train", "model": {"y": [10**400]}})
@example(config={"scenario": "closure", "grid": {"t_max": 10**400}})
@example(config={"scenario": "mir-pulse-train",
                 "model": {"gamma": {"kind": "constant", "value": 10**400}}})
@example(config={"scenario": "mir-pulse-train",
                 "params": {"period": 10**300, "count": 10**10},
                 "model": {"omega": {"kind": "constant", "value": 1.0}}})
def test_check_exits_zero_or_two_on_any_config(config, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "fuzz.yaml"
    path.write_text(yaml.safe_dump(config))
    assert main(["run", str(path), "--check"]) in (0, 2)
