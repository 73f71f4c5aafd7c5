"""Command-line front end: config validation, output files, exit codes."""

from __future__ import annotations

import json

import pytest

from oscbath.cli import main, parse_config, scenario_kwargs
from oscbath.errors import ConfigError

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
    assert err.value.field == "omega0"


def test_non_finite_numbers_name_the_field(tmp_path, capsys):
    path = write(tmp_path, "scenario: closure\ngrid:\n  t_max: .inf\n")
    with pytest.raises(ConfigError, match="t_max must be finite") as err:
        parse_config(path)
    assert err.value.field == "t_max"
    assert main(["run", str(path), "--check"]) == 2
    text = (
        "scenario: mir-pulse-train\n"
        "model:\n  omega: {kind: constant, value: .nan}\n"
    )
    path = write(tmp_path, text, "nan.yaml")
    assert main(["run", str(path), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "'omega'" in err and "'value' must be finite" in err
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
    capsys.readouterr()


def test_multi_scenario_fanout(tmp_path):
    text = (
        "scenario: [closure, short-time-convergence]\n"
        "grid:\n  steps: 401\n"
        "params:\n"
        "  coupling_scales: [0.1, 0.05]\n"
        "  ladder: [0.2, 0.1]\n"
        "tolerances:\n  diag_gap_limit: 0.25\n"
    )
    cfg = write(tmp_path, text)
    out = tmp_path / "run"
    assert main(["run", str(cfg), "--out", str(out), "--threads", "2"]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert "closure__closure.csv" in names
    assert "short-time-convergence__asymmetry.csv" in names
    meta = json.loads((out / "metadata.json").read_text())
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
