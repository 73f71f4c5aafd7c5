"""Scenario drivers: determinism, verdict grading, and fan-out."""

from __future__ import annotations

import inspect
import json
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from oscbath import (
    Affine,
    Constant,
    ExpPulse,
    PulseTrain,
    SystemSpec,
    bath_from_rwa,
    uniform_bath_frequencies,
)
from oscbath import profiles
from oscbath.cli import config_echo, main
from oscbath.profiles import PROFILE_KINDS
from oscbath.propagate import _schedule
from oscbath.scenarios import (
    PARAMS,
    SCENARIOS,
    ScenarioReport,
    Verdict,
    _frequency_dip,
    bind_params,
    config_digest,
    param_docs,
    run_closure,
    run_mir_pulse_train,
    run_rwa_check,
    run_short_time_convergence,
)


def small_short_time():
    # the closed-form gap shrinks linearly with duration, so a ladder
    # that stops at 0.1 needs a looser bound than the default ladder
    # reaching 0.05 (where the acceptance-level 10% limit applies)
    return run_short_time_convergence(
        ladder=(0.2, 0.1), grid_points=41, diag_gap_limit=0.25
    )


def test_config_digest_is_stable_and_sensitive():
    params = {"ladder": [0.2, 0.1], "rho": 0.3 + 0.2j, "arr": np.arange(3)}
    d1 = config_digest("x", params, 7)
    d2 = config_digest("x", {"arr": np.arange(3), "rho": 0.3 + 0.2j,
                             "ladder": [0.2, 0.1]}, 7)
    assert d1 == d2
    assert len(d1) == 64
    assert config_digest("x", params, 8) != d1
    assert config_digest("y", params, 7) != d1


def test_each_keyword_has_one_table_entry_and_echoes_its_default():
    assert list(PARAMS) == list(SCENARIOS)
    for name, run in SCENARIOS.items():
        signature = inspect.signature(run).parameters
        keywords = [p.keyword for p in PARAMS[name]]
        assert sorted(keywords) == sorted(k for k in signature if k != "seed")
        fields = [p.field for p in PARAMS[name]]
        assert len(set(fields)) == len(fields)
        assert config_echo(name, {}) == {
            k: v.default for k, v in signature.items() if k != "seed"
        }


def test_readme_lists_the_tables():
    # one fenced block of the README is the whole list, profile kinds too
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"^```\n(.*?)\n```$", readme.read_text(), re.M | re.S)
    assert param_docs() in blocks
    for kind, entry in PROFILE_KINDS.items():
        assert (f"\n  {kind}:\n" in param_docs()) == entry.parses


def test_report_helpers():
    good = Verdict("a", True, 0.5, 1.0, "<=")
    bad = Verdict("b", False, 2.0, 1.0, "<=")
    rep = ScenarioReport(
        scenario="s", digest="0" * 64, seed=0,
        tables={"t": {"x": [1.0, 2.0]}}, verdicts=[good, bad],
    )
    assert not rep.passed
    assert rep.verdict("b") is bad
    with pytest.raises(KeyError):
        rep.verdict("missing")
    rep.verdicts = [good]
    assert rep.passed


def test_short_time_ladder_must_descend():
    with pytest.raises(ValueError, match="descending"):
        run_short_time_convergence(ladder=(0.1, 0.2))
    with pytest.raises(ValueError, match="params.ladder must be a list of at least 2"):
        run_short_time_convergence(ladder=(0.1,))


def test_short_time_report_passes_and_tabulates():
    rep = small_short_time()
    assert rep.scenario == "short-time-convergence"
    assert rep.passed
    names = {v.name for v in rep.verdicts}
    assert names == {
        "asymmetry_gaps_monotone",
        "asymmetry_order_at_least_linear",
        "closed_form_matches_quadrature",
        "extracted_diag_matches_closed_form",
        "control_offdiag_survives",
    }
    asym = rep.tables["asymmetry"]
    assert len(asym["epsilon"]) == 2
    assert all(len(col) == 2 for col in asym.values())
    # halving the duration divides the off-diagonals by about four
    assert 2.0 < asym["max_mu12"][0] / asym["max_mu12"][1] < 8.0


def test_short_time_control_breaks_symmetry():
    rep = small_short_time()
    control = rep.verdict("control_offdiag_survives").value
    factorized = rep.tables["asymmetry"]["max_mu12"][0]
    # the non-factorized control keeps an off-diagonal part well above
    # anything the single-shape runs show; without this contrast the
    # symmetry checks would pass vacuously
    assert control >= 1e-3
    assert control > 2.0 * factorized


def test_short_time_rungs_take_the_steps_they_were_sized_for(monkeypatch):
    # every interval of every rung's grid takes the same number of steps,
    # 4000 per rung: 40 per interval at the default 101 points, 100 at 41
    from oscbath import scenarios

    calls = []
    original = scenarios.integrate_R

    def recording(spec, grid, dt=None, **kwargs):
        calls.append((grid, dt))
        return original(spec, grid, dt=dt, **kwargs)

    monkeypatch.setattr(scenarios, "integrate_R", recording)
    assert run_short_time_convergence().passed
    assert small_short_time().passed
    assert len(calls) == 6
    for (grid, dt), per_interval in zip(calls, [40] * 4 + [100] * 2):
        steps = _schedule(grid, dt)[0]
        assert steps.tolist() == [per_interval] * (grid.size - 1)


def test_short_time_deterministic():
    a = small_short_time()
    b = small_short_time()
    assert a.digest == b.digest
    assert a.tables == b.tables
    assert a.verdicts == b.verdicts


def test_rwa_structure_and_bridge():
    rep = run_rwa_check(rho_values=(0.3 + 0.2j,), n_modes=8,
                        window=(10.0, 20.0))
    assert rep.passed
    assert rep.verdict("closed_form_cross_diffusion_zero").value <= 1e-14
    assert rep.verdict("closed_form_diffusion_ratio_unit").value <= 1e-12
    cross = rep.tables["extraction"]["cross_over_norm"]
    assert cross[0] <= 1e-12            # constant frequency: exact
    assert 1e-6 < cross[1] < 0.05       # percent-level dip: small, not zero
    assert abs(rep.tables["bridge"]["chi_ratio"][0] - 1.0) <= 1e-12


def test_rwa_zero_temperature_boundary():
    rep = run_rwa_check(rho_values=(0.4j,), n_modes=6, window=(8.0, 14.0),
                        temperature=0.0)
    assert rep.passed
    assert rep.metadata["noise_factor"] == pytest.approx(1.0)
    # at the physicality boundary the kernel has a zero eigenvalue
    assert abs(rep.verdict("floor_kernel_psd").value) <= 1e-12


def test_mir_pulse_train_small():
    rep = run_mir_pulse_train(count=8)
    assert rep.passed
    ph = rep.tables["photons"]
    assert len(ph["pulse_index"]) == 9
    assert set(ph) == {"pulse_index", "time", "photons_y=0", "photons_y=0.5"}
    assert rep.verdict("asymmetry_changes_amplitude").value > 1e-4
    assert rep.verdict("no_drive_photons_constant").value <= 1e-10
    eff = rep.tables["effective_frequency"]
    assert max(abs(v) for v in eff["delta_dot"]) > 0.0
    units = rep.metadata["physical_units"]
    assert units["drive_period_ps"] == pytest.approx(200.0)
    assert units["recovery_time_ps"] == pytest.approx(30.0)


def test_rwa_rejects_bridge_and_depth_before_running():
    # a zero coupling left the bridged diffusion 0 and divided by it
    for nu in (0.0, -0.08):
        with pytest.raises(ValueError, match="nu_bridge must be > 0"):
            run_rwa_check(nu_bridge=nu)
    for depth in (1.0, 5.0, -5.0):
        with pytest.raises(ValueError, match="params.modulation_depth"):
            run_rwa_check(modulation_depth=depth)


@pytest.mark.parametrize("omega0", [0.5, 1.0, 2.5])
def test_rwa_depth_bound_is_the_one_system_spec_enforces(omega0):
    omegas = uniform_bath_frequencies(2, 0.2 * omega0, 3.0 * omega0)
    bath = bath_from_rwa(np.full(2, 0.3), omegas, Constant(0.1), omega0)

    def spec(depth):
        omega = Affine(
            _frequency_dip(omega0), scale=-depth * omega0, offset=omega0
        )
        return SystemSpec(omega=omega, bath=bath, t_max=6.0 / omega0)

    for depth in (1.0 - 1e-9, -(1.0 - 1e-9)):
        bind_params("rwa-check", {"modulation_depth": depth})
        spec(depth)
    with pytest.raises(ValueError, match="params.modulation_depth"):
        bind_params("rwa-check", {"modulation_depth": 1.0})
    # past the bound the dip takes omega through zero
    with pytest.raises(ValueError, match="must stay positive"):
        spec(1.001)


def test_profile_nested_past_the_recursion_limit_names_the_field():
    omega = {"kind": "gaussian-pulse", "amplitude": 1.0, "width": 0.1}
    for _ in range(5000):
        omega = {"kind": "pulse-train", "base": omega, "period": 1.0, "count": 1}
    with pytest.raises(ValueError, match="model.omega .* not a valid profile"):
        bind_params("mir-pulse-train", {"omega_profile": omega})


def test_mir_requires_two_splits():
    with pytest.raises(ValueError, match="model.y .* at least 2"):
        run_mir_pulse_train(y_values=(0.5,))


def test_mir_rejects_instant_rise_or_decay():
    # both divided by zero in the pulse normalisation
    for key in ("rise", "decay"):
        with pytest.raises(ValueError, match=f"params.{key} must be > 0"):
            run_mir_pulse_train(**{key: 0.0})


def test_mir_profile_override_is_graded_honestly():
    # freezing the frequency removes the parametric drive, so the
    # growth verdict must fail rather than being skipped
    rep = run_mir_pulse_train(count=6, omega_profile=Constant(1.0))
    assert not rep.verdict("undamped_photon_growth_monotone").passed
    assert not rep.passed


def test_mir_override_changes_digest():
    a = run_mir_pulse_train(count=6)
    b = run_mir_pulse_train(count=6, gamma_profile=Constant(0.001))
    assert a.digest != b.digest


class _CountingTrain(PulseTrain):
    """A pulse train that records the node values of every evaluation in a
    scenario run's body, not those of its parameter checks."""

    evaluated: list = []

    def values(self, ts):
        if profiles._store.get() is not None:
            type(self).evaluated.append(np.asarray(ts, dtype=float).tobytes())
        return super().values(ts)


def _counted_mir_run(monkeypatch, cap=None):
    """A 3-pulse mir run with one counting train as omega and gamma: the
    node sets it evaluated the train on, the report, and the table stores
    its runs opened."""
    if cap is not None:
        monkeypatch.setattr(profiles, "_SHARED_BYTES", cap)
    stores = []

    class Recorded(profiles._Store):
        def __init__(self):
            super().__init__()
            stores.append(self)

    monkeypatch.setattr(profiles, "_Store", Recorded)
    base = ExpPulse(1.0, center=0.4, decay=0.47, rise=0.05)
    train = _CountingTrain(base, period=np.pi / 2, count=3)
    _CountingTrain.evaluated = []
    rep = run_mir_pulse_train(count=3, omega_profile=train, gamma_profile=train)
    return _CountingTrain.evaluated, rep, stores


def test_mir_run_evaluates_its_train_once_per_node_set(monkeypatch):
    # The moment runs share their nodes, and so do the amplitude runs:
    # within one scenario run the train is evaluated once per node set.
    evaluated, rep, stores = _counted_mir_run(monkeypatch)
    assert len(stores) == 1 and stores[0].used > 0
    assert 0 < len(evaluated) == len(set(evaluated))
    # a second run opens its own store and evaluates the train again
    again, rep_again, _ = _counted_mir_run(monkeypatch)
    assert again == evaluated and rep_again.tables == rep.tables
    # with nothing kept, the same tables from more evaluations
    unshared, rep_unshared, stores = _counted_mir_run(monkeypatch, cap=0)
    assert stores[0].used == 0 and not stores[0].tables
    assert set(unshared) == set(evaluated) and len(unshared) > len(evaluated)
    assert rep_unshared.tables == rep.tables


def test_closure_small():
    rep = run_closure(coupling_scales=(0.1, 0.05), fine_points=401, t_max=4.0)
    assert rep.passed
    gaps = rep.tables["closure"]["max_rel_cov_gap"]
    assert gaps[0] > gaps[1]
    ratio = rep.tables["ratios"]["gap_ratio"][0]
    assert 2.0 <= ratio <= 8.0
    assert rep.tables["uncoupled"]["max_rel_cov_gap"][0] <= 1e-10


def test_closure_extracts_each_trajectory_once(monkeypatch):
    # drift and diffusion come from one extraction pass per propagated
    # trajectory: three coupling scales plus the uncoupled run
    from oscbath import scenarios

    propagated, extracted = [], []

    def propagating(*args, **kwargs):
        propagated.append(integrate(*args, **kwargs))
        return propagated[-1]

    def extracting(traj, *args, **kwargs):
        extracted.append(traj)
        return extract(traj, *args, **kwargs)

    integrate, extract = scenarios.integrate_R, scenarios.extract_reduced
    monkeypatch.setattr(scenarios, "integrate_R", propagating)
    monkeypatch.setattr(scenarios, "extract_reduced", extracting)
    report = run_closure()
    assert report.passed
    assert len(propagated) == 4
    assert len(extracted) == 4
    assert all(a is b for a, b in zip(extracted, propagated))
    # the sub-step splits every interval of the fine grid into the 8 steps
    # it was sized for, on the default 801 points and on 101
    for points, rep in ((801, report), (101, run_closure(fine_points=101))):
        fine = np.linspace(0.0, 5.0, points)
        steps = _schedule(fine, rep.metadata["sub_step"])[0]
        assert steps.tolist() == [8] * (points - 1)


def test_closure_powers_its_uncoupled_run_on_2x2_blocks(monkeypatch):
    # The uncoupled control has no coupling entries, so its pulsed nu is
    # never read: its propagator is the one powered run, on the stack of
    # the central oscillator's and the 4 bath modes' 2 x 2 blocks.
    from oscbath import propagate

    shapes = []

    def powering(z, ts, dt, T):
        shapes.append(T.shape)
        return power(z, ts, dt, T)

    power = propagate._powered_flow
    monkeypatch.setattr(propagate, "_powered_flow", powering)
    assert run_closure().passed
    assert shapes == [(5, 2, 2)]


def test_closure_validation():
    with pytest.raises(ValueError, match="descending"):
        run_closure(coupling_scales=(0.05, 0.1))
    with pytest.raises(ValueError, match="odd"):
        run_closure(coupling_scales=(0.1, 0.05), fine_points=400)


def test_fanout_matches_sequential_and_sorts(tmp_path, capsys):
    # A multi-scenario run writes the same files and digests as running
    # each scenario alone, and lists its entries by (scenario, digest)
    # whatever the request order.
    sections = {
        "closure": {
            "grid": {"t_max": 4.0, "steps": 401},
            "params": {"coupling_scales": [0.1, 0.05]},
        },
        "short-time-convergence": {
            "grid": {"steps": 401},
            "params": {"ladder": [0.2, 0.1]},
            "tolerances": {"diag_gap_limit": 0.25},
        },
    }

    def run(scenarios, name):
        config = {"scenario": list(scenarios)}
        for scenario in scenarios:
            for section, values in sections[scenario].items():
                config.setdefault(section, {}).update(values)
        cfg = tmp_path / f"{name}.yaml"
        cfg.write_text(yaml.safe_dump(config))
        out = tmp_path / name
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        meta = json.loads((out / "metadata.json").read_text())
        files = {
            p.name: p.read_bytes()
            for p in out.iterdir() if p.name != "metadata.json"
        }
        return meta["scenarios"], files

    both, both_files = run(["short-time-convergence", "closure"], "both")
    alone, alone_files = [], {}
    for scenario in ("closure", "short-time-convergence"):
        entries, files = run([scenario], scenario)
        alone += entries
        alone_files.update(files)
    capsys.readouterr()
    assert [e["scenario"] for e in both] == ["closure", "short-time-convergence"]
    assert [e["digest"] for e in both] == [e["digest"] for e in alone]
    assert "closure__closure.csv" in both_files
    assert both_files == alone_files
