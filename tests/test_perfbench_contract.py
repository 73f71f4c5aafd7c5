"""The benchmark under perfbench/ binds the package by name: keep it working.

perfbench's tracer wraps oscbath functions at the names their callers bind
and reads their arguments by parameter name; its counts check the
Runge-Kutta sub-step rule against the package by counting profile
evaluations.  A rename, a changed signature or a change in how often the
integrators evaluate a profile breaks a traced benchmark run, so these
checks run with the tests.
"""

from __future__ import annotations

import functools
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("counts"), importlib.import_module("tracer")


def _bindings(tracer) -> dict:
    """Every attribute the tracer may replace, by owner and name."""
    from oscbath.perturb import NoiseSet
    from oscbath.profiles import TimeProfile
    from oscbath.scenarios import SCENARIOS

    owners = [
        importlib.import_module(f"oscbath.{name}")
        for name in tracer.LAYER_MODULES
    ]
    pending = [TimeProfile, NoiseSet]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        # classes defined elsewhere (tests, counts.py) come and go with gc
        if cls.__module__.startswith("oscbath."):
            owners.append(cls)
    out = {("SCENARIOS", k): v for k, v in SCENARIOS.items()}
    for owner in owners:
        for attr, value in vars(owner).items():
            out[(owner.__qualname__ if isinstance(owner, type)
                 else owner.__name__, attr)] = value
    return out


def test_counts_self_check(perfbench):
    counts, _ = perfbench
    assert counts.self_check() == []


def test_tracer_install_round_trips(perfbench):
    _, tracer = perfbench
    from oscbath import langevin, scenarios

    before = _bindings(tracer)
    tr = tracer.Tracer()
    try:
        tr.install()
        assert scenarios.evolve_moments is not langevin.evolve_moments
        # one traced scenario: the hooks bind the integrators' arguments
        tr.begin_iteration()
        report = scenarios.SCENARIOS["mir-pulse-train"](count=1)
        metrics = tr.end_iteration()
    finally:
        tr.uninstall()
    assert report.passed
    assert metrics["langevin.steps"] > 0
    # the integrators evaluate profiles on whole arrays of stage nodes
    assert metrics["profiles.points"] > metrics["profiles.calls"] > 0
    assert metrics["langevin.max_wronskian_drift"] > 0.0
    after = _bindings(tracer)
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []


def test_traced_rwa_check_counts_propagator_steps(perfbench, monkeypatch):
    # rwa-check propagates three times; the tracer's propagator hooks must
    # bind each call's grid and step.
    counts, tracer = perfbench
    from oscbath import scenarios
    from oscbath.propagate import default_time_step

    calls = []
    original = scenarios.integrate_R

    def recording(spec, grid, dt=None, **kwargs):
        calls.append((spec, grid, dt))
        return original(spec, grid, dt=dt, **kwargs)

    functools.update_wrapper(recording, original)
    monkeypatch.setattr(scenarios, "integrate_R", recording)
    before = _bindings(tracer)
    tr = tracer.Tracer()
    try:
        tr.install()
        tr.begin_iteration()
        report = scenarios.SCENARIOS["rwa-check"]()
        metrics = tr.end_iteration()
    finally:
        tr.uninstall()
    assert report.passed
    assert len(calls) == 3
    steps = sum(
        counts.rk4_steps(grid, default_time_step(spec) if dt is None else dt)
        for spec, grid, dt in calls
    )
    assert metrics["propagate.steps"] == steps > 0
    assert metrics["reduced.points"] > 0
    after = _bindings(tracer)
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []


def test_wide_bath_steps_evaluate_profiles_four_times(perfbench):
    # counts.self_check counts steps at N = 1; the benchmark's step counts
    # must also hold at N = 64, where integrate_R takes its direct steps.
    counts, _ = perfbench
    import numpy as np

    from oscbath.profiles import Constant
    from oscbath.propagate import integrate_R
    from oscbath.system import (
        BathSpec, SystemSpec, random_couplings, uniform_bath_frequencies,
    )

    omega = counts._counting_constant(1.0)
    U, V, G, Z = random_couplings(64, seed=3)
    bath = BathSpec(
        omegas=uniform_bath_frequencies(64), U=U, V=V, G=G, Z=Z,
        nu=Constant(0.2),
    )
    spec = SystemSpec(omega=omega, bath=bath, t_max=1.0)
    grid = np.array([0.0, 0.25, 0.3, 1.0])
    type(omega).calls = 0
    integrate_R(spec, grid, dt=2e-3)
    steps = counts.rk4_steps(grid, 2e-3)
    assert steps > 256  # more than one block of steps
    assert type(omega).calls == 4 * steps
