"""The linear-ODE stepping core against the scalar per-step loops.

``oscbath.propagate.linear_flow`` steps the local model's moments, its
amplitude eps and the free central block R11 as stacked RK4 increments,
composed per grid interval.  The loops in ``oracles.py`` take the same
steps one at a time on Python floats; the grid below has an interval
longer than one block of steps and grid points on block boundaries.
When every profile is exactly ``Constant`` each interval is instead one
power of the step map, checked here against the composed steps.
"""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from oscbath import (
    Affine,
    BathSpec,
    CentralGaussian,
    Constant,
    ExpPulse,
    GaussianPulse,
    IntegrationError,
    LangevinModel,
    SystemSpec,
    diffusion_matrix,
    drift_matrix,
    effective_frequency_squared,
    epsilon_solver,
    evolve_moments,
    free_central_R11,
    profile_from_dict,
)
from oscbath import propagate
from oscbath.propagate import _BLOCK_STEPS, rk4_blocks

_spec = importlib.util.spec_from_file_location(
    "perfbench_counts",
    Path(__file__).resolve().parent.parent / "perfbench" / "counts.py",
)
counts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(counts)

# dt is a power of two and the grid points are multiples of it, so every
# interval takes exactly the listed number of steps: 300 (more than one
# block), then 212, 3, 185, 68, 232, so that grid points 2 and 5 fall on
# the block boundaries 512 and 768.
DT = 2.0**-7
GRID = DT * np.array([0.0, 300.0, 512.0, 515.0, 700.0, 768.0, 1000.0])


def test_grid_straddles_blocks():
    assert _BLOCK_STEPS == 256
    steps = np.cumsum(np.ceil(np.diff(GRID) / DT))
    assert steps.tolist() == [300, 512, 515, 700, 768, 1000]
    assert counts.rk4_steps(GRID, DT) == 1000


def _model(y: float) -> LangevinModel:
    return LangevinModel(
        omega=Affine(GaussianPulse(1.0, 4.0, 0.6), scale=0.3, offset=1.0),
        gamma=GaussianPulse(0.2, 4.0, 0.9),
        y=y,
        G=1.3,
    )


def _close(got: np.ndarray, want: np.ndarray, rel: float = 1e-12) -> None:
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


@pytest.mark.parametrize("y", [0.0, 0.5])
def test_moments_match_scalar_loop(y):
    model = _model(y)
    init = CentralGaussian(mean=np.array([0.8, -0.4]), cov=np.diag([0.7, 0.5]))
    got = evolve_moments(model, init, GRID, dt=DT)
    want = oracles.integrate_moments(
        lambda t: drift_matrix(model, t),
        lambda t: diffusion_matrix(model, t),
        init, GRID, dt=DT,
    )
    np.testing.assert_array_equal(got.ts, want.ts)
    _close(got.means, want.means)
    _close(got.covs, want.covs)


@pytest.mark.parametrize("y", [0.0, 0.5])
def test_epsilon_matches_scalar_loop(y):
    model = _model(y)
    sol = epsilon_solver(model, GRID, dt=DT)
    eps, deps, drift = oracles.epsilon(
        lambda t: effective_frequency_squared(model, t),
        model.omega0, GRID, DT, 1e-8,
    )
    _close(sol.eps, eps)
    _close(sol.eps_dot, deps)
    assert sol.wronskian_drift < 1e-10 and drift < 1e-10


def test_free_central_R11_matches_scalar_loop():
    omega = Affine(GaussianPulse(1.0, 4.0, 0.6), scale=0.3, offset=1.0)
    bath = BathSpec(
        omegas=[1.5], U=[0.0], V=[0.0], G=[0.0], Z=[0.0], nu=Constant(0.0)
    )
    spec = SystemSpec(omega=omega, bath=bath, t_max=float(GRID[-1]))
    _close(
        free_central_R11(spec, GRID, dt=DT),
        oracles.free_R11(omega.value, GRID, DT),
    )


def _flow_forms(monkeypatch) -> list[str]:
    """Record which form each linear_flow call takes: the stepped form
    schedules its steps by rk4_blocks, the powered form is _powered_flow."""
    taken = []
    for name in ("rk4_blocks", "_powered_flow"):
        original = getattr(propagate, name)

        def recording(*args, _name=name, _original=original):
            taken.append(_name)
            return _original(*args)

        monkeypatch.setattr(propagate, name, recording)
    return taken


class _Stepped(Constant):
    """A Constant that linear_flow steps: only the exact type is powered."""


def test_vacuum_is_an_exact_fixed_point(monkeypatch):
    # Under omega = 1 and gamma = 0 the vacuum, and every thermal state
    # c I, is a fixed point of the moment equations in floating point too:
    # every increment, and so every power of one, annihilates it exactly.
    # Applying P = I + Q instead rounds c (1 + Q_pp), which moves c = 0.75
    # by an ulp.
    taken = _flow_forms(monkeypatch)
    model = LangevinModel(omega=Constant(1.0), gamma=Constant(0.0))
    for c in (0.5, 0.75, 1.3):
        state = CentralGaussian(mean=np.zeros(2), cov=c * np.eye(2))
        for grid in (GRID, np.linspace(0.0, 50.0, 7)):
            out = evolve_moments(model, state, grid, dt=4e-3)
            np.testing.assert_array_equal(
                out.covs, np.broadcast_to(c * np.eye(2), out.covs.shape)
            )
            np.testing.assert_array_equal(out.means, 0.0)
    out = evolve_moments(model, CentralGaussian.vacuum(), GRID, dt=4e-3)
    np.testing.assert_array_equal(out.photons, 0.0)
    assert set(taken) == {"_powered_flow"}


_OMEGA = st.floats(0.3, 3.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    omega=_OMEGA,
    gamma=st.floats(0.0, 0.5),
    y=st.one_of(st.just(0.0), st.floats(-0.9, 0.9)),
    G=st.floats(1.0, 2.0),
    dt=st.floats(0.01, 0.1),
    spans=st.lists(st.floats(0.05, 2.0), min_size=1, max_size=4),
    short=st.floats(0.01, 1.0),
    at=st.integers(0, 4),
)
def test_powered_flow_matches_composed_steps(
    omega, gamma, y, G, dt, spans, short, at
):
    # The same generator through both forms: exact Constants are powered,
    # the _Stepped subclass is stepped.  The grid's intervals are unequal,
    # and one of them, shorter than dt, is a single step.
    spans.insert(min(at, len(spans)), short * dt)
    grid = np.cumsum([0.0, *spans])
    init = CentralGaussian(mean=np.array([0.8, -0.4]), cov=np.diag([0.7, 0.5]))
    bath = BathSpec(
        omegas=[1.5], U=[0.0], V=[0.0], G=[0.0], Z=[0.0], nu=Constant(0.0)
    )
    runs = {}
    with pytest.MonkeyPatch.context() as patch:
        taken = _flow_forms(patch)
        for kind in (Constant, _Stepped):
            model = LangevinModel(
                omega=kind(omega), gamma=kind(gamma), y=y, omega0=omega, G=G
            )
            spec = SystemSpec(omega=kind(omega), bath=bath, t_max=grid[-1])
            taken.clear()
            moments = evolve_moments(model, init, grid, dt=dt)
            # RK4's own Wronskian drift at h omega up to 0.3 is not checked
            sol = epsilon_solver(model, grid, dt=dt, wronskian_tol=math.inf)
            runs[kind] = (
                moments.means, moments.covs, sol.eps, sol.eps_dot,
                free_central_R11(spec, grid, dt=dt),
            )
            form = "_powered_flow" if kind is Constant else "rk4_blocks"
            assert taken == [form] * 3
    for got, want in zip(runs[Constant], runs[_Stepped]):
        _close(got, want, 1e-11)


def test_step_count_guard_holds_in_both_forms(monkeypatch):
    # ceil(span / dt) at dt = 1e-300 is far past 2^53 steps; its conversion
    # to an integer count would overflow, so both forms refuse it.
    taken = _flow_forms(monkeypatch)
    forms = ((Constant, "_powered_flow"), (_Stepped, "rk4_blocks"))
    for kind, form in forms:
        model = LangevinModel(omega=kind(1.0), gamma=kind(0.1))
        taken.clear()
        with pytest.raises(ValueError, match="needs too many steps"):
            evolve_moments(model, CentralGaussian.vacuum(), GRID, dt=1e-300)
        assert taken == [form]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid:RuntimeWarning")
def test_non_finite_moments_raise_at_the_oracle_time():
    # h omega = 10 is far outside RK4's stability region: the moments grow
    # by about 1.6e5 per step until they overflow.
    model = LangevinModel(omega=Constant(10.0), gamma=Constant(0.0))
    init = CentralGaussian.vacuum()
    grid = np.arange(0.0, 400.0, 5.0)
    with pytest.raises(IntegrationError, match="non-finite") as want:
        oracles.integrate_moments(
            lambda t: drift_matrix(model, t),
            lambda t: diffusion_matrix(model, t),
            init, grid, dt=1.0,
        )
    with pytest.raises(IntegrationError, match="non-finite") as got:
        evolve_moments(model, init, grid, dt=1.0)
    assert grid[1] < got.value.t == want.value.t < grid[-1]


def test_wronskian_violation_raises_at_the_oracle_time():
    model = _model(0.5)
    grid = np.linspace(0.0, 40.0, 81)
    args = (model.omega0, grid, 0.2, 1e-5)
    with pytest.raises(IntegrationError) as want:
        oracles.epsilon(lambda t: effective_frequency_squared(model, t), *args)
    with pytest.raises(IntegrationError, match="Wronskian") as got:
        epsilon_solver(model, grid, dt=0.2, wronskian_tol=1e-5)
    assert grid[1] < got.value.t == want.value.t < grid[-1]


# Profile kinds of PROFILE_KINDS, with bounded fields, that are smooth
# within every step of a grid whose points are multiples of 1/8: their
# kinks and onsets sit on that lattice, where a step ends.
_LATTICE = st.integers(0, 24).map(lambda k: k / 8.0)


def _knots(inner: list[float]):
    """Knots at 0, 4 (the longest run) and ``inner``, with their values."""
    times = sorted({0.0, 4.0, *inner})
    return st.fixed_dictionaries({"times": st.just(times), "values": st.lists(
        st.floats(-0.3, 0.3), min_size=len(times), max_size=len(times))})


_BASES = {
    "gaussian-pulse": st.fixed_dictionaries({
        "amplitude": st.floats(-0.3, 0.3), "center": st.floats(0.0, 3.0),
        "width": st.floats(0.3, 1.0)}),
    "exp-rise-decay-pulse": st.fixed_dictionaries({
        "amplitude": st.floats(-0.3, 0.3), "center": _LATTICE,
        "decay": st.floats(0.3, 2.0), "rise": st.floats(0.1, 1.0)}),
    "pulse-train": st.fixed_dictionaries({
        "base": st.fixed_dictionaries({
            "kind": st.just("gaussian-pulse"),
            "amplitude": st.floats(-0.3, 0.3), "center": st.floats(0.0, 1.0),
            "width": st.floats(0.2, 0.5)}),
        "count": st.integers(1, 4), "period": st.floats(0.5, 1.5)}),
    "piecewise-linear": st.lists(_LATTICE, max_size=3, unique=True).flatmap(
        _knots),
}


@st.composite
def _frequencies(draw):
    """omega0 and an omega of a profile kind around it."""
    omega0 = draw(st.floats(0.5, 2.0))
    kind = draw(st.sampled_from(["constant", *_BASES]))
    if kind == "constant":
        return omega0, profile_from_dict({"kind": kind, "value": omega0})
    base = profile_from_dict({"kind": kind, **draw(_BASES[kind])})
    return omega0, Affine(base, offset=omega0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    frequencies=_frequencies(),
    gamma=st.one_of(
        st.builds(GaussianPulse, st.floats(0.05, 0.5), st.floats(0.0, 3.0),
                  st.floats(0.3, 1.0)),
        # continuous, with its onset no later than t = 0
        st.builds(ExpPulse, st.floats(0.05, 0.5), st.floats(-1.0, 0.0),
                  st.floats(0.5, 2.0), st.floats(0.1, 1.0)),
    ),
    y=st.floats(-0.95, 0.95).filter(bool),
    log2_dt=st.integers(-4, -3),
    steps=st.lists(st.integers(1, 8), min_size=1, max_size=4),
)
def test_wronskian_drift_falls_as_dt4(frequencies, gamma, y, log2_dt, steps):
    # Grid points on multiples of dt = 2^-m, so halving dt halves every
    # step, and RK4's drift falls about 2^5 = 32 times (30.2 to 32.0 over
    # these draws, at drifts of 2e-10 to 9e-6); a dt^4 bound asks for 8.
    omega0, omega = frequencies
    model = LangevinModel(omega=omega, gamma=gamma, y=y, omega0=omega0)
    dt = 2.0**log2_dt
    grid = dt * np.cumsum([0.0, *steps])
    coarse, fine = (
        epsilon_solver(model, grid, dt=h, wronskian_tol=math.inf).wronskian_drift
        for h in (dt, dt / 2.0)
    )
    assert fine <= coarse / 8.0 + 1e-13
    # below the run's own drift, the first violating point is the oracle's
    tol = coarse / 4.0
    with pytest.raises(IntegrationError) as want:
        oracles.epsilon(lambda t: effective_frequency_squared(model, t),
                        omega0, grid, dt, tol)
    with pytest.raises(IntegrationError, match="Wronskian") as got:
        epsilon_solver(model, grid, dt=dt, wronskian_tol=tol)
    assert got.value.t == want.value.t


# ---------------------------------------------------------------------------
# the step schedule


@settings(max_examples=150, deadline=None)
@given(
    t0=st.floats(-100.0, 100.0),
    spans=st.lists(st.floats(1e-6, 5.0), min_size=1, max_size=12),
    dt=st.floats(1e-3, 2.0),
    block=st.integers(1, 300),
    fractions=st.sampled_from([(0.0, 0.5, 1.0), (0.0, 0.5, 0.5, 1.0)]),
)
def test_schedule_matches_sequential_loop(t0, spans, dt, block, fractions):
    ts = t0 + np.cumsum([0.0, *spans])
    assume(np.all(np.diff(ts) > 0.0))
    assume(counts.rk4_steps(ts, dt) <= 3000)
    got = list(rk4_blocks(ts, dt, fractions, block))
    want = list(oracles.rk4_blocks(ts, dt, fractions, block))
    assert len(got) == len(want)
    for (h, nodes, ends), (h0, nodes0, ends0) in zip(got, want):
        np.testing.assert_array_equal(h, h0)
        np.testing.assert_array_equal(nodes, nodes0)
        np.testing.assert_array_equal(ends, ends0)
    assert sum(len(b[0]) for b in got) == counts.rk4_steps(ts, dt)
