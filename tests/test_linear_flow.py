"""The linear-ODE stepping core against the scalar per-step loops.

``oscbath.propagate.linear_flow`` steps the local model's moments, its
amplitude eps and the free central block R11 as stacked RK4 increments,
composed per grid interval.  The loops in ``oracles.py`` take the same
steps one at a time on Python floats; the grid below has an interval
longer than one block of steps and grid points on block boundaries.
"""

from __future__ import annotations

import importlib.util
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
)
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


def test_vacuum_is_an_exact_fixed_point():
    # Under omega = 1 and gamma = 0 the vacuum, and every thermal state
    # c I, is a fixed point of the moment equations in floating point too:
    # every increment annihilates it exactly.  Applying P = I + Q instead
    # rounds c (1 + Q_pp), which moves c = 0.75 by an ulp.
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
