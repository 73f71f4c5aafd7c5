"""Propagator integration against dense matrix exponentials and solve_ivp."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from oscbath import propagate
from oscbath import (
    Affine,
    BathSpec,
    build_A22,
    Constant,
    GaussianPulse,
    IntegrationError,
    SystemSpec,
    UnsupportedFormError,
    assemble_generator,
    coupling_layout_12,
    coupling_layout_21,
    default_time_step,
    expm_bath,
    free_central_R11,
    integrate_R,
    random_couplings,
    symplectic_defect,
    symplectic_unit,
    thermal_F,
    uniform_bath_frequencies,
)


def _coupled_spec(n=3, seed=1, nu=None, omega=None, t_max=6.0):
    omegas = uniform_bath_frequencies(n, 0.5, 2.5)
    U, V, G, Z = random_couplings(n, scale=0.6, seed=seed)
    bath = BathSpec(
        omegas=omegas, U=U, V=V, G=G, Z=Z,
        nu=nu if nu is not None else GaussianPulse(0.8, 2.0, 0.5),
        temperature=0.2,
    )
    return SystemSpec(
        omega=omega if omega is not None else Constant(1.0),
        bath=bath, t_max=t_max,
    )


def _uncoupled_spec(omegas, omega=None, t_max=10.0):
    n = len(omegas)
    bath = BathSpec(
        omegas=omegas, U=[0.0] * n, V=[0.0] * n, G=[0.0] * n, Z=[0.0] * n,
        nu=Constant(0.0),
    )
    return SystemSpec(
        omega=omega if omega is not None else Constant(1.0), bath=bath, t_max=t_max
    )


def _rk4_matrix(R, t, h, A_of_t):
    k1 = A_of_t(t) @ R
    k2 = A_of_t(t + 0.5 * h) @ (R + 0.5 * h * k1)
    k3 = A_of_t(t + 0.5 * h) @ (R + 0.5 * h * k2)
    k4 = A_of_t(t + h) @ (R + h * k3)
    return R + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _reference_R(spec, grid, dt):
    """R at every grid point from one RK4 map per step, with the generator
    assembled at every stage: the stepping integrate_R must reproduce."""
    bath = spec.bath
    n = bath.n
    dim = 2 * n + 2
    template = np.zeros((dim, dim))
    template[2:, 2:] = build_A22(bath)
    template[1, 0] = 1.0
    L12 = coupling_layout_12(bath)
    L21 = coupling_layout_21(bath)

    def A_of_t(t):
        A = template.copy()
        w = spec.omega.value(t)
        A[0, 1] = -w * w
        nut = bath.nu.value(t)
        if nut != 0.0:
            A[:2, 2:] = nut * L12
            A[2:, :2] = nut * L21
        return A

    R = np.eye(dim)
    out = [R]
    for t_lo, t_hi in zip(grid[:-1], grid[1:]):
        n_sub = max(1, math.ceil((t_hi - t_lo) / dt))
        h = (t_hi - t_lo) / n_sub
        t = t_lo
        for _ in range(n_sub):
            R = _rk4_matrix(R, t, h, A_of_t)
            t += h
        out.append(R)
    return np.array(out)


# ---------------------------------------------------------------------------
# bath propagator closed form


def test_expm_bath_frozen_example():
    # omega = 2 at a quarter of its period: pure rotation into the conjugate
    R = expm_bath(np.array([2.0]), math.pi / 4.0)
    np.testing.assert_allclose(R, [[0.0, -2.0], [0.5, 0.0]], atol=1e-15)


def test_expm_bath_matches_dense_expm():
    rng = np.random.default_rng(8)
    for n in (1, 3, 8):
        omegas = rng.uniform(0.2, 5.0, size=n)
        bath = BathSpec(
            omegas=omegas, U=[0] * n, V=[0] * n, G=[0] * n, Z=[0] * n,
            nu=Constant(0.0),
        )
        from oscbath import build_A22

        A22 = build_A22(bath)
        for t in (0.1, 1.7, 12.0):
            np.testing.assert_allclose(
                expm_bath(omegas, t), expm(A22 * t), atol=1e-10
            )


def test_expm_bath_is_symplectic_and_preserves_thermal_state():
    omegas = uniform_bath_frequencies(4, 0.3, 2.0)
    bath = BathSpec(
        omegas=omegas, U=[0] * 4, V=[0] * 4, G=[0] * 4, Z=[0] * 4,
        nu=Constant(0.0), temperature=0.7,
    )
    F = thermal_F(bath)
    J = symplectic_unit(4)[2:, 2:]
    for t in (0.5, 3.0, 20.0):
        M = expm_bath(omegas, t)
        assert symplectic_defect(M, J) < 1e-12
        np.testing.assert_allclose(M @ F @ M.T, F, atol=1e-12)


def test_symplectic_defect_equals_dense_formula_bitwise():
    # R^T J is formed by picking and negating columns; the norm must be
    # the very float the two dense products give.
    rng = np.random.default_rng(5)
    for n in (1, 4, 64):
        J = symplectic_unit(n)
        for scale in (1e-6, 1.0, 1e6):
            R = scale * rng.standard_normal((2 * n + 2, 2 * n + 2))
            assert symplectic_defect(R, J) == float(
                np.linalg.norm(R.T @ J @ R - J)
            )
    with pytest.raises(UnsupportedFormError):
        symplectic_defect(np.eye(4), np.ones((4, 4)))


# ---------------------------------------------------------------------------
# full propagator


def test_constant_generator_matches_expm():
    spec = _coupled_spec(nu=Constant(0.4))
    A = assemble_generator(spec, 0.0)
    traj = integrate_R(spec, np.array([0.0, 3.0]), dt=2e-3)
    np.testing.assert_allclose(traj[-1].full(), expm(A * 3.0), atol=1e-11)


def test_time_dependent_generator_matches_solve_ivp():
    omega = Affine(GaussianPulse(1.0, 3.0, 0.4), scale=0.04, offset=1.0)
    spec = _coupled_spec(omega=omega)
    n = 2 * spec.n_bath + 2

    def rhs(t, y):
        return (assemble_generator(spec, t) @ y.reshape(n, n)).ravel()

    sol = solve_ivp(
        rhs, (0.0, 6.0), np.eye(n).ravel(), rtol=1e-12, atol=1e-13, method="DOP853"
    )
    oracle = sol.y[:, -1].reshape(n, n)
    traj = integrate_R(spec, np.array([0.0, 6.0]))
    np.testing.assert_allclose(traj[-1].full(), oracle, atol=1e-8)
    assert traj.max_defect < 1e-10


def test_grid_composition_consistency():
    spec = _coupled_spec()
    grid2 = np.array([0.0, 2.5, 6.0])
    one_leg = integrate_R(spec, np.array([0.0, 6.0]), dt=0.01)
    two_leg = integrate_R(spec, grid2, dt=0.01)
    np.testing.assert_allclose(
        two_leg[-1].full(), one_leg[-1].full(), atol=1e-12
    )
    assert len(two_leg) == 3
    assert two_leg.ts[1] == 2.5


def test_zero_coupling_blocks_stay_exactly_zero():
    # N = 2 takes the stacked steps, N = 64 the direct ones.
    for omegas in ([0.7, 1.9], np.linspace(0.7, 1.9, 64)):
        spec = _uncoupled_spec(omegas)
        traj = integrate_R(spec, np.linspace(0.0, 5.0, 11), dt=5e-3)
        for state in traj:
            assert np.all(state.R12 == 0.0)
            assert np.all(state.R21 == 0.0)
        final = traj[-1]
        np.testing.assert_allclose(
            final.R22, expm_bath(np.asarray(omegas), 5.0), atol=1e-11
        )
        # constant central frequency: plain rotation with momentum weighting
        t = 5.0
        want = np.array(
            [[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]]
        )
        np.testing.assert_allclose(final.R11, want, atol=1e-11)


def test_quarter_period_rotation_frozen():
    spec = _uncoupled_spec([1.5])
    traj = integrate_R(spec, np.array([0.0, math.pi / 2.0]), dt=1e-3)
    np.testing.assert_allclose(
        traj[-1].R11, [[0.0, -1.0], [1.0, 0.0]], atol=1e-12
    )


def test_symplectic_defect_refines_at_high_order():
    spec = _coupled_spec(
        omega=Affine(GaussianPulse(1.0, 3.0, 0.4), scale=0.04, offset=1.0)
    )
    grid = np.array([0.0, 6.0])
    defects = [
        integrate_R(spec, grid, dt=dt).max_defect for dt in (0.02, 0.01, 0.005)
    ]
    assert defects[0] > defects[1] > defects[2]
    assert defects[0] / defects[1] > 8.0
    assert defects[1] / defects[2] > 8.0
    assert defects[2] < 1e-9


def test_defect_limit_raises_with_failure_time():
    stiff = BathSpec(
        omegas=[40.0], U=[0.5], V=[0.3], G=[0.2], Z=[0.1], nu=Constant(1.0)
    )
    spec = SystemSpec(omega=Constant(1.0), bath=stiff, t_max=10.0)
    with pytest.raises(IntegrationError, match="symplectic defect") as exc:
        integrate_R(spec, np.array([0.0, 10.0]), dt=0.5)
    assert exc.value.t is not None
    assert 0.0 < exc.value.t <= 10.0


def _step_forms(monkeypatch) -> list[str]:
    """Record which step form each block of integrate_R takes."""
    taken = []
    for name in ("_stacked_steps", "_direct_steps"):
        original = getattr(propagate, name)

        def recording(*args, _name=name, _original=original, **kwargs):
            taken.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(propagate, name, recording)
    return taken


def _stacks(n: int) -> bool:
    """True when a bath of n modes is stepped by stacked increments."""
    return 2 * n + 2 < propagate._DIRECT_MIN_DIM


def test_blocked_steps_match_per_step_reference(monkeypatch):
    # (a) time-dependent omega and nu on unequal intervals: blocks straddle
    # interval ends and hold steps of different lengths; (b) N = 64, where
    # a stacked block would hold a single step; (c) and (d) the same kind
    # of run just below and at the switch to the direct steps, over
    # several blocks.
    omega = Affine(GaussianPulse(1.0, 3.0, 0.4), scale=0.04, offset=1.0)
    unequal = np.array([0.0, 0.013, 0.4, 1.75, 1.7501, 3.3, 6.0])
    n_switch = propagate._DIRECT_MIN_DIM // 2 - 1
    assert _stacks(n_switch - 1) and not _stacks(n_switch)
    cases = [
        (_coupled_spec(omega=omega), unequal, 3e-3),
        (_coupled_spec(n=64, omega=omega), np.array([0.0, 0.05, 0.12]), 0.01),
        (_coupled_spec(n=n_switch - 1, omega=omega), unequal[:4], 3e-3),
        (_coupled_spec(n=n_switch, omega=omega), unequal[:4], 3e-3),
    ]
    taken = _step_forms(monkeypatch)
    for spec, grid, dt in cases:
        want = _reference_R(spec, grid, dt)
        taken.clear()
        traj = integrate_R(spec, grid, dt=dt)
        form = "_stacked_steps" if _stacks(spec.n_bath) else "_direct_steps"
        assert set(taken) == {form}
        got = np.array([state.full() for state in traj])
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_step_underflow_raises_with_failure_time():
    for n in (3, 64):
        spec = _coupled_spec(n=n)
        grid = np.array([0.0, 1.0, 1.0 + 1e-14])
        with pytest.raises(IntegrationError, match="step underflow") as exc:
            integrate_R(spec, grid, dt=0.01)
        assert exc.value.t == grid[2]


def test_non_finite_propagator_raises_with_failure_time():
    for n in (1, 64):
        stiff = BathSpec(
            omegas=np.linspace(40.0, 39.0, n), U=[0.5] * n, V=[0.3] * n,
            G=[0.2] * n, Z=[0.1] * n, nu=Constant(1.0),
        )
        spec = SystemSpec(omega=Constant(1.0), bath=stiff, t_max=100.0)
        grid = np.linspace(0.0, 100.0, 101)
        with np.errstate(over="ignore", invalid="ignore"):
            want = _reference_R(spec, grid, 0.5)
            with pytest.raises(IntegrationError, match="non-finite") as exc:
                integrate_R(spec, grid, dt=0.5, defect_limit=math.inf)
        first = np.flatnonzero(~np.isfinite(want).all(axis=(1, 2)))[0]
        assert 0.0 < exc.value.t < 100.0
        assert exc.value.t == grid[first]


# ---------------------------------------------------------------------------
# central-only fast path


def test_free_central_matches_full_integration():
    omega = Affine(GaussianPulse(1.0, 4.0, 0.6), scale=0.08, offset=1.0)
    spec = _uncoupled_spec([1.0], omega=omega)
    grid = np.linspace(0.0, 8.0, 17)
    fast = free_central_R11(spec, grid, dt=2e-3)
    traj = integrate_R(spec, grid, dt=2e-3)
    for k, state in enumerate(traj):
        np.testing.assert_allclose(fast[k], state.R11, atol=1e-12)
    # area preservation of the 2x2 flow
    dets = np.linalg.det(fast)
    np.testing.assert_allclose(dets, 1.0, atol=1e-10)


def test_free_central_vs_solve_ivp():
    omega = Affine(GaussianPulse(1.0, 4.0, 0.6), scale=0.08, offset=1.0)
    spec = _uncoupled_spec([1.0], omega=omega)

    def rhs(t, y):
        a, b, c, d = y
        w2 = omega.value(t) ** 2
        return [-w2 * c, -w2 * d, a, b]

    sol = solve_ivp(
        rhs, (0.0, 8.0), [1.0, 0.0, 0.0, 1.0], rtol=1e-12, atol=1e-13,
        method="DOP853",
    )
    oracle = sol.y[:, -1].reshape(2, 2)
    fast = free_central_R11(spec, np.array([0.0, 8.0]))
    np.testing.assert_allclose(fast[-1], oracle, atol=1e-9)


# ---------------------------------------------------------------------------
# step control and grid validation


def test_default_step_resolves_fastest_bath_mode():
    spec = _uncoupled_spec([3.0, 0.5])
    assert default_time_step(spec) <= (2.0 * math.pi / 3.0) / 400.0


def test_default_step_resolves_short_pulse():
    spec = _coupled_spec(nu=GaussianPulse(0.5, 1.0, 0.01))
    assert default_time_step(spec) <= 0.01


def test_grid_validation_errors():
    spec = _coupled_spec()
    with pytest.raises(ValueError):
        integrate_R(spec, np.array([1.0, 2.0]))  # must start at 0
    with pytest.raises(ValueError):
        integrate_R(spec, np.array([0.0, 2.0, 1.5]))  # not increasing
    with pytest.raises(ValueError):
        integrate_R(spec, np.array([0.0, 7.0]))  # beyond t_max


def test_state_round_trip():
    spec = _coupled_spec()
    traj = integrate_R(spec, np.array([0.0, 1.0]), dt=0.01)
    state = traj[-1]
    full = state.full()
    from oscbath import PropagatorState

    rebuilt = PropagatorState(state.t, full)
    np.testing.assert_array_equal(rebuilt.R11, state.R11)
    np.testing.assert_array_equal(rebuilt.R21, state.R21)
    assert rebuilt.n_bath == spec.n_bath
    # the blocks are views of the trajectory's read-only stack
    assert np.shares_memory(state.R11, traj.R)
    with pytest.raises(ValueError):
        traj[-1].R11[0, 0] = 2.0
