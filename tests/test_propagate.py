"""Propagator integration against dense matrix exponentials and solve_ivp."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

import oracles
from oscbath import propagate
from oscbath import (
    Affine,
    BathSpec,
    Constant,
    ExpPulse,
    GaussianPulse,
    IntegrationError,
    PiecewiseLinear,
    SystemSpec,
    bath_from_rwa,
    default_time_step,
    expm_bath,
    free_central_R11,
    integrate_R,
    random_couplings,
    rwa_couplings,
    symplectic_unit,
    thermal_F,
    uniform_bath_frequencies,
)


def _dense_defect(R, J):
    """|| R^T J R - J ||_F by two dense products: the defect's definition."""
    return float(np.linalg.norm(R.T @ J @ R - J))


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


def _rk4_matrix(R, t, h, spec):
    A = oracles.generator
    k1 = A(spec, t) @ R
    k2 = A(spec, t + 0.5 * h) @ (R + 0.5 * h * k1)
    k3 = A(spec, t + 0.5 * h) @ (R + 0.5 * h * k2)
    k4 = A(spec, t + h) @ (R + h * k3)
    return R + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _reference_R(spec, grid, dt):
    """R at every grid point from one RK4 map per step, with the dense
    generator J B(t) of the oracles at every stage: the stepping
    integrate_R must reproduce."""
    R = np.eye(2 * spec.bath.n + 2)
    out = [R]
    for t_lo, t_hi in zip(grid[:-1], grid[1:]):
        n_sub = max(1, math.ceil((t_hi - t_lo) / dt))
        h = (t_hi - t_lo) / n_sub
        t = t_lo
        for _ in range(n_sub):
            R = _rk4_matrix(R, t, h, spec)
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
        assert _dense_defect(M, J) < 1e-12
        np.testing.assert_allclose(M @ F @ M.T, F, atol=1e-12)


# ---------------------------------------------------------------------------
# full propagator


def test_constant_generator_matches_expm():
    spec = _coupled_spec(nu=Constant(0.4))
    A = oracles.generator(spec, 0.0)
    traj = integrate_R(spec, np.array([0.0, 3.0]), dt=2e-3)
    np.testing.assert_allclose(traj[-1].R, expm(A * 3.0), atol=1e-11)


def test_time_dependent_generator_matches_solve_ivp():
    omega = Affine(GaussianPulse(1.0, 3.0, 0.4), scale=0.04, offset=1.0)
    spec = _coupled_spec(omega=omega)
    n = 2 * spec.bath.n + 2

    def rhs(t, y):
        return (oracles.generator(spec, t) @ y.reshape(n, n)).ravel()

    sol = solve_ivp(
        rhs, (0.0, 6.0), np.eye(n).ravel(), rtol=1e-12, atol=1e-13, method="DOP853"
    )
    oracle = sol.y[:, -1].reshape(n, n)
    traj = integrate_R(spec, np.array([0.0, 6.0]))
    np.testing.assert_allclose(traj[-1].R, oracle, atol=1e-8)
    assert traj.max_defect < 1e-10


def test_grid_composition_consistency():
    spec = _coupled_spec()
    grid2 = np.array([0.0, 2.5, 6.0])
    one_leg = integrate_R(spec, np.array([0.0, 6.0]), dt=0.01)
    two_leg = integrate_R(spec, grid2, dt=0.01)
    np.testing.assert_allclose(
        two_leg[-1].R, one_leg[-1].R, atol=1e-12
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


def test_defect_limit_raises_with_failure_time(monkeypatch):
    stiff = BathSpec(
        omegas=[40.0], U=[0.5], V=[0.3], G=[0.2], Z=[0.1], nu=Constant(1.0)
    )
    spec = SystemSpec(omega=Constant(1.0), bath=stiff, t_max=15.0)
    with pytest.raises(IntegrationError, match="symplectic defect") as exc:
        integrate_R(spec, np.array([0.0, 10.0]), dt=0.5)
    assert exc.value.t is not None
    assert 0.0 < exc.value.t <= 10.0
    # The powered form's run is checked on its whole stack of grid points
    # at once, and names the first one past the limit, as the per-step
    # oracle finds it.  At h omega = 1/14 the RK4 map's own
    # defect, about (h omega)^6 / 72 per step, builds up over the grid.
    grid, dt = np.linspace(0.0, 2.0, 41), 0.05 / 28
    defects = np.array([
        _dense_defect(R, symplectic_unit(1))
        for R in _reference_R(spec, grid, dt)
    ])
    first = np.flatnonzero(defects > 1e-6)[0]
    assert 5 < first < 35
    # the crossing is far from roundoff, which could move it a point
    assert defects[first] > 1.005e-6 and defects[first - 1] < 0.995e-6
    taken = _step_forms(monkeypatch)
    with pytest.raises(IntegrationError, match="symplectic defect") as exc:
        integrate_R(spec, grid, dt=dt)
    assert taken == ["_powered_flow"]
    assert exc.value.t == grid[first]


def _step_forms(monkeypatch) -> list[str]:
    """Record which form each integrate_R run takes, once per run: the
    composed stacked increments or the powered map of linear_flow, or the
    direct (factored) steps."""
    taken = []
    for name in ("_composed_flow", "_direct_steps", "_powered_flow"):
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
    # several blocks; (e) blocks of 256 steps holding runs of 8-step
    # intervals broken by one of 3 steps, and an interval of 300 steps
    # that spans both blocks.
    omega = Affine(GaussianPulse(1.0, 3.0, 0.4), scale=0.04, offset=1.0)
    unequal = np.array([0.0, 0.013, 0.4, 1.75, 1.7501, 3.3, 6.0])
    n_switch = propagate._DIRECT_MIN_DIM // 2 - 1
    assert _stacks(n_switch - 1) and not _stacks(n_switch)
    # dt a power of two and grid points on its multiples: exact step counts
    runs = 2.0**-7 * np.cumsum([0] + [8] * 10 + [3] + [8] * 5 + [300] + [8] * 4)
    cases = [
        (_coupled_spec(omega=omega), unequal, 3e-3),
        (_coupled_spec(omega=omega), runs, 2.0**-7),
        (_coupled_spec(n=64, omega=omega), np.array([0.0, 0.05, 0.12]), 0.01),
        (_coupled_spec(n=n_switch - 1, omega=omega), unequal[:4], 3e-3),
        (_coupled_spec(n=n_switch, omega=omega), unequal[:4], 3e-3),
    ]
    taken = _step_forms(monkeypatch)
    for spec, grid, dt in cases:
        want = _reference_R(spec, grid, dt)
        taken.clear()
        traj = integrate_R(spec, grid, dt=dt)
        form = "_composed_flow" if _stacks(spec.bath.n) else "_direct_steps"
        assert set(taken) == {form}
        got = np.array([state.R for state in traj])
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _increments_both_ways(letters, h, values):
    """Increments of B steps whose stage generators are sum_l h v_l X_l,
    from the words of the letters and from the stages of _step_increments,
    whose fill writes each stage's whole generator."""
    k, d = letters.shape[:2]
    c = values * h
    W = propagate._words(letters).reshape(-1, d * d)
    words = propagate._word_increments(
        c, W, np.empty((len(W), h.size)), np.empty((h.size, d * d)))

    def fill(j, out):
        out[:] = np.einsum("lb,lmn->bmn", c[j], letters)

    stages = propagate._step_increments(
        h, np.zeros((d, d)), fill, np.empty((5, h.size, d, d)))
    return words.reshape(h.size, d, d), stages


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    d=st.integers(2, 10),
    k=st.integers(1, 3),
    steps=st.integers(1, 5),
    seed=st.integers(0, 2**16),
)
def test_word_increments_match_the_rk4_stages(d, k, steps, seed):
    # A random T (value 1) and k - 1 random letters with random values at
    # each of the four stages: the word expansion is the RK4 map.
    rng = np.random.default_rng(seed)
    letters = rng.uniform(-1.0, 1.0, (k, d, d))
    h = rng.uniform(0.01, 0.5, steps)
    values = rng.uniform(-2.0, 2.0, (4, k, steps))
    values[:, 0] = 1.0
    words, stages = _increments_both_ways(letters, h, values)
    assert np.max(np.abs(words - stages)) <= 1e-14 * np.max(np.abs(stages))
    # T and E block-diagonal, the coupling layout L only off the diagonal
    # blocks, and nu = 0 at every node: every word with L has coefficient
    # 0 and every other word is block-diagonal, so Q's off-diagonal
    # blocks are exactly 0.
    T = letters[0].copy()
    T[:2, 2:] = T[2:, :2] = 0.0
    E = np.zeros((d, d))
    E[0, 1] = 1.0
    L = rng.uniform(-1.0, 1.0, (d, d))
    L[:2, :2] = L[2:, 2:] = 0.0
    values = rng.uniform(-2.0, 2.0, (4, 3, steps))
    values[:, 0], values[:, 2] = 1.0, 0.0
    words, _ = _increments_both_ways(np.stack([T, E, L]), h, values)
    assert not words[:, :2, 2:].any() and not words[:, 2:, :2].any()


def test_equal_intervals_are_composed_run_by_run(monkeypatch):
    # closure's grid at N = 1: every interval takes 8 steps, so a block
    # of 256 steps, built by one _word_increments product, composes its
    # head, its run of 8-step intervals and its tail, at most three
    # _compose calls, not one per interval.
    fine = np.linspace(0.0, 5.0, 801)
    U, V, G, Z = random_couplings(1, scale=0.1, seed=9)
    bath = BathSpec(omegas=[1.0], U=U, V=V, G=G, Z=Z,
                    nu=GaussianPulse(1.0, 1.5, 0.3))
    spec = SystemSpec(omega=Constant(1.0), bath=bath, t_max=5.0)
    calls = {"_compose": 0, "_word_increments": 0}
    for name in calls:
        original = getattr(propagate, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(propagate, name, counting)
    integrate_R(spec, fine, dt=np.diff(fine).max() / 8.0)
    assert calls["_word_increments"] == 6400 // 256
    assert calls["_compose"] <= 3 * calls["_word_increments"]


def _flat(value: float, t_max: float) -> PiecewiseLinear:
    """A profile equal to ``value`` over [0, t_max] that is not a Constant,
    so integrate_R steps it instead of powering."""
    return PiecewiseLinear((-1.0, 2.0 * t_max), (value, value))


def test_powered_constant_generator_matches_stepped(monkeypatch):
    # N = 3 is stepped by stacked increments, N = 64 by the direct form;
    # unequal intervals give several distinct (h, n), one of them n = 1.
    grid = np.array([0.0, 0.002, 0.37, 1.0, 1.63, 2.26, 3.0])
    taken = _step_forms(monkeypatch)
    for n in (3, 64):
        spec = _coupled_spec(n=n, nu=Constant(0.4), omega=Constant(1.3))
        stepped = dataclasses.replace(
            spec, omega=_flat(1.3, spec.t_max),
            bath=dataclasses.replace(spec.bath, nu=_flat(0.4, spec.t_max)),
        )
        taken.clear()
        powered = integrate_R(spec, grid, dt=3e-3)
        assert taken == ["_powered_flow"]
        taken.clear()
        want = integrate_R(stepped, grid, dt=3e-3)
        form = "_composed_flow" if _stacks(n) else "_direct_steps"
        assert set(taken) == {form}
        scale = np.max(np.abs(want.R))
        assert np.max(np.abs(powered.R - want.R)) <= 1e-11 * scale
        # the defects, of order 1e-12 here, agree to roundoff
        np.testing.assert_allclose(
            powered.defects, want.defects, rtol=1e-2, atol=1e-14
        )


def test_powered_constant_generator_converges_at_fourth_order():
    # The powered map is the RK4 map, so halving dt cuts its distance
    # from the exact exponential about 2^4 = 16 times.
    spec = _coupled_spec(nu=Constant(0.4))
    grid = np.array([0.0, 1.0, 3.0])
    want = expm(oracles.generator(spec, 0.0) * 3.0)
    errors = [
        np.max(np.abs(integrate_R(spec, grid, dt=dt)[-1].R - want))
        for dt in (0.02, 0.01, 0.005)
    ]
    assert errors[2] > 1e-10  # well above roundoff
    for coarse, fine in zip(errors, errors[1:]):
        assert 14.0 < coarse / fine < 18.0


def test_constant_subclass_takes_the_stepped_form(monkeypatch):
    # A subclass may override value, as a counting profile does, and the
    # powered form never calls it; so only the exact type is powered.
    class Doubled(Constant):
        def value(self, t):
            return 2.0 * self.value_const

    grid = np.array([0.0, 0.5, 2.0])
    taken = _step_forms(monkeypatch)
    subclass = integrate_R(_coupled_spec(nu=Doubled(0.2)), grid, dt=5e-3)
    assert set(taken) == {"_composed_flow"}
    exact = integrate_R(_coupled_spec(nu=Constant(0.4)), grid, dt=5e-3)
    scale = np.max(np.abs(exact.R))
    assert np.max(np.abs(subclass.R - exact.R)) <= 1e-11 * scale


def test_step_underflow_raises_with_failure_time(monkeypatch):
    # a pulsed coupling is stepped, a constant one takes the powered form
    taken = _step_forms(monkeypatch)
    for n in (3, 64):
        for nu in (None, Constant(0.4)):
            spec = _coupled_spec(n=n, nu=nu)
            grid = np.array([0.0, 1.0, 1.0 + 1e-14])
            taken.clear()
            with pytest.raises(IntegrationError, match="step underflow") as exc:
                integrate_R(spec, grid, dt=0.01)
            assert exc.value.t == grid[2]
            assert ("_powered_flow" in taken) == (nu is not None)


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


def _pulsed_stiff_spec(n: int, amplitude: float) -> SystemSpec:
    """Slow modes under a strong coupling pulse at t = 10: the defect
    grows past 1e-6 on the pulse's rise, and R overflows near its peak."""
    bath = BathSpec(
        omegas=np.linspace(0.5, 0.45, n), U=[0.5] * n, V=[0.3] * n,
        G=[0.2] * n, Z=[0.1] * n, nu=GaussianPulse(amplitude, 10.0, 2.0),
    )
    return SystemSpec(omega=Constant(0.5), bath=bath, t_max=20.0)


def test_stepped_forms_raise_at_the_first_failing_point(monkeypatch):
    # N = 1 takes the stacked steps, N = 64 the direct ones.  The grid
    # points are checked after the whole grid has been stepped, past the
    # failing point and into overflow.
    grid = np.linspace(0.0, 20.0, 101)
    taken = _step_forms(monkeypatch)
    for n, amplitude in ((1, 1000.0), (64, 200.0)):
        spec = _pulsed_stiff_spec(n, amplitude)
        J = symplectic_unit(n)
        with np.errstate(over="ignore", invalid="ignore"):
            want = _reference_R(spec, grid, 0.1)
            finite = np.isfinite(want).all(axis=(1, 2))
            defects = [_dense_defect(R, J) for R in want]
        first_non_finite = np.flatnonzero(~finite)[0]
        first_over = np.flatnonzero(np.array(defects) > 1e-6)[0]
        assert 0 < first_over < first_non_finite
        taken.clear()
        with pytest.raises(IntegrationError, match="non-finite") as exc:
            integrate_R(spec, grid, dt=0.1, defect_limit=math.inf)
        assert exc.value.t == grid[first_non_finite]
        assert set(taken) == {"_composed_flow" if n == 1 else "_direct_steps"}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(IntegrationError, match="symplectic defect") as exc:
                integrate_R(spec, grid, dt=0.1)
        assert exc.value.t == grid[first_over]


class _Overflowing(Constant):
    """A Constant whose evaluation overflows in a term it then drops."""

    def values(self, ts):
        np.exp(np.full(np.shape(ts), 1e3))
        return super().values(ts)


def test_profile_warnings_reach_the_caller(monkeypatch):
    # The steps ignore overflow, which R shows as non-finite values; a
    # profile's own warning is not silenced with them, in either form.
    taken = _step_forms(monkeypatch)
    for n in (1, 64):
        with np.errstate(over="ignore"):  # the spec's checks evaluate nu
            spec = _coupled_spec(n=n, nu=_Overflowing(0.4))
        with pytest.warns(RuntimeWarning, match="overflow"):
            integrate_R(spec, np.array([0.0, 0.05]), dt=0.01)
    assert taken == ["_composed_flow", "_direct_steps"]


def test_symplectic_defect_equals_dense_formula_bitwise():
    # R^T J is formed by picking and negating columns; the norm must be
    # the very float the two dense products give, one chunk of the stack
    # at a time.  An F-ordered R^T J rounds differently in a few of these
    # 735 matrices.
    rng = np.random.default_rng(5)
    for n in (1, 2, 4, 8, 16, 40, 64):
        J = symplectic_unit(n)
        for scale in (1e-6, 1.0, 1e6):
            Rs = scale * rng.standard_normal((35, 2 * n + 2, 2 * n + 2))
            defects, finite = propagate._defects(
                Rs, J, *propagate._signed_columns(J))
            assert finite.all()
            assert defects.tolist() == [_dense_defect(R, J) for R in Rs]


def test_defects_are_the_symplectic_defect_bitwise(monkeypatch):
    # One case per form; at d = 28 the direct form checks several grid
    # points per chunk and at d = 130 one.
    grid = np.linspace(0.0, 3.0, 13)
    n_switch = propagate._DIRECT_MIN_DIM // 2 - 1
    cases = [
        (_coupled_spec(nu=Constant(0.4)), "_powered_flow"),
        (_coupled_spec(), "_composed_flow"),
        (_coupled_spec(n=n_switch), "_direct_steps"),
        (_coupled_spec(n=64), "_direct_steps"),
    ]
    taken = _step_forms(monkeypatch)
    for spec, form in cases:
        taken.clear()
        traj = integrate_R(spec, grid, dt=0.01)
        assert set(taken) == {form}
        J = symplectic_unit(spec.bath.n)
        assert traj.defects.tolist() == [_dense_defect(R, J) for R in traj.R]


def test_direct_form_roundoff_stays_at_the_stacked_forms(monkeypatch):
    # The direct form adds each step's increment to R: here 1.3e-15 of
    # max|R| from the stacked form after 800 steps.  Taking R <- P R
    # instead, with the mode rotation's alpha in place of alpha - 1, moved
    # R 2.1e-14.  The second case is rwa-check's first extraction run, the
    # d = 34 run of a default scenario that the direct form steps: 4,020
    # steps, 4.3e-15 of max|R|.
    omega = Affine(GaussianPulse(1.0, 3.0, 0.4), scale=0.04, offset=1.0)
    t_pulse = 0.05 / 3.0
    rwa = SystemSpec(
        omega=Constant(1.0),
        bath=bath_from_rwa(
            np.full(16, 0.3 + 0.2j), uniform_bath_frequencies(16, 0.2, 3.0),
            GaussianPulse(1.0, 0.5 * t_pulse, t_pulse / 6.0), 1.0, 0.5,
        ),
        t_max=1.1 * t_pulse,
    )
    cases = [
        (_coupled_spec(n=16, omega=omega), np.linspace(0.0, 5.0, 101),
         0.05 / 8),
        (rwa, np.linspace(0.0, t_pulse, 61), t_pulse / 4000.0),
    ]
    for spec, grid, dt in cases:
        runs = []
        for min_dim in (10**9, 0):
            monkeypatch.setattr(propagate, "_DIRECT_MIN_DIM", min_dim)
            runs.append(integrate_R(spec, grid, dt=dt).R)
        stacked, direct = runs
        assert (np.max(np.abs(direct - stacked))
                <= 1e-14 * np.max(np.abs(stacked)))


def test_defect_checks_stay_within_memory():
    # One step per interval puts 25 grid points in each block.  The check
    # of the whole trajectory takes a chunk of at most _BLOCK_BYTES at a
    # time, and a block's maps at most _BLOCK_BYTES: here 1.8 MB over R,
    # against 28 MB when a whole block's points were gathered at once.
    spec = _coupled_spec(n=64)
    grid = np.linspace(0.0, 1.0, 101)
    integrate_R(spec, grid[:3], dt=0.01)  # first-call allocations
    tracemalloc.start()
    try:
        traj = integrate_R(spec, grid, dt=0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - traj.R.nbytes <= 2e6


def test_defects_hold_one_chunk_at_a_time():
    # At d = 130 a chunk is one matrix.  A call on several peaks as a call
    # on one does; holding one chunk's R^T J and difference while building
    # the next read 1.65 times the one-matrix peak.
    J = symplectic_unit(64)
    cols = propagate._signed_columns(J)
    Rs = np.random.default_rng(3).standard_normal((6, 130, 130))
    peaks = []
    for stack in (Rs[:1], Rs):
        propagate._defects(stack, J, *cols)  # first-call allocations
        tracemalloc.start()
        try:
            propagate._defects(stack, J, *cols)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 4),
    couplings=st.sampled_from(("random", "rwa", "zero")),
    seed=st.integers(0, 2**16),
    omega0=st.floats(0.3, 3.0),
    pulse=st.tuples(
        st.floats(0.0, 1.5), st.floats(0.0, 3.0), st.floats(0.1, 1.5)
    ),
    spans=st.lists(st.floats(0.005, 1.0), min_size=1, max_size=4),
    dt=st.floats(0.01, 0.05),
)
def test_stacked_and_direct_forms_agree(
    n, couplings, seed, omega0, pulse, spans, dt
):
    rng = np.random.default_rng(seed)
    omegas = rng.uniform(0.3, 3.0, size=n)
    if couplings == "random":
        U, V, G, Z = random_couplings(n, scale=0.6, seed=seed)
    elif couplings == "rwa":
        rho = 0.4 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        U, V, G, Z = rwa_couplings(rho, omega0, omegas)
    else:
        U = V = G = Z = np.zeros(n)
    grid = np.cumsum([0.0, *spans])
    spec = SystemSpec(
        omega=Affine(GaussianPulse(1.0, 1.5, 0.5), scale=0.1, offset=omega0),
        bath=BathSpec(
            omegas=omegas, U=U, V=V, G=G, Z=Z, nu=GaussianPulse(*pulse)
        ),
        t_max=grid[-1],
    )
    # Exact Constant omega and nu are powered; the same values as
    # PiecewiseLinear profiles are stepped, in both forms.
    const = dataclasses.replace(
        spec, omega=Constant(omega0),
        bath=dataclasses.replace(spec.bath, nu=Constant(pulse[0])),
    )
    flat = dataclasses.replace(
        spec, omega=_flat(omega0, grid[-1]),
        bath=dataclasses.replace(spec.bath, nu=_flat(pulse[0], grid[-1])),
    )
    # Bath modes up to h omega = 0.15 may pass the default defect limit;
    # the forms are compared whatever their defect.
    runs, flats = [], []
    with pytest.MonkeyPatch.context() as patch:
        taken = _step_forms(patch)
        # every dimension stacked, then every dimension direct
        for min_dim, form in ((10**9, "_composed_flow"), (0, "_direct_steps")):
            patch.setattr(propagate, "_DIRECT_MIN_DIM", min_dim)
            taken.clear()
            runs.append(integrate_R(spec, grid, dt, defect_limit=math.inf).R)
            flats.append(integrate_R(flat, grid, dt, defect_limit=math.inf).R)
            assert set(taken) == {form}
        taken.clear()
        powered = integrate_R(const, grid, dt, defect_limit=math.inf).R
        assert taken == ["_powered_flow"]
    stacked, direct = runs
    assert np.max(np.abs(stacked - direct)) <= 1e-13 * np.max(np.abs(stacked))
    if couplings == "zero":
        for R in runs:
            assert not R[:, :2, 2:].any() and not R[:, 2:, :2].any()
    for R in flats:
        assert np.max(np.abs(powered - R)) <= 1e-11 * np.max(np.abs(R))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 4),
    couplings=st.sampled_from(("random", "rwa")),
    seed=st.integers(0, 2**16),
    omega0=st.floats(0.3, 3.0),
    amplitude=st.floats(0.2, 1.5),
    pulse=st.one_of(
        st.builds(GaussianPulse, st.just(1.0), st.floats(0.0, 3.0),
                  st.floats(0.2, 1.5)),
        # the onset no later than t = 0, so that nu is smooth on the run
        st.builds(ExpPulse, st.just(1.0), st.floats(-1.0, 0.0),
                  st.floats(0.3, 2.0), st.floats(0.0, 1.0)),
    ),
    log2_dt=st.integers(-4, -3),
    steps=st.lists(st.integers(1, 6), min_size=1, max_size=4),
)
def test_symplectic_defect_of_every_form_falls_as_dt4(
    n, couplings, seed, omega0, amplitude, pulse, log2_dt, steps
):
    # Grid points on multiples of dt = 2^-m, so that halving dt halves
    # every step.  RK4's defect falls about 2^5 = 32 times per halving
    # (31.4 to 32.0 over these draws, at defects of 2e-7 to 2e-3); a dt^4
    # bound asks for 2^3 = 8, above a roundoff floor.
    rng = np.random.default_rng(seed)
    omegas = rng.uniform(0.3, 3.0, size=n)
    if couplings == "random":
        U, V, G, Z = random_couplings(n, scale=0.6, seed=seed)
    else:
        rho = 0.4 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        U, V, G, Z = rwa_couplings(rho, omega0, omegas)
    dt = 2.0**log2_dt
    grid = dt * np.cumsum([0.0, *steps])
    bath = BathSpec(omegas=omegas, U=U, V=V, G=G, Z=Z,
                    nu=Affine(pulse, scale=amplitude))
    spec = SystemSpec(
        omega=Affine(GaussianPulse(1.0, 1.5, 0.5), scale=0.1, offset=omega0),
        bath=bath, t_max=grid[-1],
    )
    const = dataclasses.replace(
        spec, omega=Constant(omega0),
        bath=dataclasses.replace(bath, nu=Constant(amplitude)),
    )
    forms = (
        (spec, 10**9, "_composed_flow"),
        (spec, 0, "_direct_steps"),
        (const, 10**9, "_powered_flow"),
    )
    with pytest.MonkeyPatch.context() as patch:
        taken = _step_forms(patch)
        for case, min_dim, form in forms:
            patch.setattr(propagate, "_DIRECT_MIN_DIM", min_dim)
            taken.clear()
            coarse, fine = (
                integrate_R(case, grid, h, defect_limit=math.inf).max_defect
                for h in (dt, dt / 2.0)
            )
            assert taken == [form] * 2
            assert fine <= coarse / 8.0 + 1e-13, form


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
    for grid in ([0.0, math.nan], [0.0, 1.0, math.nan]):
        with pytest.raises(ValueError, match="finite"):
            integrate_R(spec, np.array(grid))


def test_state_round_trip():
    spec = _coupled_spec()
    traj = integrate_R(spec, np.array([0.0, 1.0]), dt=0.01)
    state = traj[-1]
    from oscbath import PropagatorState

    rebuilt = PropagatorState(state.t, state.R)
    np.testing.assert_array_equal(rebuilt.R11, state.R11)
    np.testing.assert_array_equal(rebuilt.R21, state.R21)
    # the blocks are views of the trajectory's read-only stack
    assert np.shares_memory(state.R11, traj.R)
    with pytest.raises(ValueError):
        traj[-1].R11[0, 0] = 2.0
