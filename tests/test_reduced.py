"""Reduced Gaussian states and exact local-generator extraction.

Two independent oracles back the extraction:

* the joint route: propagate the full (system + reservoir) covariance and
  read off the corner block, which must match `evolve_gaussian` exactly;
* a classical Monte-Carlo over joint Gaussian initial conditions, which
  must match within sampling error.

The transport identity d(cov)/dt = A cov + cov A^T + 2 D then ties the
extracted drift and diffusion to the same states.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oscbath import (
    Affine,
    BathSpec,
    CentralGaussian,
    Constant,
    GaussianPulse,
    IntegrationError,
    MomentTrajectory,
    SystemSpec,
    damping_rate,
    evolve_gaussian,
    extract_reduced,
    integrate_R,
    noise_matrix,
    photon_number,
    random_couplings,
    thermal_F,
    uniform_bath_frequencies,
)
from oscbath import reduced
from oscbath.reduced import COND_LIMIT
from oscbath.system import coupling_layout_12


def _spec(nu=None, temperature=0.4, t_max=4.0, n=2, seed=2):
    omegas = uniform_bath_frequencies(n, 0.6, 1.8)
    U, V, G, Z = random_couplings(n, scale=0.5, seed=seed)
    bath = BathSpec(
        omegas=omegas, U=U, V=V, G=G, Z=Z,
        nu=nu if nu is not None else GaussianPulse(0.6, 1.5, 0.4),
        temperature=temperature,
    )
    return SystemSpec(omega=Constant(1.0), bath=bath, t_max=t_max)


# ---------------------------------------------------------------------------
# state container


def test_vacuum_state():
    v = CentralGaussian.vacuum()
    np.testing.assert_allclose(v.cov, 0.5 * np.eye(2), atol=0.0)
    assert photon_number(v) == pytest.approx(0.0, abs=0.0)
    assert np.linalg.det(v.cov) >= 0.25 - 1e-9


def test_asymmetric_covariance_rejected():
    with pytest.raises(ValueError):
        CentralGaussian(mean=np.zeros(2), cov=np.array([[1.0, 0.2], [0.1, 1.0]]))


def test_photon_number_examples():
    r = 0.5
    squeezed = CentralGaussian(
        mean=np.zeros(2),
        cov=np.diag([0.5 * math.exp(2 * r), 0.5 * math.exp(-2 * r)]),
    )
    # sinh(r)^2 for a pure squeezed state
    assert photon_number(squeezed) == pytest.approx(0.2715403174076219, rel=1e-13)
    displaced = CentralGaussian(mean=np.array([0.0, 1.0]), cov=0.5 * np.eye(2))
    assert photon_number(displaced) == pytest.approx(0.5, abs=1e-15)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.tuples(*[st.floats(-1e3, 1e3)] * 5), min_size=1,
                max_size=20))
def test_photon_number_is_the_stacked_formula(states):
    # rows (m_p, m_x, c_pp, c_px, c_xx): one state's number has the bits
    # of the stacked number at its time
    rows = np.array(states)
    traj = MomentTrajectory(
        ts=np.arange(len(rows), dtype=float), means=rows[:, :2],
        covs=rows[:, (2, 3, 3, 4)].reshape(-1, 2, 2),
    )
    assert [photon_number(CentralGaussian(m, c)) for m, c in zip(
        traj.means, traj.covs)] == traj.photons.tolist()


def test_purity_bound_flags_unphysical_covariance():
    # the uncertainty bound det cov >= 1/4
    ok = CentralGaussian(mean=np.zeros(2), cov=0.5 * np.eye(2))
    assert np.linalg.det(ok.cov) >= 0.25 - 1e-9
    too_sharp = CentralGaussian(mean=np.zeros(2), cov=0.3 * np.eye(2))
    assert not np.linalg.det(too_sharp.cov) >= 0.25 - 1e-9


# ---------------------------------------------------------------------------
# reduced state vs joint propagation


def test_marginal_matches_joint_block_propagation():
    spec = _spec()
    F = thermal_F(spec.bath)
    init = CentralGaussian.vacuum()
    traj = integrate_R(spec, np.linspace(0.0, 4.0, 9), dt=2e-3)
    n = 2 * spec.bath.n + 2
    Sigma0 = np.zeros((n, n))
    Sigma0[:2, :2] = init.cov
    Sigma0[2:, 2:] = F
    evo = evolve_gaussian(init, traj, F)
    assert len(evo.covs) == len(traj)
    for R, cov in zip(traj.R, evo.covs):
        joint = R @ Sigma0 @ R.T
        np.testing.assert_allclose(cov, joint[:2, :2], atol=1e-12)


def test_mean_transports_through_system_block():
    spec = _spec()
    F = thermal_F(spec.bath)
    init = CentralGaussian(mean=np.array([0.3, -1.1]), cov=0.5 * np.eye(2))
    traj = integrate_R(spec, np.array([0.0, 2.0]), dt=2e-3)
    out = evolve_gaussian(init, traj, F)
    np.testing.assert_allclose(
        out.means[-1], traj.R[-1, :2, :2] @ init.mean, atol=0.0
    )


def test_marginal_matches_classical_monte_carlo():
    spec = _spec()
    F = thermal_F(spec.bath)
    init = CentralGaussian.vacuum()
    traj = integrate_R(spec, np.array([0.0, 4.0]), dt=2e-3)
    exact = evolve_gaussian(init, traj, F).covs[-1]

    n = 2 * spec.bath.n + 2
    Sigma0 = np.zeros((n, n))
    Sigma0[:2, :2] = init.cov
    Sigma0[2:, 2:] = F
    rng = np.random.default_rng(123)
    xs = rng.multivariate_normal(
        np.zeros(n), Sigma0, size=200_000, method="cholesky"
    )
    sub = xs @ traj.R[-1].T[:, :2]
    emp = np.cov(sub.T)
    # standard error of a Gaussian covariance estimate
    se = np.sqrt(
        (np.outer(np.diag(emp), np.diag(emp)) + emp**2) / (sub.shape[0] - 1)
    )
    assert np.all(np.abs(emp - exact) <= 4.0 * se)


def test_reservoir_injection_grows_from_zero():
    spec = _spec()
    F = thermal_F(spec.bath)
    traj = integrate_R(spec, np.array([0.0, 2.0]), dt=2e-3)
    Mstar = extract_reduced(traj, spec, F).Mstar
    assert np.all(Mstar[0] == 0.0)
    M = Mstar[-1]
    assert np.trace(M) > 0.0
    np.testing.assert_allclose(M, M.T, atol=1e-15)


# ---------------------------------------------------------------------------
# extraction


def test_drift_reduces_to_free_block_without_coupling():
    spec = _spec(nu=Constant(0.0))
    F = thermal_F(spec.bath)
    grid = np.linspace(0.0, 4.0, 9)
    traj = integrate_R(spec, grid, dt=2e-3)
    red = extract_reduced(traj, spec, F)
    for t, A in zip(red.ts, red.A):
        np.testing.assert_allclose(A, oracles.central_block(spec.omega.value(t)), atol=1e-11)
    for D in red.D:
        np.testing.assert_allclose(D, 0.0, atol=1e-12)


def test_closed_form_condition_number_matches_svd():
    from oscbath.reduced import _condition_numbers

    rng = np.random.default_rng(5)
    mats = list(rng.normal(size=(200, 2, 2)))
    # rank one plus a perturbation: cond from about 1e2 to 1e12
    for u, v, e in zip(
        rng.normal(size=(200, 2)), rng.normal(size=(200, 2)),
        10.0 ** rng.uniform(-12.0, -2.0, 200),
    ):
        mats.append(np.outer(u, v) + e * rng.normal(size=(2, 2)))
    for M, got in zip(mats, _condition_numbers(np.array(mats))):
        want = np.linalg.cond(M)
        # both lose about cond * eps to roundoff
        assert got == pytest.approx(want, rel=1e-14 * want)
    singular = np.array([[[1.0, 2.0], [2.0, 4.0]], np.zeros((2, 2))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no 0/0 on the way to inf
        assert _condition_numbers(singular).tolist() == [math.inf, math.inf]


def _modulated_spec(n):
    U, V, G, Z = random_couplings(n, scale=0.5, seed=n)
    bath = BathSpec(
        omegas=uniform_bath_frequencies(n, 0.6, 1.8), U=U, V=V, G=G, Z=Z,
        nu=GaussianPulse(0.6, 1.5, 0.4), temperature=0.4,
    )
    omega = Affine(GaussianPulse(1.0, 1.0, 0.3), scale=-0.2, offset=1.0)
    return SystemSpec(omega=omega, bath=bath, t_max=3.0)


def _per_point(traj, spec, F, cond_limit):
    """(t, A, D) at every point the oracle keeps, one point at a time."""
    ws = spec.omega.values(traj.ts).tolist()
    nus = spec.bath.nu.values(traj.ts).tolist()
    L12 = coupling_layout_12(spec.bath)
    return [
        (state.t, oracles.drift_at(state, w, nu * L12),
         oracles.diffusion_at(state, F, nu * L12))
        for state, w, nu in zip(traj, ws, nus)
        if oracles.cond_2x2(state.R11) <= cond_limit
    ]


def _assert_close(got, want):
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("n", [1, 4, 16, 64])
def test_stacked_extraction_matches_per_point_oracle(n, monkeypatch):
    spec = _modulated_spec(n)
    F = thermal_F(spec.bath)
    traj = integrate_R(spec, np.linspace(0.0, 3.0, 13))
    want = _per_point(traj, spec, F, COND_LIMIT)
    assert len(want) == len(traj)
    drift = extract_reduced(traj, spec)
    ts, As = drift.ts, drift.A
    red = extract_reduced(traj, spec, F)
    ts_d, Ds = red.ts, red.D
    np.testing.assert_array_equal(ts, traj.ts)
    np.testing.assert_array_equal(ts_d, traj.ts)
    _assert_close(As, np.array([w[1] for w in want]))
    _assert_close(Ds, np.array([w[2] for w in want]))
    np.testing.assert_array_equal(red.A, As)
    np.testing.assert_array_equal(red.D, Ds)
    for Mstar, state in zip(red.Mstar, traj):
        np.testing.assert_array_equal(Mstar, state.R12 @ F @ state.R12.T)

    # one skipped point: the one with the largest cond(R11)
    conds = [oracles.cond_2x2(state.R11) for state in traj]
    k = int(np.argmax(conds))
    limit = 0.5 * (conds[k] + max(c for c in conds if c < conds[k]))
    monkeypatch.setattr(reduced, "COND_LIMIT", limit)
    with pytest.warns(RuntimeWarning, match="near-singular") as caught:
        drift = extract_reduced(traj, spec)
    ts, As = drift.ts, drift.A
    assert [str(w.message) for w in caught] == [
        f"R11 near-singular at t={traj.ts[k]:.6g} (cond={conds[k]:.3e});"
        " point skipped"
    ]
    want = _per_point(traj, spec, F, limit)
    np.testing.assert_array_equal(ts, [w[0] for w in want])
    assert ts.size == len(traj) - 1 and traj.ts[k] not in ts
    _assert_close(As, np.array([w[1] for w in want]))
    with pytest.warns(RuntimeWarning, match="near-singular"):
        Ds = extract_reduced(traj, spec, F).D
    _assert_close(Ds, np.array([w[2] for w in want]))
    monkeypatch.undo()

    # a skew failure: both raise at the same, first failing time
    F_skew = F.copy()
    F_skew[0, 1] += 0.3
    with pytest.raises(IntegrationError, match="diffusion asymmetry") as exc:
        extract_reduced(traj, spec, F_skew)
    with pytest.raises(IntegrationError) as oracle_exc:
        _per_point(traj, spec, F_skew, COND_LIMIT)
    assert exc.value.t == oracle_exc.value.t > 0.0


def test_nan_diffusion_raises_at_its_first_point():
    # a NaN in F makes the skew and its bound NaN, which fail no
    # comparison; the check counts them as a failure
    spec = _modulated_spec(3)
    traj = integrate_R(spec, np.linspace(0.0, 3.0, 21))
    F = thermal_F(spec.bath).copy()
    F[0, 0] = math.nan
    with pytest.raises(IntegrationError, match="diffusion asymmetry") as exc:
        extract_reduced(traj, spec, F)
    assert exc.value.t == traj.ts[0]


@pytest.mark.parametrize("n", [1, 16, 64])
def test_stacked_gaussian_matches_per_point_oracle(n):
    spec = _modulated_spec(n)
    F = thermal_F(spec.bath)
    init = CentralGaussian(
        mean=np.array([0.3, -1.1]), cov=np.array([[0.7, 0.1], [0.1, 0.4]])
    )
    traj = integrate_R(spec, np.linspace(0.0, 3.0, 13))
    evo = evolve_gaussian(init, traj, F)
    np.testing.assert_array_equal(evo.ts, traj.ts)
    assert len(evo.covs) == len(traj)
    for state, mean, cov in zip(traj, evo.means, evo.covs):
        want = oracles.gaussian_at(init, state, F)
        np.testing.assert_array_equal(mean, want.mean)
        np.testing.assert_array_equal(cov, want.cov)


def test_drift_correction_is_the_drift_less_its_free_block():
    spec = _modulated_spec(4)
    traj = integrate_R(spec, np.linspace(0.0, 3.0, 13))
    red = extract_reduced(traj, spec)
    diag = (slice(None), [0, 1], [0, 1])
    np.testing.assert_array_equal(red.mu[diag], red.A[diag])
    assert np.abs(red.mu).max() > 0.0
    # A - mu is A11 = [[0, -w^2], [1, 0]] within one ulp
    w = spec.omega.values(red.ts)
    A11 = np.zeros_like(red.A)
    A11[:, 0, 1], A11[:, 1, 0] = -w * w, 1.0
    assert np.all(np.abs(red.A - red.mu - A11) <= np.spacing(np.abs(A11)))


def test_ill_conditioned_points_are_skipped_with_a_warning(monkeypatch):
    spec = _spec()
    traj = integrate_R(spec, np.array([0.0, 0.5, 1.0]), dt=2e-3)
    # every condition number is at least 1
    monkeypatch.setattr(reduced, "COND_LIMIT", 0.5)
    with pytest.warns(RuntimeWarning, match="near-singular"):
        red = extract_reduced(traj, spec)
    ts, As = red.ts, red.A
    assert ts.size == 0 and As.size == 0


def test_diffusion_asymmetry_raises_with_failure_time():
    # A non-symmetric reservoir covariance makes the two diffusion terms
    # disagree at the first point where R12 and nu are non-zero.
    spec = _spec()
    grid = np.array([0.0, 0.5, 1.0])
    traj = integrate_R(spec, grid, dt=2e-3)
    F = thermal_F(spec.bath)
    F[0, 1] += 0.3
    with pytest.raises(IntegrationError, match="diffusion asymmetry") as exc:
        extract_reduced(traj, spec, F)
    assert exc.value.t == grid[1]


def test_diffusion_vanishes_at_start():
    spec = _spec()
    F = thermal_F(spec.bath)
    traj = integrate_R(spec, np.array([0.0, 1.0]), dt=2e-3)
    Ds = extract_reduced(traj, spec, F).D
    np.testing.assert_allclose(Ds[0], 0.0, atol=1e-14)


def test_extraction_satisfies_covariance_transport():
    spec = _spec()
    F = thermal_F(spec.bath)
    init = CentralGaussian.vacuum()
    fine = np.linspace(0.0, 4.0, 401)
    traj = integrate_R(spec, fine, dt=2e-3)
    red = extract_reduced(traj, spec, F)
    assert len(red) == fine.size
    covs = evolve_gaussian(init, traj, F).covs
    h = fine[1] - fine[0]
    for k in range(5, 396, 40):
        dcov = (covs[k + 1] - covs[k - 1]) / (2.0 * h)
        rhs = red.A[k] @ covs[k] + covs[k] @ red.A[k].T + 2.0 * red.D[k]
        np.testing.assert_allclose(dcov, rhs, atol=1e-4)


def test_extracted_gamma_consistent_with_drift():
    spec = _spec()
    F = thermal_F(spec.bath)
    traj = integrate_R(spec, np.linspace(0.0, 4.0, 9), dt=2e-3)
    red = extract_reduced(traj, spec, F)
    K = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for t, A, D, X, gamma in zip(red.ts, red.A, red.D, red.X, red.gamma):
        assert gamma == -0.5 * (A[0, 0] + A[1, 1])
        assert gamma == pytest.approx(
            -0.5 * np.trace(A - oracles.central_block(spec.omega.value(t))), abs=1e-15
        )
        np.testing.assert_array_equal(X, 2.0 * D + 1j * gamma * K)


# ---------------------------------------------------------------------------
# noise kernel algebra


def test_noise_matrix_frozen_example():
    X = noise_matrix(np.diag([0.05, 0.05]), 0.1)
    want = np.array([[0.1, 0.1j], [-0.1j, 0.1]])
    np.testing.assert_allclose(X, want, atol=0.0)


def test_noise_matrix_identities():
    rng = np.random.default_rng(5)
    for _ in range(10):
        Draw = rng.normal(size=(2, 2))
        D = 0.5 * (Draw + Draw.T)
        gamma = float(rng.uniform(0.0, 1.0))
        X = noise_matrix(D, gamma)
        np.testing.assert_allclose(X + X.T, 4.0 * D, atol=1e-15)
        assert X[0, 1] - X[1, 0] == pytest.approx(2j * gamma, abs=1e-15)
        np.testing.assert_allclose(X, X.conj().T, atol=0.0)  # Hermitian


def test_damping_rate_frozen_example():
    A11 = np.array([[0.0, -1.0], [1.0, 0.0]])
    A = A11 + np.array([[-0.3, 0.0], [0.0, -0.1]])
    assert damping_rate(A) == pytest.approx(0.2, abs=1e-15)
    assert damping_rate(A - A11) == pytest.approx(0.2, abs=1e-15)
