"""Local damped-oscillator model: moments, amplitude solution, sampling.

solve_ivp at tight tolerance is the oracle for the deterministic paths; the
stochastic ensemble is checked against the moment equations within its own
standard errors and for exact reproducibility for a given seed.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import solve_continuous_lyapunov

from oscbath import (
    Affine,
    CentralGaussian,
    Constant,
    ExpPulse,
    GaussianPulse,
    IntegrationError,
    LangevinModel,
    diffusion_matrix,
    drift_matrix,
    effective_frequency_squared,
    effective_frequency_terms,
    epsilon_solver,
    evolve_moments,
    evolve_moments_tabulated,
    photon_number,
    sample_trajectories,
    stationary_covariance,
)
from oscbath.scenarios import _unit_pulse_train
from oracles import integrate_moments


def _mir_train(y: float) -> tuple[LangevinModel, np.ndarray]:
    """The mir-pulse-train scenario's model at its defaults with six pulses,
    and its grid of pulse boundaries."""
    period = math.pi
    onset = 0.5 * period
    decay = 2.0 * math.pi * 30.0 / 400.0
    train = _unit_pulse_train(period, 6, onset, decay, decay / 6.0)
    model = LangevinModel(
        omega=Affine(train, scale=-1e-2, offset=1.0),
        gamma=Affine(train, scale=5e-3),
        y=y,
    )
    grid = np.concatenate(([0.0], onset + period * np.arange(7)))
    return model, grid


# ---------------------------------------------------------------------------
# model construction and drift/diffusion


def test_drift_matrix_symmetric_split():
    m = LangevinModel(omega=Constant(1.0), gamma=Constant(0.1))
    np.testing.assert_allclose(
        drift_matrix(m, 0.0), [[-0.1, -1.0], [1.0, -0.1]], atol=1e-15
    )


def test_drift_matrix_full_asymmetry():
    m = LangevinModel(omega=Constant(1.0), gamma=Constant(0.1), y=1.0)
    np.testing.assert_allclose(
        drift_matrix(m, 0.0), [[-0.2, -1.0], [1.0, 0.0]], atol=1e-15
    )
    assert m.gamma_p(0.0) == pytest.approx(0.2)
    assert m.gamma_x(0.0) == pytest.approx(0.0)


def test_diffusion_matrix_from_noise_set():
    # D = chi / 2 on the diagonal; gamma G / 2 balances the damping to the
    # stationary covariance (G/2) I at omega0 = 1
    m = LangevinModel(omega=Constant(1.0), gamma=Constant(0.1), G=1.4)
    np.testing.assert_allclose(
        diffusion_matrix(m, 0.0), np.diag([0.07, 0.07]), atol=1e-15
    )


def test_discontinuous_gamma_with_asymmetry_rejected():
    jump = ExpPulse(0.1, center=1.0, decay=0.5, rise=0.0)
    with pytest.raises(ValueError, match="rise"):
        LangevinModel(omega=Constant(1.0), gamma=jump, y=0.5)
    # symmetric split never differentiates gamma, so the jump is fine
    LangevinModel(omega=Constant(1.0), gamma=jump, y=0.0)
    # and a smoothed version is fine with the split
    smooth = ExpPulse(0.1, center=1.0, decay=0.5, rise=0.05)
    LangevinModel(omega=Constant(1.0), gamma=smooth, y=0.5)


def test_negative_gamma_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        LangevinModel(omega=Constant(1.0), gamma=Affine(Constant(1.0), scale=-0.1))


# ---------------------------------------------------------------------------
# effective frequency


def test_effective_frequency_reduces_to_omega_squared():
    om = Affine(GaussianPulse(1.0, 2.0, 0.3), scale=0.1, offset=1.0)
    m = LangevinModel(omega=om, gamma=GaussianPulse(0.2, 1.0, 0.4), y=0.0)
    for t in np.linspace(0.0, 4.0, 9):
        w = om.value(float(t))
        assert effective_frequency_squared(m, float(t)) == w * w


def test_effective_frequency_shift_frozen():
    m = LangevinModel(omega=Constant(1.0), gamma=Constant(0.1), y=1.0)
    # constant gamma: no derivative term, only -(y gamma)^2 survives
    assert effective_frequency_squared(m, 0.5) == pytest.approx(0.99, rel=1e-14)
    w2, ddot, d2 = effective_frequency_terms(m, 0.5)
    assert (w2, ddot, d2) == (
        pytest.approx(1.0),
        pytest.approx(0.0, abs=1e-10),
        pytest.approx(0.01),
    )


def test_effective_frequency_derivative_term():
    gam = GaussianPulse(0.2, 1.0, 0.4)
    m = LangevinModel(omega=Constant(1.0), gamma=gam, y=0.5)
    t = 0.8
    w2, ddot, d2 = effective_frequency_terms(m, t)
    assert ddot == pytest.approx(-0.5 * gam.derivative(t), rel=1e-6)
    assert effective_frequency_squared(m, t) == pytest.approx(
        w2 + ddot - d2, abs=1e-15
    )


# ---------------------------------------------------------------------------
# moment evolution


def test_moments_match_solve_ivp():
    gam = GaussianPulse(0.4, 1.0, 0.3)
    om = Affine(GaussianPulse(1.0, 2.0, 0.4), scale=0.05, offset=1.0)
    m = LangevinModel(omega=om, gamma=gam, G=1.3)
    init = CentralGaussian(mean=np.array([0.8, -0.4]), cov=np.diag([0.7, 0.5]))

    def rhs(t, yv):
        A = drift_matrix(m, t)
        D = diffusion_matrix(m, t)
        mp, mx, cpp, cpx, cxx = yv
        C = np.array([[cpp, cpx], [cpx, cxx]])
        dm = A @ [mp, mx]
        dC = A @ C + C @ A.T + 2.0 * D
        return [dm[0], dm[1], dC[0, 0], dC[0, 1], dC[1, 1]]

    sol = solve_ivp(
        rhs, (0.0, 4.0), [0.8, -0.4, 0.7, 0.0, 0.5],
        rtol=1e-12, atol=1e-13, method="DOP853",
    )
    out = evolve_moments(m, init, np.array([0.0, 4.0]))
    got = np.array(
        [
            out.means[-1][0], out.means[-1][1],
            out.covs[-1][0, 0], out.covs[-1][0, 1], out.covs[-1][1, 1],
        ]
    )
    np.testing.assert_allclose(got, sol.y[:, -1], atol=1e-10)


def test_stationary_state_minimal_noise():
    G = 1.4
    m = LangevinModel(omega=Constant(1.0), gamma=Constant(0.2), G=G)
    init = CentralGaussian.vacuum()
    grid = np.linspace(0.0, 100.0, 11)
    out = evolve_moments(m, init, grid)
    np.testing.assert_allclose(out.covs[-1], 0.5 * G * np.eye(2), atol=1e-8)
    assert out.photons[-1] == pytest.approx(0.5 * (G - 1.0), abs=1e-8)


def test_stationary_covariance_solver():
    G, w0, g = 1.8, 1.5, 0.3
    m = LangevinModel(omega=Constant(w0), gamma=Constant(g), omega0=w0, G=G)
    A = drift_matrix(m, 0.0)
    D = diffusion_matrix(m, 0.0)
    C = stationary_covariance(A, D)
    # analytic point for the minimal set: diag(omega0 G / 2, G / (2 omega0))
    np.testing.assert_allclose(
        C, np.diag([0.5 * w0 * G, 0.5 * G / w0]), atol=1e-12
    )
    # independent residual check of the algebraic equation
    np.testing.assert_allclose(A @ C + C @ A.T + 2.0 * D, 0.0, atol=1e-13)
    np.testing.assert_allclose(
        C, solve_continuous_lyapunov(A, -2.0 * D), atol=1e-12
    )


def test_tabulated_coefficients_match_parametric_run():
    gam = GaussianPulse(0.4, 1.0, 0.3)
    m = LangevinModel(omega=Constant(1.0), gamma=gam, G=1.2)
    init = CentralGaussian.vacuum()
    fine = np.linspace(0.0, 3.0, 1201)
    A_fine = np.array([drift_matrix(m, float(t)) for t in fine])
    D_fine = np.array([diffusion_matrix(m, float(t)) for t in fine])
    tab = evolve_moments_tabulated(fine, A_fine, D_fine, init)
    ref = evolve_moments(m, init, fine[::2], dt=fine[2] - fine[0])
    np.testing.assert_allclose(tab.covs[-1], ref.covs[-1], atol=1e-12)


def test_tabulated_grid_validation():
    init = CentralGaussian.vacuum()
    A = np.zeros((4, 2, 2))
    D = np.zeros((4, 2, 2))
    with pytest.raises(ValueError, match="odd"):
        evolve_moments_tabulated(np.linspace(0.0, 1.0, 4), A, D, init)
    ts = np.array([0.0, 0.1, 0.3])
    with pytest.raises(ValueError, match="uniform"):
        evolve_moments_tabulated(ts, A[:3], D[:3], init)
    with pytest.raises(ValueError, match="match"):
        evolve_moments_tabulated(np.linspace(0.0, 1.0, 5), A, D, init)


def test_tabulated_moments_match_callable_reference():
    # evolve_moments tabulates the coefficients per step block; the
    # reference calls drift_matrix and diffusion_matrix at every stage node
    model, grid = _mir_train(y=0.5)
    init = CentralGaussian.vacuum()
    got = evolve_moments(model, init, grid, dt=4e-3)
    ref = integrate_moments(
        lambda t: drift_matrix(model, t),
        lambda t: diffusion_matrix(model, t),
        init, grid, dt=4e-3,
    )
    np.testing.assert_array_equal(got.ts, ref.ts)
    np.testing.assert_allclose(got.photons, ref.photons, rtol=1e-10)
    np.testing.assert_allclose(got.covs, ref.covs, rtol=1e-10, atol=1e-15)


# ---------------------------------------------------------------------------
# complex amplitude solution


def test_epsilon_free_oscillation():
    m = LangevinModel(omega=Constant(1.0), gamma=Constant(0.0))
    sol = epsilon_solver(m, np.linspace(0.0, 10.0, 21))
    np.testing.assert_allclose(sol.eps, np.exp(1j * sol.ts), atol=1e-8)
    np.testing.assert_allclose(sol.magnitudes(), 1.0, atol=1e-8)
    assert sol.wronskian_drift < 1e-9


def test_epsilon_matches_solve_ivp():
    om = Affine(GaussianPulse(1.0, 2.0, 0.4), scale=0.05, offset=1.0)
    m = LangevinModel(omega=om, gamma=Constant(0.0))

    def rhs(t, yv):
        return [yv[1], -om.value(t) ** 2 * yv[0]]

    real = solve_ivp(rhs, (0, 4), [1.0, 0.0], rtol=1e-12, atol=1e-13, method="DOP853")
    imag = solve_ivp(rhs, (0, 4), [0.0, 1.0], rtol=1e-12, atol=1e-13, method="DOP853")
    oracle = real.y[0, -1] + 1j * imag.y[0, -1]
    sol = epsilon_solver(m, np.array([0.0, 4.0]))
    assert abs(sol.eps[-1] - oracle) < 1e-9


def test_epsilon_on_mir_train_matches_solve_ivp():
    # At y = 0 the effective frequency is omega^2, continuous with kinks at
    # the pulse onsets; the oracle restarts at each grid point so that its
    # steps never straddle one.  (At y != 0, delta' jumps at each onset and
    # both schemes lose order there.)
    model, grid = _mir_train(y=0.0)
    om = model.omega

    def rhs(t, v):
        w2 = om.value(t) ** 2
        return [v[2], v[3], -w2 * v[0], -w2 * v[1]]

    v = [1.0, 0.0, 0.0, model.omega0]
    for t_lo, t_hi in zip(grid[:-1], grid[1:]):
        seg = solve_ivp(
            rhs, (t_lo, t_hi), v, method="DOP853", rtol=1e-13, atol=1e-13
        )
        v = seg.y[:, -1]
    oracle = v[0] + 1j * v[1]
    sol = epsilon_solver(model, np.array([0.0, grid[-1]]), dt=4e-3)
    assert abs(sol.eps[-1] - oracle) <= 1e-8


def test_epsilon_wronskian_violation_raises():
    om = Affine(GaussianPulse(1.0, 2.0, 0.4), scale=0.05, offset=1.0)
    m = LangevinModel(omega=om, gamma=Constant(0.0))
    with pytest.raises(IntegrationError, match="[Ww]ronskian") as exc:
        epsilon_solver(m, np.array([0.0, 4.0]), dt=1.0)
    assert exc.value.t is not None


# ---------------------------------------------------------------------------
# stochastic ensemble


def test_sampled_moments_match_exact_within_errors():
    model = LangevinModel(omega=Constant(1.0), gamma=Constant(0.3), G=1.4)
    init = CentralGaussian(mean=np.array([0.8, -0.4]), cov=np.diag([0.7, 0.5]))
    grid = np.linspace(0.0, 2.0, 401)
    exact = evolve_moments(model, init, grid)
    s = sample_trajectories(model, init, grid, count=4000, seed=77)
    # z-scores stay O(1); the Euler bias at this step size is well below
    # the sampling error
    for k in (100, 250, 400):
        assert np.all(np.abs(s.cov[k] - exact.covs[k]) <= 4.0 * s.cov_se[k])
        assert np.all(np.abs(s.mean[k] - exact.means[k]) <= 4.0 * s.mean_se[k])


def test_sampling_bit_reproducible_across_partitions():
    model = LangevinModel(omega=Constant(1.0), gamma=Constant(0.3), G=1.4)
    init = CentralGaussian.vacuum()
    grid = np.linspace(0.0, 1.0, 101)
    a = sample_trajectories(model, init, grid, count=500, seed=9)
    b = sample_trajectories(model, init, grid, count=500, seed=9)
    np.testing.assert_array_equal(a.mean, b.mean)
    np.testing.assert_array_equal(a.cov, b.cov)
    np.testing.assert_array_equal(a.cov_se, b.cov_se)
    e = sample_trajectories(model, init, grid, count=500, seed=10)
    assert not np.array_equal(a.mean, e.mean)


def test_sampler_step_bias_is_first_order():
    # no damping, no noise: the ensemble mean follows the Euler polygon of
    # a pure rotation, whose error halves with the step
    m = LangevinModel(omega=Constant(1.0), gamma=Constant(0.0))
    init = CentralGaussian(mean=np.array([1.0, 0.0]), cov=np.zeros((2, 2)))
    errs = []
    for n in (100, 200):
        grid = np.linspace(0.0, 1.0, n + 1)
        s = sample_trajectories(m, init, grid, count=2, seed=1)
        want = np.array([math.cos(1.0), math.sin(1.0)])
        errs.append(np.abs(s.mean[-1] - want).max())
    assert errs[0] / errs[1] == pytest.approx(2.0, abs=0.25)


def test_sampler_input_validation():
    m = LangevinModel(omega=Constant(1.0), gamma=Constant(0.1))
    init = CentralGaussian.vacuum()
    with pytest.raises(ValueError, match="two trajectories"):
        sample_trajectories(m, init, np.linspace(0.0, 1.0, 11), count=1, seed=0)
    with pytest.raises(ValueError, match="increasing"):
        sample_trajectories(
            m, init, np.array([0.0, 1.0, 0.5]), count=10, seed=0
        )


# ---------------------------------------------------------------------------
# photon bookkeeping


def test_photon_trajectory_consistent_with_states():
    m = LangevinModel(omega=Constant(1.0), gamma=Constant(0.2), G=1.5)
    out = evolve_moments(m, CentralGaussian.vacuum(), np.linspace(0.0, 5.0, 6))
    np.testing.assert_allclose(
        out.photons, [photon_number(s) for s in out], atol=0.0
    )
    assert out.photons[0] == pytest.approx(0.0, abs=1e-15)
    assert np.all(np.diff(out.photons) > 0.0)  # heating toward G > 1


def test_photons_count_the_displacement():
    # the stacked photon numbers against photon_number state by state,
    # with a mean that rotates and decays
    m = LangevinModel(omega=Constant(1.0), gamma=Constant(0.2), G=1.5)
    init = CentralGaussian(np.array([0.8, -0.3]), 0.6 * np.eye(2))
    out = evolve_moments(m, init, np.linspace(0.0, 5.0, 11))
    assert len(out) == 11
    assert np.abs(out.means).max() > 0.3
    want = [photon_number(s) for s in out]
    assert len(want) == 11
    np.testing.assert_allclose(out.photons, want, rtol=1e-14, atol=0.0)
