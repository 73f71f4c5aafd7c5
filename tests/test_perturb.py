"""Short-time closed forms: drift corrections, diffusion, noise sets.

The drift-correction elements are checked against quadrature over the raw
coefficient profiles (the route that works for independently shaped
coefficients), and the factorized closed form against that general route.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from scipy.integrate import quad

import oracles
from oscbath import (
    Affine,
    BathSpec,
    Constant,
    GaussianPulse,
    LangevinModel,
    NoiseSet,
    PiecewiseLinear,
    R12_first_order,
    R21_first_order,
    SystemSpec,
    UnsupportedFormError,
    D_closed_form,
    coupling_profiles,
    diffusion_first_order,
    drift_first_order,
    integrate_R,
    lambda_factor,
    min_noise_set,
    mu_elements,
    mu_single_factor,
    random_couplings,
    thermal_F,
    thermal_G,
    uniform_bath_frequencies,
)


def _quad_integral(p, t):
    val, _ = quad(p.value, 0.0, t, epsabs=1e-13, epsrel=1e-13, limit=200)
    return val


# ---------------------------------------------------------------------------
# drift correction, general route


def test_mu_hand_example():
    # v(t) = t, g = 1, u = z = 0: only the px element survives and equals
    # v(t) * int g - g(t) * int v = t^2 - t^2/2 = t^2 / 2
    v = PiecewiseLinear((0.0, 10.0), (0.0, 10.0))
    g = Constant(1.0)
    zero = Constant(0.0)
    m = mu_elements([zero], [v], [g], [zero], 2.0)
    assert m.mu_px == pytest.approx(2.0, abs=1e-14)
    assert m.mu_pp == 0.0
    assert m.mu_xp == 0.0
    assert m.mu_xx == 0.0


def test_mu_elements_match_quadrature():
    rng = np.random.default_rng(7)

    def rand_prof():
        return GaussianPulse(
            float(rng.uniform(0.3, 1.0)),
            float(rng.uniform(0.5, 1.5)),
            float(rng.uniform(0.2, 0.5)),
        )

    us = [rand_prof() for _ in range(2)]
    vs = [rand_prof() for _ in range(2)]
    gs = [rand_prof() for _ in range(2)]
    zs = [rand_prof() for _ in range(2)]
    t = 1.7
    m = mu_elements(us, vs, gs, zs, t)
    want_pp = want_px = want_xp = want_xx = 0.0
    for u, v, g, z in zip(us, vs, gs, zs):
        iu, iv = _quad_integral(u, t), _quad_integral(v, t)
        ig, iz = _quad_integral(g, t), _quad_integral(z, t)
        want_pp += v.value(t) * iu - g.value(t) * iz
        want_px += v.value(t) * ig - g.value(t) * iv
        want_xp += u.value(t) * iz - z.value(t) * iu
        want_xx += u.value(t) * iv - z.value(t) * ig
    assert m.mu_pp == pytest.approx(want_pp, abs=1e-10)
    assert m.mu_px == pytest.approx(want_px, abs=1e-10)
    assert m.mu_xp == pytest.approx(want_xp, abs=1e-10)
    assert m.mu_xx == pytest.approx(want_xx, abs=1e-10)


def test_factorized_coefficients_cancel_off_diagonals():
    # one shared pulse shape for every coefficient: the off-diagonal
    # corrections cancel identically and the diagonal ones coincide
    rng = np.random.default_rng(42)
    nu = GaussianPulse(0.9, 1.2, 0.4)
    for trial in range(25):
        n = int(rng.integers(1, 6))
        omegas = rng.uniform(0.3, 2.5, size=n)
        U, V, G, Z = (rng.uniform(-1.0, 1.0, size=n) for _ in range(4))
        bath = BathSpec(omegas=omegas, U=U, V=V, G=G, Z=Z, nu=nu)
        t = float(rng.uniform(0.1, 4.0))
        m = mu_elements(*coupling_profiles(bath), t)
        scale = max(abs(m.mu_pp), abs(m.mu_xx), 1e-3)
        assert abs(m.mu_px) <= 1e-12 * scale
        assert abs(m.mu_xp) <= 1e-12 * scale
        assert m.mu_pp == pytest.approx(m.mu_xx, abs=1e-12 * scale)
        want = lambda_factor(nu, t) * float(np.sum(U * V - G * Z))
        assert m.mu_pp == pytest.approx(want, abs=1e-12 * max(1.0, abs(want)))


def test_single_factor_route_matches_general_route():
    omegas = uniform_bath_frequencies(3, 0.4, 2.0)
    U, V, G, Z = random_couplings(3, scale=0.7, seed=11)
    bath = BathSpec(
        omegas=omegas, U=U, V=V, G=G, Z=Z, nu=GaussianPulse(0.8, 1.0, 0.3)
    )
    for t in (0.3, 1.0, 2.5):
        a = mu_single_factor(bath, t)
        b = mu_elements(*coupling_profiles(bath), t)
        np.testing.assert_allclose(a.as_matrix(), b.as_matrix(), atol=1e-15)


def test_mu_damping_split_signs():
    bath = BathSpec(
        omegas=[1.0], U=[0.5], V=[0.8], G=[0.1], Z=[0.2], nu=Constant(1.0)
    )
    m = mu_single_factor(bath, 2.0)
    assert m.gamma_p == pytest.approx(-m.mu_pp, abs=0.0)
    assert m.gamma_x == pytest.approx(-m.mu_xx, abs=0.0)
    # U V - G Z = 0.38 > 0 here: positive diagonal, negative damping rate
    assert m.mu_pp > 0.0
    assert m.gamma_p < 0.0


# ---------------------------------------------------------------------------
# first-order propagator blocks


def test_R21_first_order_error_scales_with_coupling_squared():
    omegas = uniform_bath_frequencies(2, 0.6, 1.8)
    nu = GaussianPulse(1.0, 1.0, 0.3)
    t = 2.0
    errs = []
    for c in (0.2, 0.1, 0.05):
        U, V, G, Z = random_couplings(2, scale=c, seed=3)
        bath = BathSpec(omegas=omegas, U=U, V=V, G=G, Z=Z, nu=nu)
        spec = SystemSpec(omega=Constant(1.0), bath=bath, t_max=4.0)
        traj = integrate_R(spec, np.array([0.0, t]), dt=1e-3)
        exact = traj[-1].R21
        approx = R21_first_order(spec, t)
        errs.append(np.abs(exact - approx).max() / np.abs(exact).max())
    assert errs[0] > errs[1] > errs[2]
    assert errs[0] / errs[1] > 3.0
    assert errs[1] / errs[2] > 3.0


@pytest.mark.parametrize("n", [2, 16, 64])
def test_R21_first_order_matches_rk4_oracle(n):
    # the Simpson sum with per-mode rotations against the RK4
    # co-integration with the dense rotation at every stage, at a
    # time-dependent frequency
    U, V, G, Z = random_couplings(n, scale=0.1, seed=n)
    bath = BathSpec(
        omegas=uniform_bath_frequencies(n, 0.6, 3.0), U=U, V=V, G=G, Z=Z,
        nu=GaussianPulse(1.0, 1.0, 0.3),
    )
    omega = Affine(GaussianPulse(1.0, 1.5, 0.2), scale=-0.1, offset=1.0)
    spec = SystemSpec(
        omega=omega, bath=bath, omega0=omega.value(0.0), t_max=4.0
    )
    for t in (0.5, 2.0):
        want = oracles.R21_first_order(spec, t)
        got = R21_first_order(spec, t)
        assert got.shape == (2 * n, 2)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert np.all(R21_first_order(spec, 0.0) == 0.0)


def test_R12_bare_integral_layout():
    bath = BathSpec(
        omegas=[1.0], U=[0.0], V=[1.0], G=[0.0], Z=[0.0], nu=Constant(1.0)
    )
    spec = SystemSpec(omega=Constant(1.0), bath=bath, t_max=4.0)
    R12 = R12_first_order(spec, 2.0)
    np.testing.assert_allclose(R12, [[-2.0, 0.0], [0.0, 0.0]], atol=0.0)


def test_R12_bare_integral_improves_at_short_times():
    omegas = uniform_bath_frequencies(2, 0.6, 1.8)
    U, V, G, Z = random_couplings(2, scale=0.3, seed=3)
    errs = []
    for eps in (0.2, 0.1, 0.05):
        nu = GaussianPulse(1.0, eps / 2.0, eps / 6.0)
        bath = BathSpec(omegas=omegas, U=U, V=V, G=G, Z=Z, nu=nu)
        spec = SystemSpec(omega=Constant(1.0), bath=bath, t_max=1.0)
        traj = integrate_R(spec, np.array([0.0, eps]), dt=eps / 2000.0)
        approx = R12_first_order(spec, eps)
        errs.append(
            np.abs(traj[-1].R12 - approx).max() / np.abs(traj[-1].R12).max()
        )
    assert errs[0] > errs[1] > errs[2]


def test_drift_first_order_structure():
    bath = BathSpec(
        omegas=[1.0], U=[0.5], V=[0.8], G=[0.1], Z=[0.2], nu=Constant(1.0)
    )
    spec = SystemSpec(omega=Constant(1.0), bath=bath, t_max=4.0)
    t = 1.5
    A = drift_first_order(spec, t)
    m = mu_single_factor(bath, t)
    want = np.array([[m.mu_pp, -1.0], [1.0, m.mu_xx]])
    np.testing.assert_allclose(A, want, atol=1e-15)


# ---------------------------------------------------------------------------
# short-time diffusion


def test_diffusion_closed_form_single_mode_frozen():
    b = BathSpec(
        omegas=[1.0], U=[0.0], V=[1.0], G=[0.0], Z=[0.0],
        nu=Constant(1.0), f_values=[1.0],
    )
    dpp, dxx, dpx = D_closed_form(b, thermal_F(b), 2.0)
    assert (dpp, dxx, dpx) == (pytest.approx(2.0), pytest.approx(0.0), pytest.approx(0.0))
    b2 = BathSpec(
        omegas=[1.0], U=[0.0], V=[1.0], G=[0.0], Z=[1.0],
        nu=Constant(1.0), f_values=[1.0],
    )
    dpp, dxx, dpx = D_closed_form(b2, thermal_F(b2), 2.0)
    assert dpp == pytest.approx(2.0, abs=1e-15)
    assert dxx == pytest.approx(2.0, abs=1e-15)
    assert dpx == pytest.approx(-2.0, abs=1e-15)


def test_diffusion_matrix_matches_closed_form_elements():
    omegas = uniform_bath_frequencies(4, 0.4, 2.2)
    U, V, G, Z = random_couplings(4, scale=0.6, seed=19)
    bath = BathSpec(
        omegas=omegas, U=U, V=V, G=G, Z=Z,
        nu=GaussianPulse(0.7, 0.8, 0.25), temperature=0.6,
    )
    spec = SystemSpec(omega=Constant(1.0), bath=bath, t_max=4.0)
    F = thermal_F(bath)
    for t in (0.4, 1.1, 3.0):
        D = diffusion_first_order(spec, F, t)
        dpp, dxx, dpx = D_closed_form(bath, F, t)
        np.testing.assert_allclose(
            D, [[dpp, dpx], [dpx, dxx]], atol=1e-15
        )
        np.testing.assert_allclose(D, D.T, atol=0.0)


def test_diffusion_scales_with_memory_factor():
    bath = BathSpec(
        omegas=[0.9], U=[0.3], V=[0.5], G=[0.2], Z=[0.1],
        nu=GaussianPulse(0.5, 1.0, 0.3), temperature=0.2,
    )
    F = thermal_F(bath)
    d1 = np.array(D_closed_form(bath, F, 1.3))
    lam = lambda_factor(bath.nu, 1.3)
    np.testing.assert_allclose(d1 / lam, d1[0] / lam / d1[0] * d1, atol=1e-12)
    # doubling every coupling multiplies the closed form by four
    bath2 = BathSpec(
        omegas=[0.9], U=[0.6], V=[1.0], G=[0.4], Z=[0.2],
        nu=bath.nu, temperature=0.2,
    )
    d2 = np.array(D_closed_form(bath2, thermal_F(bath2), 1.3))
    np.testing.assert_allclose(d2, 4.0 * d1, rtol=1e-12)


def test_non_diagonal_reservoir_rejected_by_closed_form():
    bath = BathSpec(
        omegas=[1.0, 2.0], U=[0.1] * 2, V=[0.0] * 2, G=[0.0] * 2, Z=[0.0] * 2,
        nu=Constant(0.1),
    )
    F = thermal_F(bath)
    F_bad = F.copy()
    F_bad[0, 1] = 0.01
    F_bad[1, 0] = 0.01
    with pytest.raises(UnsupportedFormError):
        D_closed_form(bath, F_bad, 1.0)
    F_bad2 = F.copy()
    F_bad2[0, 0] *= 1.5  # momentum weight no longer omega^2 times position
    with pytest.raises(UnsupportedFormError):
        D_closed_form(bath, F_bad2, 1.0)
    with pytest.raises(UnsupportedFormError):
        D_closed_form(bath, F[:2, :2], 1.0)  # wrong shape


def test_general_matrix_route_accepts_any_reservoir():
    # the matrix route stays valid off the diagonal form; check it against
    # direct assembly of A12(t) F Int(A12)^T + transpose
    bath = BathSpec(
        omegas=[1.0, 2.0], U=[0.2, -0.1], V=[0.1, 0.3], G=[0.05, 0.0],
        Z=[0.0, 0.1], nu=Constant(0.5),
    )
    spec = SystemSpec(omega=Constant(1.0), bath=bath, t_max=4.0)
    F = thermal_F(bath)
    F_mixed = F.copy()
    F_mixed[0, 1] = F_mixed[1, 0] = 0.03
    from oscbath import coupling_layout_12

    t = 1.2
    L = coupling_layout_12(bath)
    A12_t = bath.nu.value(t) * L
    I12 = bath.nu.integral(0.0, t) * L
    want = 0.25 * (
        A12_t @ F_mixed @ I12.T + I12 @ F_mixed @ A12_t.T
        + (A12_t @ F_mixed @ I12.T + I12 @ F_mixed @ A12_t.T).T
    )
    np.testing.assert_allclose(
        diffusion_first_order(spec, F_mixed, t), want, atol=1e-15
    )


# ---------------------------------------------------------------------------
# thermal noise factor and minimal noise sets


def test_thermal_G_values():
    assert thermal_G(1.0, 0.0) == 1.0
    assert thermal_G(1.0, 0.5) == pytest.approx(1.3130352854993315, rel=1e-15)
    # high-temperature asymptote 2 T / omega0
    assert thermal_G(1.0, 100.0) == pytest.approx(200.0, rel=1e-3)
    assert thermal_G(2.0, 0.0) == 1.0


def test_min_noise_set_structure():
    ns = min_noise_set(Constant(0.1), omega0=2.0, G=1.5)
    t = 0.7
    assert ns.gamma_p(t) == pytest.approx(0.1)
    assert ns.gamma_x(t) == pytest.approx(0.1)
    assert ns.chi_pp(t) == pytest.approx(0.1 * 2.0 * 1.5, rel=1e-15)
    assert ns.chi_xx(t) == pytest.approx(0.1 * 1.5 / 2.0, rel=1e-15)
    assert ns.chi_xp_imag(t) == pytest.approx(0.1)
    assert ns.chi_px_imag(t) == pytest.approx(-0.1)
    assert ns.commutator_defect(t) == pytest.approx(0.0, abs=1e-15)


def test_min_noise_kernel_positivity_boundary():
    gamma = Constant(0.3)
    t = 1.0
    for G in (1.0, 1.2, 2.0):
        X = min_noise_set(gamma, 1.0, G).noise(t)
        np.testing.assert_allclose(X, X.conj().T, atol=0.0)
        eigs = np.linalg.eigvalsh(X)
        assert eigs.min() >= -1e-12
        # det X = gamma^2 (G^2 - 1)
        det = float(np.linalg.det(X).real)
        assert det == pytest.approx(0.09 * (G * G - 1.0), abs=1e-12)
    # exactly at the boundary the kernel is singular
    X1 = min_noise_set(gamma, 1.0, 1.0).noise(t)
    assert abs(np.linalg.det(X1)) <= 1e-12


def test_noise_factor_below_one_rejected():
    with pytest.raises(ValueError, match="unphysical"):
        min_noise_set(Constant(0.1), 1.0, 0.9)
    with pytest.raises(ValueError, match="unphysical"):
        NoiseSet(Constant(0.1), y=0.0, G=0.5)


_SPLITS = list(
    itertools.product((-1.0, -0.5, 0.0, 0.5, 1.0), (1.0, 1.7), (0.5, 2.0))
)


@pytest.mark.parametrize(
    "y, G, omega0", _SPLITS,
    ids=[f"y={y:g},G={G:g},omega0={w:g}" for y, G, w in _SPLITS],
)
def test_asymmetric_split_preserves_commutator(y, G, omega0):
    gamma = GaussianPulse(0.2, 1.0, 0.3)
    ns = NoiseSet(gamma, y, omega0, G)
    for t in (0.0, 0.6, 1.0, 1.45):
        g = gamma.value(t)
        assert ns.gamma_p(t) == pytest.approx((1.0 + y) * g)
        assert ns.gamma_x(t) == pytest.approx((1.0 - y) * g)
        assert ns.gamma(t) == pytest.approx(g)
        # the invariants hold exactly, not to roundoff
        assert ns.commutator_defect(t) == 0.0
        assert ns.gamma_p(t) + ns.gamma_x(t) == 2.0 * ns.gamma(t)
        np.testing.assert_array_equal(
            ns.diffusion(t), np.diag([ns.chi_pp(t), ns.chi_xx(t)]) / 2.0
        )
    model = LangevinModel(
        omega=Constant(1.0), gamma=gamma, y=y, omega0=omega0, G=G
    )
    assert model.chi == NoiseSet(gamma, y, omega0, G)
    with pytest.raises(ValueError, match="asymmetry"):
        NoiseSet(gamma, y=1.5)


def test_diffusion_from_noise_set_is_half_diagonal():
    ns = min_noise_set(Constant(0.4), omega0=1.0, G=2.0)
    D = ns.diffusion(0.0)
    np.testing.assert_allclose(D, np.diag([0.4, 0.4]), atol=1e-15)
