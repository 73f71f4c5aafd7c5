"""Short-time closed forms: drift corrections, diffusion, noise sets.

The drift-correction elements are checked against quadrature over the raw
coefficient profiles (the route that works for independently shaped
coefficients), and the factorized closed form against that general route.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import oracles
from oscbath import (
    BathSpec,
    Constant,
    GaussianPulse,
    LangevinModel,
    NoiseSet,
    PiecewiseLinear,
    SystemSpec,
    D_closed_form,
    coupling_layout_12,
    coupling_profiles,
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
        np.testing.assert_allclose(
            [a.mu_pp, a.mu_px, a.mu_xp, a.mu_xx],
            [b.mu_pp, b.mu_px, b.mu_xp, b.mu_xx], atol=1e-15,
        )


def test_mu_damping_split_signs():
    bath = BathSpec(
        omegas=[1.0], U=[0.5], V=[0.8], G=[0.1], Z=[0.2], nu=Constant(1.0)
    )
    m = mu_single_factor(bath, 2.0)
    # U V - G Z = 0.38 > 0 here: a positive diagonal, so negative damping
    # rates gamma_p = -mu_pp and gamma_x = -mu_xx
    assert m.mu_pp > 0.0
    assert m.mu_xx == m.mu_pp


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
        exact = traj.R[-1, 2:, :2]
        approx = oracles.R21_first_order(spec, t)
        errs.append(np.abs(exact - approx).max() / np.abs(exact).max())
    assert errs[0] > errs[1] > errs[2]
    assert errs[0] / errs[1] > 3.0
    assert errs[1] / errs[2] > 3.0


def test_R12_bare_integral_layout():
    bath = BathSpec(
        omegas=[1.0], U=[0.0], V=[1.0], G=[0.0], Z=[0.0], nu=Constant(1.0)
    )
    R12 = bath.nu.integral(0.0, 2.0) * coupling_layout_12(bath)
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
        approx = nu.integral(0.0, eps) * coupling_layout_12(bath)
        errs.append(
            np.abs(traj.R[-1, :2, 2:] - approx).max()
            / np.abs(traj.R[-1, :2, 2:]).max()
        )
    assert errs[0] > errs[1] > errs[2]


# ---------------------------------------------------------------------------
# short-time diffusion


def test_diffusion_closed_form_single_mode_frozen():
    # the ground state at omega = 1: f = 1/2
    b = BathSpec(
        omegas=[1.0], U=[0.0], V=[1.0], G=[0.0], Z=[0.0], nu=Constant(1.0),
    )
    dpp, dxx, dpx = D_closed_form(b, 2.0)
    assert (dpp, dxx, dpx) == (pytest.approx(1.0), pytest.approx(0.0), pytest.approx(0.0))
    b2 = BathSpec(
        omegas=[1.0], U=[0.0], V=[1.0], G=[0.0], Z=[1.0], nu=Constant(1.0),
    )
    dpp, dxx, dpx = D_closed_form(b2, 2.0)
    assert dpp == pytest.approx(1.0, abs=1e-15)
    assert dxx == pytest.approx(1.0, abs=1e-15)
    assert dpx == pytest.approx(-1.0, abs=1e-15)


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
        D = oracles.diffusion_first_order(spec, F, t)
        dpp, dxx, dpx = D_closed_form(bath, t)
        np.testing.assert_allclose(
            D, [[dpp, dpx], [dpx, dxx]], atol=1e-15
        )
        np.testing.assert_allclose(D, D.T, atol=0.0)


def test_diffusion_scales_with_memory_factor():
    bath = BathSpec(
        omegas=[0.9], U=[0.3], V=[0.5], G=[0.2], Z=[0.1],
        nu=GaussianPulse(0.5, 1.0, 0.3), temperature=0.2,
    )
    d1 = np.array(D_closed_form(bath, 1.3))
    lam = lambda_factor(bath.nu, 1.3)
    np.testing.assert_allclose(d1 / lam, d1[0] / lam / d1[0] * d1, atol=1e-12)
    # doubling every coupling multiplies the closed form by four
    bath2 = BathSpec(
        omegas=[0.9], U=[0.6], V=[1.0], G=[0.4], Z=[0.2],
        nu=bath.nu, temperature=0.2,
    )
    d2 = np.array(D_closed_form(bath2, 1.3))
    np.testing.assert_allclose(d2, 4.0 * d1, rtol=1e-12)


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
    gamma_p, gamma_x = ns.split(ns.profile.value(t))
    assert gamma_p == pytest.approx(0.1)
    assert gamma_x == pytest.approx(0.1)
    (chi_pp, i_chi_xp), (i_chi_px, chi_xx) = ns.noise(t)
    assert chi_pp == pytest.approx(0.1 * 2.0 * 1.5, rel=1e-15)
    assert chi_xx == pytest.approx(0.1 * 1.5 / 2.0, rel=1e-15)
    assert i_chi_xp == pytest.approx(0.1j)
    assert i_chi_px == pytest.approx(-0.1j)
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


@pytest.mark.parametrize("omega0", [0.0, -1.0])
def test_non_positive_omega0_rejected(omega0):
    # checked before G and y, so the model names omega0 first as well
    with pytest.raises(ValueError, match="omega0 must be > 0"):
        NoiseSet(Constant(0.1), omega0=omega0)
    with pytest.raises(ValueError, match="omega0 must be > 0"):
        min_noise_set(Constant(0.1), omega0, 1.0)
    with pytest.raises(ValueError, match="omega0 must be > 0"):
        NoiseSet(Constant(0.1), y=1.5, omega0=omega0, G=0.5)
    with pytest.raises(ValueError, match="omega0 must be > 0"):
        LangevinModel(
            omega=Constant(1.0), gamma=Constant(0.1), omega0=omega0, G=0.5
        )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    y=st.floats(-1.0, 1.0),
    G=st.floats(1.0, 4.0),
    omega0=st.floats(0.2, 5.0),
    amplitude=st.floats(0.0, 1.0),
    width=st.floats(0.1, 2.0),
    u=st.floats(0.0, 1.0),
)
def test_noise_kernel_invariants(y, G, omega0, amplitude, width, u):
    gamma = GaussianPulse(amplitude, 1.0, width)
    lo, hi = gamma.support()
    t = lo + u * (hi - lo)
    ns = NoiseSet(gamma, y, omega0, G)
    X, D, g = ns.noise(t), ns.diffusion(t), ns.gamma(t)
    np.testing.assert_array_equal(X, X.conj().T)
    np.testing.assert_array_equal(X + X.T, 4.0 * D)
    assert ns.commutator_defect(t) == 0.0
    # det X = gamma^2 ((1 - y^2) G^2 - 1): positive semidefinite from 1 on,
    # indefinite below it; the sign is read only where gamma lies well
    # above the subnormal range, so the entries of X carry full precision
    if g < 1e-300:
        return
    lowest = np.linalg.eigvalsh(X)[0]
    excess = (1.0 - y * y) * G * G
    if excess >= 1.0:
        assert lowest >= -1e-12 * np.abs(X).max()
    elif excess < 1.0 - 1e-9:
        assert lowest < 0.0


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
        gamma_p, gamma_x = ns.split(g)
        assert gamma_p == pytest.approx((1.0 + y) * g)
        assert gamma_x == pytest.approx((1.0 - y) * g)
        assert ns.gamma(t) == pytest.approx(g)
        # the invariants hold exactly, not to roundoff
        assert ns.commutator_defect(t) == 0.0
        assert gamma_p + gamma_x == 2.0 * ns.gamma(t)
        X = ns.noise(t)
        np.testing.assert_array_equal(ns.diffusion(t), (X + X.T).real / 4.0)
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
