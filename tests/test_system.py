"""Generator assembly, thermal reservoir data and coupling constructions.

The load-bearing oracle here is the energy route: the full linear generator
must equal J @ H where H is the (independently assembled) Hessian of the
quadratic energy and J the antisymmetric unit.  Layout mistakes in any block
show up immediately as a nonzero difference.
"""

from __future__ import annotations

import numpy as np
import pytest

from oscbath import (
    Affine,
    BathSpec,
    Constant,
    GaussianPulse,
    SystemSpec,
    assemble_generator,
    bath_from_rwa,
    build_A11,
    build_A22,
    coupling_layout_12,
    coupling_layout_21,
    generator_blocks,
    hamiltonian_hessian,
    random_couplings,
    rwa_couplings,
    symplectic_unit,
    thermal_F,
    thermal_f_values,
    uniform_bath_frequencies,
)


def _random_spec(n=3, seed=0, nu=None, omega=None):
    omegas = uniform_bath_frequencies(n, 0.4, 2.5)
    U, V, G, Z = random_couplings(n, scale=0.6, seed=seed)
    bath = BathSpec(
        omegas=omegas, U=U, V=V, G=G, Z=Z,
        nu=nu if nu is not None else GaussianPulse(0.8, 2.0, 0.5),
        temperature=0.3,
    )
    return SystemSpec(
        omega=omega if omega is not None else Constant(1.0),
        bath=bath, omega0=1.0, t_max=8.0,
    )


# ---------------------------------------------------------------------------
# generator vs energy Hessian


def test_generator_equals_J_times_hessian():
    spec = _random_spec(n=4, seed=7)
    J = symplectic_unit(spec.n_bath)
    for t in (0.0, 0.7, 2.0, 3.3):
        A = assemble_generator(spec, t)
        JH = J @ hamiltonian_hessian(spec, t)
        np.testing.assert_allclose(A, JH, atol=1e-14)


def test_generator_equals_J_times_hessian_modulated():
    omega = Affine(GaussianPulse(1.0, 4.0, 0.6), scale=0.05, offset=1.0)
    spec = _random_spec(n=2, seed=3, omega=omega)
    J = symplectic_unit(spec.n_bath)
    for t in (0.0, 1.9, 4.0, 5.5):
        np.testing.assert_allclose(
            assemble_generator(spec, t), J @ hamiltonian_hessian(spec, t), atol=1e-14
        )


def test_symplectic_unit_squares_to_minus_identity():
    for n in (0, 1, 3):
        J = symplectic_unit(n)
        np.testing.assert_allclose(J @ J, -np.eye(2 * n + 2), atol=0.0)
        np.testing.assert_allclose(J.T, -J, atol=0.0)


# ---------------------------------------------------------------------------
# block layouts, single-coupling hand cases


def _one_mode_bath(**coupling):
    c = {"U": [0.0], "V": [0.0], "G": [0.0], "Z": [0.0]}
    c.update({k: [float(v)] for k, v in coupling.items()})
    return BathSpec(omegas=[1.3], nu=Constant(1.0), **c)


def test_block_layout_single_couplings():
    # momentum-first ordering: rows/cols are (p, x) in each sector
    cases = {
        "U": ([[0.0, 0.0], [0.0, 1.0]], [[-1.0, 0.0], [0.0, 0.0]]),
        "V": ([[-1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]),
        "G": ([[0.0, -1.0], [0.0, 0.0]], [[0.0, -1.0], [0.0, 0.0]]),
        "Z": ([[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]),
    }
    for name, (want12, want21) in cases.items():
        bath = _one_mode_bath(**{name: 1.0})
        np.testing.assert_allclose(coupling_layout_12(bath), want12, atol=0.0)
        np.testing.assert_allclose(coupling_layout_21(bath), want21, atol=0.0)


def test_central_block():
    spec = SystemSpec(
        omega=Constant(2.0), bath=_one_mode_bath(U=0.1), omega0=2.0, t_max=8.0
    )
    np.testing.assert_allclose(
        build_A11(spec, 1.0), [[0.0, -4.0], [1.0, 0.0]], atol=0.0
    )


def test_bath_block_closed_form():
    bath = BathSpec(
        omegas=[2.0, 0.5], U=[0, 0], V=[0, 0], G=[0, 0], Z=[0, 0], nu=Constant(0.0)
    )
    A22 = build_A22(bath)
    want = np.zeros((4, 4))
    want[0, 2] = -4.0
    want[1, 3] = -0.25
    want[2, 0] = 1.0
    want[3, 1] = 1.0
    np.testing.assert_allclose(A22, want, atol=0.0)


def test_coupling_blocks_scale_with_drive():
    spec = _random_spec(seed=5)
    blocks = generator_blocks(spec, 2.0)
    nu_val = spec.bath.nu.value(2.0)
    np.testing.assert_allclose(
        blocks.A12, nu_val * coupling_layout_12(spec.bath), atol=1e-16
    )
    np.testing.assert_allclose(
        blocks.A21, nu_val * coupling_layout_21(spec.bath), atol=1e-16
    )
    full = blocks.full()
    np.testing.assert_allclose(full[:2, :2], blocks.A11, atol=0.0)
    np.testing.assert_allclose(full[2:, 2:], blocks.A22, atol=0.0)


# ---------------------------------------------------------------------------
# thermal reservoir data


def test_thermal_f_zero_temperature():
    bath = BathSpec(
        omegas=[0.5, 2.0], U=[0, 0], V=[0, 0], G=[0, 0], Z=[0, 0],
        nu=Constant(0.0), temperature=0.0,
    )
    np.testing.assert_allclose(thermal_f_values(bath), [1.0, 0.25], rtol=1e-15)


def test_thermal_f_frozen_value():
    bath = BathSpec(
        omegas=[1.0], U=[0], V=[0], G=[0], Z=[0], nu=Constant(0.0), temperature=0.5
    )
    # coth(1) / 2
    assert thermal_f_values(bath)[0] == pytest.approx(0.6565176427496657, rel=1e-15)


def test_thermal_f_matches_direct_formula():
    omegas = np.array([0.3, 1.0, 2.7])
    T = 0.8
    bath = BathSpec(
        omegas=omegas, U=[0] * 3, V=[0] * 3, G=[0] * 3, Z=[0] * 3,
        nu=Constant(0.0), temperature=T,
    )
    want = (1.0 / np.tanh(omegas / (2.0 * T))) / (2.0 * omegas)
    np.testing.assert_allclose(thermal_f_values(bath), want, rtol=1e-14)


def test_thermal_F_layout_and_override():
    bath = BathSpec(
        omegas=[0.5, 2.0], U=[0, 0], V=[0, 0], G=[0, 0], Z=[0, 0],
        nu=Constant(0.0), f_values=[0.9, 0.7],
    )
    F = thermal_F(bath)
    want = np.diag([0.25 * 0.9, 4.0 * 0.7, 0.9, 0.7])
    np.testing.assert_allclose(F, want, atol=0.0)


def test_high_temperature_asymptote():
    bath = BathSpec(
        omegas=[1.0], U=[0], V=[0], G=[0], Z=[0], nu=Constant(0.0), temperature=50.0
    )
    # coth(x)/(2 omega) -> T/omega^2 for omega << T
    assert thermal_f_values(bath)[0] == pytest.approx(50.0, rel=1e-3)


# ---------------------------------------------------------------------------
# excitation-exchange (rotating-frame) coupling construction


def test_rwa_determinant_identity():
    rng = np.random.default_rng(17)
    omegas = uniform_bath_frequencies(6, 0.3, 2.8)
    for _ in range(20):
        rho = rng.normal(size=6) + 1j * rng.normal(size=6)
        U, V, G, Z = rwa_couplings(rho, 1.4, omegas)
        np.testing.assert_allclose(
            U * V - G * Z, -np.abs(rho) ** 2, rtol=1e-13, atol=1e-15
        )


def test_rwa_quadratic_identities():
    rng = np.random.default_rng(4)
    omegas = uniform_bath_frequencies(5, 0.5, 2.0)
    omega0 = 1.3
    rho = rng.normal(size=5) + 1j * rng.normal(size=5)
    U, V, G, Z = rwa_couplings(rho, omega0, omegas)
    r2 = np.abs(rho) ** 2
    # these three combinations drive the short-time diffusion entries
    np.testing.assert_allclose(
        omegas**2 * V**2 + G**2, omega0 * omegas * r2, rtol=1e-13
    )
    np.testing.assert_allclose(
        omegas**2 * Z**2 + U**2, omegas / omega0 * r2, rtol=1e-13
    )
    np.testing.assert_allclose(omegas**2 * V * Z + G * U, 0.0, atol=1e-13)


def test_bath_from_rwa_wires_arrays():
    omegas = np.array([0.7, 1.9])
    rho = np.array([0.3 + 0.1j, -0.2 + 0.5j])
    nu = Constant(0.05)
    bath = bath_from_rwa(rho, omegas, nu, omega0=1.1, temperature=0.2)
    U, V, G, Z = rwa_couplings(rho, 1.1, omegas)
    np.testing.assert_allclose(bath.U, U, atol=0.0)
    np.testing.assert_allclose(bath.V, V, atol=0.0)
    np.testing.assert_allclose(bath.G, G, atol=0.0)
    np.testing.assert_allclose(bath.Z, Z, atol=0.0)
    assert bath.temperature == 0.2


# ---------------------------------------------------------------------------
# validation


def test_bath_rejects_bad_inputs():
    kw = dict(U=[0.1], V=[0.0], G=[0.0], Z=[0.0], nu=Constant(0.0))
    with pytest.raises(ValueError, match="positive"):
        BathSpec(omegas=[-1.0], **kw)
    with pytest.raises(ValueError, match="length"):
        BathSpec(omegas=[1.0, 2.0], **kw)
    with pytest.raises(ValueError, match="temperature"):
        BathSpec(omegas=[1.0], temperature=-0.1, **kw)
    with pytest.raises(ValueError, match="f_values"):
        BathSpec(omegas=[1.0], f_values=[1.0, 2.0], **kw)


def test_system_rejects_frequency_mismatch_at_start():
    bath = _one_mode_bath(U=0.1)
    with pytest.raises(ValueError, match="omega0"):
        SystemSpec(omega=Constant(1.05), bath=bath, omega0=1.0)


def test_system_rejects_negative_drive():
    bath = BathSpec(
        omegas=[1.0], U=[0.1], V=[0], G=[0], Z=[0],
        nu=Affine(Constant(1.0), scale=-0.2),
    )
    with pytest.raises(ValueError, match="non-negative"):
        SystemSpec(omega=Constant(1.0), bath=bath)


def test_system_rejects_vanishing_frequency():
    bath = _one_mode_bath()
    omega = Affine(GaussianPulse(1.0, 5.0, 0.4), scale=-2.0, offset=1.0)
    with pytest.raises(ValueError, match="positive"):
        SystemSpec(omega=omega, bath=bath, t_max=10.0)


def _first_failing_sample(omega, nu, t_max):
    """Scalar reference for the validation sweep: the first sample where
    omega <= 0 or nu < 0, and which of the two fails there first."""
    for t in np.linspace(0.0, t_max, 1001):
        if omega.value(float(t)) <= 0.0:
            return "omega", t
        if nu.value(float(t)) < 0.0:
            return "nu", t
    return None


def test_validation_names_first_failing_sample():
    # omega vanishes near t = 5; nu dips below zero near t = 3 in the
    # first case and at exactly omega's samples in the second, where
    # omega is checked first.
    omega = Affine(GaussianPulse(1.0, 5.0, 0.4), scale=-2.0, offset=1.0)
    messages = {
        "omega": "omega(t) must stay positive; fails near t=",
        "nu": "nu(t) must be non-negative; fails near t=",
    }
    for nu, first in (
        (Affine(GaussianPulse(1.0, 3.0, 0.4), scale=-2.0, offset=1.0), "nu"),
        (Affine(GaussianPulse(1.0, 5.0, 0.4), scale=-2.0, offset=1.0),
         "omega"),
    ):
        bath = BathSpec(
            omegas=[1.0], U=[0.1], V=[0], G=[0], Z=[0], nu=nu,
        )
        which, t = _first_failing_sample(omega, nu, 10.0)
        assert which == first
        with pytest.raises(ValueError) as exc:
            SystemSpec(omega=omega, bath=bath, t_max=10.0)
        assert str(exc.value) == f"{messages[which]}{t}"


# ---------------------------------------------------------------------------
# helpers


def test_uniform_bath_frequencies():
    w = uniform_bath_frequencies(5, 0.2, 3.0)
    assert w.shape == (5,)
    assert w[0] == pytest.approx(0.2)
    assert w[-1] == pytest.approx(3.0)
    assert np.all(np.diff(w) > 0)


def test_random_couplings_deterministic():
    a = random_couplings(4, scale=0.5, seed=42)
    b = random_couplings(4, scale=0.5, seed=42)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)
    assert all(np.max(np.abs(x)) <= 0.5 for x in a)
