"""Short-time perturbation theory for the reduced drift and diffusion.

To first order in the coupling the bath response block is

    R21(t) = exp(A22 t) int_0^t exp(-A22 tau) A21(tau) R11free(tau) dtau,

and on windows short compared with every mode period the free rotations
drop out, leaving the drift correction

    mu(t) = A12(t) int_0^t A21(tau) dtau

with elements (sums over modes, integrals from 0 to t)

    mu_pp = sum_k [ v_k(t) Int u_k - g_k(t) Int z_k ]
    mu_px = sum_k [ v_k(t) Int g_k - g_k(t) Int v_k ]
    mu_xp = sum_k [ u_k(t) Int z_k - z_k(t) Int u_k ]
    mu_xx = sum_k [ u_k(t) Int v_k - z_k(t) Int g_k ]

When all four coefficients share one scalar profile, u_k = nu(t) U_k and so
on, the off-diagonal elements cancel identically and the diagonal ones
coincide: mu_pp = mu_xx = lambda(t) sum_k (U_k V_k - G_k Z_k) with
lambda = nu(t) int_0^t nu.  Equal momentum and coordinate damping rates are
therefore automatic for any pulse shape, not an extra assumption.  The
damping rates relate to the drift correction as gamma_p = -mu_pp and
gamma_x = -mu_xx.

The same cancellation gives closed-form short-time diffusion for a
diagonal reservoir covariance, and for excitation-exchange couplings the
cross diffusion vanishes while D_pp = omega0^2 D_xx.  The minimum
commutator-preserving noise set then has equal damping rates and
chi_pp = omega0^2 chi_xx = gamma omega0 G with G = coth(omega0 / 2T) >= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import UnsupportedFormError
from .profiles import Affine, TimeProfile, lambda_factor
from .propagate import default_time_step, expm_bath, free_central_R11
from .system import (
    BathSpec,
    SystemSpec,
    build_A11,
    coupling_layout_12,
    coupling_layout_21,
)

__all__ = [
    "MuMatrix",
    "NoiseSet",
    "coupling_profiles",
    "mu_elements",
    "mu_single_factor",
    "R21_first_order",
    "R12_first_order",
    "drift_first_order",
    "diffusion_first_order",
    "D_closed_form",
    "min_noise_set",
    "thermal_G",
]


@dataclass(frozen=True)
class MuMatrix:
    """Short-time drift correction, (p, x) ordering."""

    t: float
    mu_pp: float
    mu_px: float
    mu_xp: float
    mu_xx: float

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.mu_pp, self.mu_px], [self.mu_xp, self.mu_xx]])

    @property
    def gamma_p(self) -> float:
        return -self.mu_pp

    @property
    def gamma_x(self) -> float:
        return -self.mu_xx


def coupling_profiles(
    bath: BathSpec,
) -> tuple[list[TimeProfile], list[TimeProfile], list[TimeProfile], list[TimeProfile]]:
    """Per-mode coupling coefficients u_k, v_k, g_k, z_k as profiles."""
    nu = bath.nu
    u = [Affine(nu, scale=float(c)) for c in bath.U]
    v = [Affine(nu, scale=float(c)) for c in bath.V]
    g = [Affine(nu, scale=float(c)) for c in bath.G]
    z = [Affine(nu, scale=float(c)) for c in bath.Z]
    return u, v, g, z


def mu_elements(
    u: Sequence[TimeProfile],
    v: Sequence[TimeProfile],
    g: Sequence[TimeProfile],
    z: Sequence[TimeProfile],
    t: float,
) -> MuMatrix:
    """Drift correction for general, independently shaped coefficients.

    Each coefficient is an arbitrary profile; integrals use the profiles'
    closed forms.  This is the route that exposes when the off-diagonal
    elements survive, i.e. when the coefficients do not share a single
    scalar shape.
    """
    lengths = {len(u), len(v), len(g), len(z)}
    if len(lengths) != 1:
        raise ValueError(f"coupling lists must share a length, got {lengths}")
    mu_pp = mu_px = mu_xp = mu_xx = 0.0
    for uk, vk, gk, zk in zip(u, v, g, z):
        iu = uk.integral(0.0, t)
        iv = vk.integral(0.0, t)
        ig = gk.integral(0.0, t)
        iz = zk.integral(0.0, t)
        ut, vt, gt, zt = uk.value(t), vk.value(t), gk.value(t), zk.value(t)
        mu_pp += vt * iu - gt * iz
        mu_px += vt * ig - gt * iv
        mu_xp += ut * iz - zt * iu
        mu_xx += ut * iv - zt * ig
    return MuMatrix(t=t, mu_pp=mu_pp, mu_px=mu_px, mu_xp=mu_xp, mu_xx=mu_xx)


def mu_single_factor(bath: BathSpec, t: float) -> MuMatrix:
    """Closed form when all coefficients share the profile nu(t).

    The off-diagonals vanish identically; both diagonals equal
    lambda(t) * sum_k (U_k V_k - G_k Z_k).
    """
    lam = lambda_factor(bath.nu, t)
    s = float(np.sum(bath.U * bath.V - bath.G * bath.Z))
    d = lam * s
    return MuMatrix(t=t, mu_pp=d, mu_px=0.0, mu_xp=0.0, mu_xx=d)


def R21_first_order(spec: SystemSpec, t: float) -> np.ndarray:
    """First-order bath response block (2N x 2).

    Composite Simpson on the response integral at the step of
    :func:`default_time_step`, with the free central propagator from
    :func:`free_central_R11` at the nodes.  exp(-A22 tau) rotates mode k
    by [[c, w s], [-s / w, c]], c, s = cos, sin(w_k tau), so the weighted
    sum over nodes folds into two 2x2 sums per mode, C_k and S_k, before
    the coupling rows are applied; the closed-form bath rotation follows.
    """
    bath = spec.bath
    if t == 0.0:
        return np.zeros((2 * bath.n, 2))
    dt = default_time_step(spec)
    m = math.ceil(t / dt)
    nodes = np.linspace(0.0, t, 2 * m + 1)
    R11 = free_central_R11(spec, nodes, dt).reshape(-1, 4)
    # Simpson weights (1, 4, 2, ..., 4, 1) h / 6 on panels of width h = t/m
    a = bath.nu.values(nodes) * (t / (6.0 * m))
    a[1::2] *= 4.0
    a[2:-1:2] *= 2.0
    wt = nodes[:, None] * bath.omegas
    C = ((np.cos(wt) * a[:, None]).T @ R11).reshape(-1, 2, 2)
    S = ((np.sin(wt) * a[:, None]).T @ R11).reshape(-1, 2, 2)
    L21 = coupling_layout_21(bath)[:, None, :]
    up, lo = L21[: bath.n], L21[bath.n :]  # (-U_k, -G_k) and (Z_k, V_k)
    w = bath.omegas[:, None, None]
    Y = np.concatenate((up @ C + w * (lo @ S), lo @ C - (up @ S) / w))
    return expm_bath(bath.omegas, t) @ Y[:, 0, :]


def R12_first_order(spec: SystemSpec, t: float) -> np.ndarray:
    """Short-time central response block: int_0^t A12(tau) dtau, exact via
    the profile integral."""
    area = spec.bath.nu.integral(0.0, t)
    return area * coupling_layout_12(spec.bath)


def drift_first_order(spec: SystemSpec, t: float) -> np.ndarray:
    """Free drift plus the short-time correction mu(t)."""
    return build_A11(spec, t) + mu_single_factor(spec.bath, t).as_matrix()


def _diagonal_f(bath: BathSpec, F: np.ndarray) -> np.ndarray:
    """Validate the diagonal reservoir form and return the f_k values.

    Requires F = diag(omega_k^2 f_k) (+) diag(f_k); anything else is
    outside the closed forms.
    """
    n = bath.n
    F = np.asarray(F, dtype=float)
    if F.shape != (2 * n, 2 * n):
        raise UnsupportedFormError(
            f"reservoir covariance has shape {F.shape}, expected {(2 * n, 2 * n)}"
        )
    off = F - np.diag(np.diag(F))
    if np.any(off != 0.0):
        raise UnsupportedFormError(
            "closed-form diffusion needs a diagonal reservoir covariance"
        )
    f = np.diag(F)[n:]
    expected_p = bath.omegas**2 * f
    got_p = np.diag(F)[:n]
    if not np.allclose(got_p, expected_p, rtol=1e-12, atol=0.0):
        raise UnsupportedFormError(
            "diagonal reservoir covariance must pair omega_k^2 f_k with f_k"
        )
    return f


def diffusion_first_order(spec: SystemSpec, F: np.ndarray, t: float) -> np.ndarray:
    """Short-time diffusion 2 D = A12(t) F Int(A12)^T + transpose, for a
    general (not necessarily diagonal) reservoir covariance."""
    L12 = coupling_layout_12(spec.bath)
    A12_t = spec.bath.nu.value(t) * L12
    I12 = spec.bath.nu.integral(0.0, t) * L12
    term1 = A12_t @ F @ I12.T
    term2 = I12 @ F @ A12_t.T
    two_D = term1 + term2
    return 0.25 * (two_D + two_D.T)


def D_closed_form(
    bath: BathSpec, F: np.ndarray, t: float
) -> tuple[float, float, float]:
    """Closed-form short-time diffusion (D_pp, D_xx, D_px).

    Valid for the diagonal reservoir form only:
        D_pp =  lambda sum_k f_k (omega_k^2 V_k^2 + G_k^2)
        D_xx =  lambda sum_k f_k (omega_k^2 Z_k^2 + U_k^2)
        D_px = -lambda sum_k f_k (omega_k^2 V_k Z_k + G_k U_k)
    For excitation-exchange couplings D_px vanishes and
    D_pp = omega0^2 D_xx.
    """
    f = _diagonal_f(bath, F)
    lam = lambda_factor(bath.nu, t)
    w2 = bath.omegas**2
    d_pp = lam * float(np.sum(f * (w2 * bath.V**2 + bath.G**2)))
    d_xx = lam * float(np.sum(f * (w2 * bath.Z**2 + bath.U**2)))
    d_px = -lam * float(np.sum(f * (w2 * bath.V * bath.Z + bath.G * bath.U)))
    return d_pp, d_xx, d_px


def thermal_G(omega0: float, temperature: float) -> float:
    """Noise enhancement factor coth(omega0 / 2T); 1 at zero temperature."""
    if not omega0 > 0.0:
        raise ValueError(f"omega0 must be > 0, got {omega0}")
    if temperature < 0.0:
        raise ValueError(f"temperature must be >= 0, got {temperature}")
    if temperature == 0.0:
        return 1.0
    return 1.0 / math.tanh(omega0 / (2.0 * temperature))


@dataclass(frozen=True)
class NoiseSet:
    """Damping rates and noise correlations of the local oscillator model.

    Every entry is a fixed multiple of one damping profile gamma(t): the
    split gamma_p = (1+y) gamma, gamma_x = (1-y) gamma, the noise
    chi_pp = gamma_p omega0 G, chi_xx = gamma_x G / omega0 with the thermal
    factor G >= 1, and the purely imaginary cross correlations
    chi_xp = -chi_px = i gamma.  The commutator condition
    chi_xp - chi_px = 2 i gamma therefore holds by construction.
    """

    profile: TimeProfile
    y: float = 0.0
    omega0: float = 1.0
    G: float = 1.0

    def __post_init__(self):
        if self.G < 1.0:
            raise ValueError(
                f"noise factor G={self.G} below 1 corresponds to an unphysical"
                " (negative) temperature"
            )
        if abs(self.y) > 1.0:
            raise ValueError(
                f"damping asymmetry must satisfy |y| <= 1, got {self.y}"
            )

    def split(self, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(gamma_p, gamma_x) for a value or a table g of the profile."""
        return (1.0 + self.y) * g, (1.0 - self.y) * g

    def diffusion_of(self, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(D_pp, D_xx) = (chi_pp, chi_xx) / 2 for a value or a table g of
        the profile, so a caller that has tabulated it does not evaluate it
        again."""
        gamma_p, gamma_x = self.split(g)
        return (0.5 * (gamma_p * self.G * self.omega0),
                0.5 * (gamma_x * self.G / self.omega0))

    def gamma_p(self, t: float) -> float:
        return self.split(self.profile.value(t))[0]

    def gamma_x(self, t: float) -> float:
        return self.split(self.profile.value(t))[1]

    def gamma(self, t: float) -> float:
        return 0.5 * sum(self.split(self.profile.value(t)))

    def chi_pp(self, t: float) -> float:
        return 2.0 * self.diffusion_of(self.profile.value(t))[0]

    def chi_xx(self, t: float) -> float:
        return 2.0 * self.diffusion_of(self.profile.value(t))[1]

    def chi_xp_imag(self, t: float) -> float:
        return self.gamma(t)

    def chi_px_imag(self, t: float) -> float:
        return -self.gamma(t)

    def commutator_defect(self, t: float) -> float:
        """chi_xp - chi_px - 2 gamma (imaginary parts); zero by
        construction."""
        return self.chi_xp_imag(t) - self.chi_px_imag(t) - 2.0 * self.gamma(t)

    def diffusion(self, t: float) -> np.ndarray:
        """Symmetric diffusion matrix, (p, x) ordering.  The purely
        imaginary cross correlations contribute nothing here."""
        return np.diag(self.diffusion_of(self.profile.value(t)))

    def noise(self, t: float) -> np.ndarray:
        """Complex noise kernel [[chi_pp, i chi_xp], [i chi_px, chi_xx]]."""
        return np.array(
            [
                [self.chi_pp(t), 1j * self.chi_xp_imag(t)],
                [1j * self.chi_px_imag(t), self.chi_xx(t)],
            ]
        )


def min_noise_set(gamma: TimeProfile, omega0: float, G: float) -> NoiseSet:
    """Smallest commutator-preserving noise set for symmetric damping.

    gamma_x = gamma_p = gamma(t), chi_xp = -chi_px = i gamma(t), and
    chi_pp = omega0^2 chi_xx = gamma(t) omega0 G.  The kernel
    X = [[chi_pp, i gamma], [-i gamma, chi_xx]] is positive semidefinite
    exactly when G >= 1; G = 1 (zero temperature) sits on the boundary.
    """
    return NoiseSet(gamma, 0.0, omega0, G)
