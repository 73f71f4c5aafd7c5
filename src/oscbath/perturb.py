"""Short-time closed forms for the reduced drift and diffusion.

To first order in the coupling the bath response block is

    R21(t) = exp(A22 t) int_0^t exp(-A22 tau) A21(tau) R11free(tau) dtau,

and on windows short compared with every mode period the free rotations
drop out, so R21 ~ int_0^t A21 and the central response R12 ~ int_0^t A12.
The drift A11 + A12 R21 R11^-1 then carries the correction

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

The blocks R12 and R21 themselves are not formed here: the scenarios
compare these closed forms with the drift and diffusion that
:func:`oscbath.reduced.extract_reduced` reads off the exact propagator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .profiles import Affine, TimeProfile, lambda_factor
from .reduced import noise_matrix
from .system import BathSpec, thermal_f_values

__all__ = [
    "MuMatrix",
    "NoiseSet",
    "coupling_profiles",
    "mu_elements",
    "mu_single_factor",
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
    closed forms.  Each distinct base profile (by identity, as in
    ``tabulate``) is evaluated and integrated once.  This is the route
    that exposes when the off-diagonal elements survive, i.e. when the
    coefficients do not share a single scalar shape.
    """
    lengths = {len(u), len(v), len(g), len(z)}
    if len(lengths) != 1:
        raise ValueError(f"coupling lists must share a length, got {lengths}")
    bases: dict[int, tuple[float, float]] = {}

    def at_t(p: TimeProfile) -> tuple[float, float]:
        # value at t and integral over [0, t], each distinct base once
        b = p.base if isinstance(p, Affine) else p
        if id(b) not in bases:
            ts = np.array([float(t)])
            bases[id(b)] = float(b.values(ts)[0]), b.integral(0.0, t)
        v, i = bases[id(b)]
        if b is p:
            return v, i
        return p.offset + p.scale * v, p.offset * t + p.scale * i

    mu_pp = mu_px = mu_xp = mu_xx = 0.0
    for uk, vk, gk, zk in zip(u, v, g, z):
        (ut, iu), (vt, iv), (gt, ig), (zt, iz) = map(at_t, (uk, vk, gk, zk))
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


def D_closed_form(bath: BathSpec, t: float) -> tuple[float, float, float]:
    """Closed-form short-time diffusion (D_pp, D_xx, D_px) from the bath's
    own diagonal reservoir state, f_k from :func:`thermal_f_values`:
        D_pp =  lambda sum_k f_k (omega_k^2 V_k^2 + G_k^2)
        D_xx =  lambda sum_k f_k (omega_k^2 Z_k^2 + U_k^2)
        D_px = -lambda sum_k f_k (omega_k^2 V_k Z_k + G_k U_k)
    For excitation-exchange couplings D_px vanishes and
    D_pp = omega0^2 D_xx.
    """
    f = thermal_f_values(bath)
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
        if not self.omega0 > 0.0:
            raise ValueError(f"omega0 must be > 0, got {self.omega0}")
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

    def gamma(self, t: float) -> float:
        return 0.5 * sum(self.split(self.profile.value(t)))

    def diffusion(self, t: float) -> np.ndarray:
        """Symmetric diffusion matrix, (p, x) ordering.  The purely
        imaginary cross correlations contribute nothing here."""
        return np.diag(self.diffusion_of(self.profile.value(t)))

    def noise(self, t: float) -> np.ndarray:
        """[[chi_pp, i chi_xp], [i chi_px, chi_xx]] = 2 D + i gamma K."""
        return noise_matrix(self.diffusion(t), self.gamma(t))

    def commutator_defect(self, t: float) -> float:
        """Im(X_xp - X_px) - 2 gamma of the kernel; zero by construction."""
        X = self.noise(t)
        return float(X[0, 1].imag - X[1, 0].imag) - 2.0 * self.gamma(t)


def min_noise_set(gamma: TimeProfile, omega0: float, G: float) -> NoiseSet:
    """Smallest commutator-preserving noise set for symmetric damping.

    gamma_x = gamma_p = gamma(t), chi_xp = -chi_px = i gamma(t), and
    chi_pp = omega0^2 chi_xx = gamma(t) omega0 G.  The kernel
    X = [[chi_pp, i gamma], [-i gamma, chi_xx]] is positive semidefinite
    exactly when G >= 1; G = 1 (zero temperature) sits on the boundary.
    """
    return NoiseSet(gamma, 0.0, omega0, G)
