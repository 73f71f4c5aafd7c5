"""System description: one driven oscillator bilinearly coupled to a bath.

The phase-space ordering is momentum first throughout the package.  The
central pair is Q = (p0, x0); the bath stacks all momenta before all
coordinates, xi = (p1..pN, x1..xN).  With that ordering the quadratic
Hamiltonian

    H = (p0^2 + omega(t)^2 x0^2) / 2
        + sum_k (p_k^2 + omega_k^2 x_k^2) / 2
        + sum_k (z_k p_k p0 + v_k p_k x0 + u_k x_k p0 + g_k x_k x0)

generates linear equations  d/dt (Q, xi) = A(t) (Q, xi)  whose blocks are
assembled here.  All four coupling coefficients share one scalar time
profile nu(t):  u_k = nu(t) U_k,  v_k = nu(t) V_k,  g_k = nu(t) G_k,
z_k = nu(t) Z_k.  The generator equals J B(t), where J is the symplectic
unit for this ordering and B(t) the Hessian of H.  The package builds only
the blocks the propagator uses; the tests assemble J B(t) from the
Hamiltonian terms as their independent reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .profiles import Constant, TimeProfile

__all__ = [
    "BathSpec",
    "SystemSpec",
    "build_A22",
    "coupling_layout_12",
    "coupling_layout_21",
    "symplectic_unit",
    "thermal_f_values",
    "thermal_F",
    "rwa_couplings",
    "bath_from_rwa",
    "uniform_bath_frequencies",
    "random_couplings",
]

# Probe resolution for sampled positivity checks on profiles.
_VALIDATION_SAMPLES = 1001


def _as_float_array(x, name: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


@dataclass(frozen=True)
class BathSpec:
    """Bath frequencies, coupling constants and reservoir state.

    Parameters
    ----------
    omegas : array, shape (N,)
        Bath mode frequencies, strictly positive.
    U, V, G, Z : arrays, shape (N,)
        Dimensionless coupling constants multiplying the shared profile
        nu(t): coordinate-momentum (U), momentum-coordinate (V),
        coordinate-coordinate (G) and momentum-momentum (Z) couplings.
    nu : TimeProfile
        Shared coupling profile, non-negative on the run window.
    temperature : float
        Reservoir temperature in units of the reference frequency; zero
        selects the ground state.
    """

    omegas: np.ndarray
    U: np.ndarray
    V: np.ndarray
    G: np.ndarray
    Z: np.ndarray
    nu: TimeProfile = field(default_factory=lambda: Constant(0.0))
    temperature: float = 0.0

    def __post_init__(self):
        omegas = _as_float_array(self.omegas, "omegas")
        if np.any(omegas <= 0.0):
            raise ValueError("bath frequencies must be strictly positive")
        object.__setattr__(self, "omegas", omegas)
        n = omegas.size
        for name in ("U", "V", "G", "Z"):
            arr = _as_float_array(getattr(self, name), name)
            if arr.size != n:
                raise ValueError(
                    f"coupling array {name} has length {arr.size}, expected {n}"
                )
            object.__setattr__(self, name, arr)
        if self.temperature < 0.0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")

    @property
    def n(self) -> int:
        return int(self.omegas.size)


@dataclass(frozen=True)
class SystemSpec:
    """Central oscillator profile plus bath, validated on a run window.

    ``omega`` must stay positive on [0, t_max], and ``nu`` non-negative;
    the reference frequency is omega(0) itself.  Both are checked only at
    1001 evenly spaced times (``_VALIDATION_SAMPLES``), so a dip narrower
    than their spacing passes unseen; ROADMAP item 11 (profiles that
    declare their bounds) would make the check exact.
    """

    omega: TimeProfile
    bath: BathSpec
    t_max: float = 20.0

    def __post_init__(self):
        if not self.t_max > 0.0:
            raise ValueError(f"t_max must be > 0, got {self.t_max}")
        ts = np.linspace(0.0, self.t_max, _VALIDATION_SAMPLES)
        # Name the first failing sample; at one sample omega is checked
        # before nu.
        bad_omega = self.omega.values(ts) <= 0.0
        bad_nu = self.bath.nu.values(ts) < 0.0
        failing = np.flatnonzero(bad_omega | bad_nu)
        if failing.size:
            i = failing[0]
            if bad_omega[i]:
                raise ValueError(
                    f"omega(t) must stay positive; fails near t={ts[i]}"
                )
            raise ValueError(f"nu(t) must be non-negative; fails near t={ts[i]}")


def build_A22(bath: BathSpec) -> np.ndarray:
    """Constant bath block: d/dt (p, x) = (-omega^2 x, p) per mode."""
    n = bath.n
    out = np.zeros((2 * n, 2 * n))
    out[:n, n:] = -np.diag(bath.omegas**2)
    out[n:, :n] = np.eye(n)
    return out


def coupling_layout_12(bath: BathSpec) -> np.ndarray:
    """Unit-profile layout of the central-row coupling block (2 x 2N).

    Row p0 collects (-V_k, -G_k); row x0 collects (Z_k, U_k).  Multiplying
    by nu(t) gives the actual block, so cumulative blocks follow from the
    profile integral alone.
    """
    return np.block([[-bath.V[None, :], -bath.G[None, :]],
                     [bath.Z[None, :], bath.U[None, :]]])


def coupling_layout_21(bath: BathSpec) -> np.ndarray:
    """Unit-profile layout of the bath-row coupling block (2N x 2).

    Bath momentum rows carry (-U_k, -G_k); bath coordinate rows (Z_k, V_k).
    """
    top = np.column_stack([-bath.U, -bath.G])
    bottom = np.column_stack([bath.Z, bath.V])
    return np.vstack([top, bottom])


def symplectic_unit(n_bath: int) -> np.ndarray:
    """Block-diagonal symplectic unit for the (p0, x0, p_k.., x_k..)
    ordering: J[p, x] = -1 and J[x, p] = 1 for the pairs (p0, x0) and
    (p_k, x_k), and zero elsewhere, which the propagator's defect check
    relies on."""
    dim = 2 * n_bath + 2
    J = np.zeros((dim, dim))
    J[0, 1] = -1.0
    J[1, 0] = 1.0
    n = n_bath
    J[2 : 2 + n, 2 + n :] = -np.eye(n)
    J[2 + n :, 2 : 2 + n] = np.eye(n)
    return J


def _coth(x: float) -> float:
    return 1.0 / math.tanh(x)


def thermal_f_values(bath: BathSpec) -> np.ndarray:
    """Per-mode coordinate variances f_k of the reservoir state.

    Thermal law f = coth(omega / (2 T)) / (2 omega); the zero-temperature
    limit is 1 / (2 omega).
    """
    w = bath.omegas
    if bath.temperature == 0.0:
        return 1.0 / (2.0 * w)
    T = bath.temperature
    return np.array([_coth(wk / (2.0 * T)) / (2.0 * wk) for wk in w])


def thermal_F(bath: BathSpec) -> np.ndarray:
    """Reservoir covariance in (p.., x..) ordering:
    diag(omega_k^2 f_k) for momenta, diag(f_k) for coordinates."""
    f = thermal_f_values(bath)
    w2f = bath.omegas**2 * f
    return np.diag(np.concatenate([w2f, f]))


def rwa_couplings(
    rho: np.ndarray, omega0: float, omegas: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Coupling constants of the excitation-exchange (rotating-wave) form.

    Complex amplitudes rho_k map to
        G_k = sqrt(omega0 omega_k) Re rho_k,
        Z_k = Re rho_k / sqrt(omega0 omega_k),
        V_k = sqrt(omega0 / omega_k) Im rho_k,
        U_k = -sqrt(omega_k / omega0) Im rho_k,
    which obey U_k V_k - G_k Z_k = -|rho_k|^2, so the damping produced by a
    non-negative coupling profile is non-negative.
    """
    rho = np.atleast_1d(np.asarray(rho, dtype=complex))
    omegas = _as_float_array(omegas, "omegas")
    if rho.size != omegas.size:
        raise ValueError(
            f"rho has length {rho.size}, expected {omegas.size} to match omegas"
        )
    if not omega0 > 0.0:
        raise ValueError(f"omega0 must be > 0, got {omega0}")
    re, im = rho.real, rho.imag
    G = np.sqrt(omega0 * omegas) * re
    Z = re / np.sqrt(omega0 * omegas)
    V = np.sqrt(omega0 / omegas) * im
    U = -np.sqrt(omegas / omega0) * im
    return U, V, G, Z


def bath_from_rwa(
    rho: np.ndarray,
    omegas: np.ndarray,
    nu: TimeProfile,
    omega0: float = 1.0,
    temperature: float = 0.0,
) -> BathSpec:
    U, V, G, Z = rwa_couplings(rho, omega0, omegas)
    return BathSpec(
        omegas=omegas, U=U, V=V, G=G, Z=Z, nu=nu, temperature=temperature
    )


def uniform_bath_frequencies(
    n: int, lo: float = 0.2, hi: float = 3.0
) -> np.ndarray:
    """Default bath grid: n frequencies evenly spaced on [lo, hi]."""
    if n < 1:
        raise ValueError(f"need at least one bath mode, got {n}")
    if not (0.0 < lo < hi):
        raise ValueError(f"need 0 < lo < hi, got lo={lo}, hi={hi}")
    if n == 1:
        return np.array([0.5 * (lo + hi)])
    return np.linspace(lo, hi, n)


def random_couplings(
    n: int, scale: float = 0.5, seed: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Seeded uniform coupling constants in [-scale, scale], one draw per
    constant; the seed is what run metadata records."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    draw = rng.uniform(-scale, scale, size=(4, n))
    return draw[0], draw[1], draw[2], draw[3]
