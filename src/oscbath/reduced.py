"""Reduced Gaussian dynamics of the central oscillator.

For a product initial state (central Gaussian times Gaussian reservoir with
covariance F) the reduced state stays Gaussian with

    mean(t) = R11 mean(0),
    cov(t)  = R11 cov(0) R11^T + M*(t),      M* = R12 F R12^T.

The instantaneous drift and diffusion of the equivalent local generator are
recovered algebraically from the propagator blocks, never by finite
differencing:

    A(t)  = A11(t) + A12(t) R21 R11^{-1}
    2 D(t) = A12 (R22 - R21 R11^{-1} R12) F R12^T  + (transpose of the same)

The damping rate is gamma(t) = -tr(A - A11)/2.  The complex noise kernel is
X = 2 D + i gamma K with K = [[0, 1], [-1, 0]]; its antisymmetric imaginary
part is what preserves the canonical commutator under the reduced flow.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .propagate import PropagatorState, PropagatorTrajectory
from .errors import IntegrationError
from .system import SystemSpec, coupling_layout_12

__all__ = [
    "CentralGaussian",
    "ReducedDynamics",
    "reduced_covariance",
    "evolve_gaussian",
    "noise_matrix",
    "damping_rate",
    "extract_reduced",
    "photon_number",
    "COND_LIMIT",
    "ANTISYM_UNIT",
]

# Extraction points where cond(R11) exceeds this are reported and skipped.
COND_LIMIT = 1e8

# Antisymmetric unit entering the noise kernel, (p, x) ordering.
ANTISYM_UNIT = np.array([[0.0, 1.0], [-1.0, 0.0]])

# Residual skew above this after symmetrization indicates a real asymmetry
# rather than roundoff, and is not silently absorbed.
_SKEW_TOL = 1e-13


@dataclass(frozen=True)
class CentralGaussian:
    """First and second moments of the central oscillator, (p, x) ordering."""

    mean: np.ndarray  # (2,)
    cov: np.ndarray   # (2, 2) symmetric

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(2)
        cov = np.asarray(self.cov, dtype=float).reshape(2, 2)
        skew = abs(cov[0, 1] - cov[1, 0])
        if skew > _SKEW_TOL * max(1.0, float(np.abs(cov).max())):
            raise ValueError(f"covariance must be symmetric; skew={skew:.3e}")
        cov = 0.5 * (cov + cov.T)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @classmethod
    def vacuum(cls) -> "CentralGaussian":
        return cls(mean=np.zeros(2), cov=0.5 * np.eye(2))

    def is_physical(self, tol: float = 1e-9) -> bool:
        """Uncertainty check det(cov) >= 1/4, up to tolerance."""
        return float(np.linalg.det(self.cov)) >= 0.25 - tol


@dataclass(frozen=True)
class ReducedDynamics:
    """Local generator data of the reduced evolution, stacked over the
    points of a trajectory that extraction kept: ``ts`` (T,), the drift
    ``A`` (T, 2, 2) and damping rate ``gamma`` (T,), and when a reservoir
    covariance was given the diffusion ``D``, the accumulated reservoir
    covariance ``Mstar`` (T, 2, 2) and the complex noise kernel ``X``."""

    ts: np.ndarray
    A: np.ndarray
    gamma: np.ndarray
    D: np.ndarray | None = None
    Mstar: np.ndarray | None = None
    X: np.ndarray | None = None

    def __len__(self) -> int:
        return self.ts.size


def reduced_covariance(state: PropagatorState, F: np.ndarray) -> np.ndarray:
    """Reservoir-injected covariance M* = R12 F R12^T."""
    return state.R12 @ F @ state.R12.T


def evolve_gaussian(
    initial: CentralGaussian, state: PropagatorState, F: np.ndarray
) -> CentralGaussian:
    """Reduced Gaussian state at the propagator's time."""
    mean = state.R11 @ initial.mean
    cov = state.R11 @ initial.cov @ state.R11.T + reduced_covariance(state, F)
    cov = 0.5 * (cov + cov.T)
    return CentralGaussian(mean=mean, cov=cov)


def _condition_numbers(M: np.ndarray) -> np.ndarray:
    """2-norm condition number of each 2x2 matrix of a (T, 2, 2) stack;
    inf where det = 0.

    The larger singular value is (p + q)/2 with p = |(a + d, b - c)| and
    q = |(a - d, b + c)|, and the product of both is |det|.
    """
    a, b, c, d = M[:, 0, 0], M[:, 0, 1], M[:, 1, 0], M[:, 1, 1]
    det = a * d - b * c
    big = (np.hypot(a + d, b - c) + np.hypot(a - d, b + c)) ** 2
    return np.divide(
        big, 4.0 * np.abs(det), out=np.full(det.shape, np.inf),
        where=det != 0.0,
    )


def damping_rate(A: np.ndarray, A11: np.ndarray | None = None) -> float:
    """gamma = -tr(A - A11)/2; the free part is traceless, so this is
    just -(A_pp + A_xx)/2 when A11 is omitted."""
    tr = A[0, 0] + A[1, 1]
    if A11 is not None:
        tr -= A11[0, 0] + A11[1, 1]
    return -0.5 * float(tr)


def noise_matrix(D: np.ndarray, gamma: float) -> np.ndarray:
    """Complex noise kernel X = 2 D + i gamma K.

    By construction X + X^T = 4 D and X_12 - X_21 = 2 i gamma, the
    commutator-preserving combination.  X is Hermitian; it is positive
    semidefinite exactly when the noise is strong enough to balance the
    damping.
    """
    return 2.0 * np.asarray(D, dtype=float) + 1j * gamma * ANTISYM_UNIT


def extract_reduced(
    traj: PropagatorTrajectory,
    spec: SystemSpec,
    F: np.ndarray | None = None,
) -> ReducedDynamics:
    """Drift and damping rate, and given F the diffusion, at every point of
    ``traj`` where R11 is invertible within ``COND_LIMIT`` (read at call
    time), in one stacked pass.

    Each skipped point warns once.  Each profile is evaluated once, on all
    the trajectory's times, and A12 = nu L12 as ``build_A12`` builds it.
    The diffusion is formed from the 2 x 2N strip

        M = A12 (R22 - R21 R11^{-1} R12) = A12 R22 - (A12 R21 R11^{-1}) R12,

    never from the 2N x 2N core.  Raises :class:`IntegrationError` naming
    the time of the first point whose two diffusion terms disagree beyond
    roundoff.
    """
    ts, R = traj.ts, traj.R
    cond = _condition_numbers(R[:, :2, :2])
    usable = np.isfinite(cond) & (cond <= COND_LIMIT)
    for k in np.flatnonzero(~usable).tolist():
        warnings.warn(
            f"R11 near-singular at t={ts[k]:.6g} (cond={cond[k]:.3e});"
            " point skipped",
            RuntimeWarning,
            stacklevel=2,
        )
    w = spec.omega.values(ts)[usable]
    nu = spec.bath.nu.values(ts)[usable]
    if not usable.all():
        ts, R = ts[usable], R[usable]
    R11, R12, R21 = R[:, :2, :2], R[:, :2, 2:], R[:, 2:, :2]
    adj = np.empty_like(R11)
    adj[:, 0, 0], adj[:, 1, 1] = R11[:, 1, 1], R11[:, 0, 0]
    adj[:, 0, 1], adj[:, 1, 0] = -R11[:, 0, 1], -R11[:, 1, 0]
    det = R11[:, 0, 0] * R11[:, 1, 1] - R11[:, 0, 1] * R11[:, 1, 0]
    A12 = nu[:, None, None] * coupling_layout_12(spec.bath)
    B = A12 @ R21 @ (adj / det[:, None, None])  # A12 R21 R11^{-1}
    A = np.zeros_like(B)  # A11 = [[0, -w^2], [1, 0]]
    A[:, 0, 1] = -w * w
    A[:, 1, 0] = 1.0
    A += B
    # A11 is traceless, so leaving it out gives the same float
    gamma = -0.5 * (A[:, 0, 0] + A[:, 1, 1])
    if F is None:
        return ReducedDynamics(ts=ts, A=A, gamma=gamma)

    M = A12 @ R[:, 2:, 2:]
    M -= B @ R12
    R12F = R12 @ F
    R12T = R12.transpose(0, 2, 1)
    # The two terms are transposes of each other algebraically; computing
    # both keeps the roundoff-skew check meaningful.
    two_D = M @ F @ R12T
    two_D += R12F @ M.transpose(0, 2, 1)
    skew = np.abs(two_D[:, 0, 1] - two_D[:, 1, 0])
    scale = np.maximum(1.0, np.abs(two_D).max(axis=(1, 2)))
    bad = np.flatnonzero(skew > _SKEW_TOL * scale)
    if bad.size:
        k = bad[0]
        raise IntegrationError(
            f"diffusion asymmetry {skew[k]:.3e} beyond roundoff"
            f" at t={ts[k]:.6g}",
            t=float(ts[k]),
        )
    D = 0.25 * (two_D + two_D.transpose(0, 2, 1))
    return ReducedDynamics(
        ts=ts, A=A, gamma=gamma, D=D, Mstar=R12F @ R12T,
        X=2.0 * D + 1j * gamma[:, None, None] * ANTISYM_UNIT,
    )


def photon_number(state: CentralGaussian) -> float:
    """Mean quantum number (cov_pp + cov_xx + |mean|^2 - 1) / 2 at unit
    reference frequency."""
    return 0.5 * (
        state.cov[0, 0]
        + state.cov[1, 1]
        + float(state.mean @ state.mean)
        - 1.0
    )
