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

import math
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
    "drift_exact",
    "diffusion_exact",
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
    """Local generator data of the reduced evolution at one time."""

    t: float
    A: np.ndarray        # (2, 2) drift
    Mstar: np.ndarray    # (2, 2) accumulated reservoir covariance
    D: np.ndarray        # (2, 2) symmetric diffusion
    X: np.ndarray        # (2, 2) complex noise kernel
    gamma: float         # damping rate


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


def _inv_2x2(M: np.ndarray) -> np.ndarray:
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    return np.array([[M[1, 1], -M[0, 1]], [-M[1, 0], M[0, 0]]]) / det


def _cond_2x2(M: np.ndarray) -> float:
    """2-norm condition number of a 2x2 matrix; inf when det = 0.

    The larger singular value is (p + q)/2 with p = |(a + d, b - c)| and
    q = |(a - d, b + c)|, and the product of both is |det|.
    """
    (a, b), (c, d) = M.tolist()
    det = a * d - b * c
    if det == 0.0:
        return math.inf
    return (math.hypot(a + d, b - c) + math.hypot(a - d, b + c)) ** 2 / (
        4.0 * abs(det)
    )


def _usable(state: PropagatorState, cond_limit: float) -> bool:
    c = _cond_2x2(state.R11)
    if not np.isfinite(c) or c > cond_limit:
        warnings.warn(
            f"R11 near-singular at t={state.t:.6g} (cond={c:.3e}); point skipped",
            RuntimeWarning,
            stacklevel=4,
        )
        return False
    return True


def _drift_at(state: PropagatorState, w: float, A12: np.ndarray) -> np.ndarray:
    A11 = np.array([[0.0, -w * w], [1.0, 0.0]])  # build_A11 at omega = w
    return A11 + A12 @ state.R21 @ _inv_2x2(state.R11)


def _diffusion_at(
    state: PropagatorState, F: np.ndarray, A12: np.ndarray
) -> np.ndarray:
    core = state.R22 - state.R21 @ _inv_2x2(state.R11) @ state.R12
    # The two terms are transposes of each other algebraically; computing
    # both keeps the roundoff-skew check meaningful.
    term1 = A12 @ core @ F @ state.R12.T
    term2 = state.R12 @ F @ core.T @ A12.T
    two_D = term1 + term2
    skew = float(np.abs(two_D - two_D.T).max())
    if skew > _SKEW_TOL * max(1.0, float(np.abs(two_D).max())):
        raise IntegrationError(
            f"diffusion asymmetry {skew:.3e} beyond roundoff"
            f" at t={state.t:.6g}",
            t=float(state.t),
        )
    return 0.25 * (two_D + two_D.T)


def _usable_points(traj: PropagatorTrajectory, spec: SystemSpec, cond_limit):
    """(state, omega, A12) at every point where R11 is invertible within
    ``cond_limit``.  Each profile is evaluated once, on all the points'
    times; A12 is built as ``build_A12`` does."""
    ts = np.array([state.t for state in traj], dtype=float)
    ws = spec.omega.values(ts).tolist()
    nus = spec.bath.nu.values(ts).tolist()
    L12 = coupling_layout_12(spec.bath)
    for state, w, nu in zip(traj, ws, nus):
        if _usable(state, cond_limit):
            yield state, w, nu * L12


def drift_exact(
    traj: PropagatorTrajectory,
    spec: SystemSpec,
    cond_limit: float = COND_LIMIT,
) -> tuple[np.ndarray, np.ndarray]:
    """Drift A(t) along a trajectory.

    Returns (times, drifts) keeping only points where R11 is invertible to
    within ``cond_limit``; skipped points are reported as warnings.
    """
    ts, As = [], []
    for state, w, A12 in _usable_points(traj, spec, cond_limit):
        ts.append(state.t)
        As.append(_drift_at(state, w, A12))
    return np.array(ts), np.array(As)


def diffusion_exact(
    traj: PropagatorTrajectory,
    spec: SystemSpec,
    F: np.ndarray,
    cond_limit: float = COND_LIMIT,
) -> tuple[np.ndarray, np.ndarray]:
    """Diffusion D(t) along a trajectory; same skipping rules as drift.

    Raises :class:`IntegrationError` naming the time of the first point
    whose two diffusion terms disagree beyond roundoff.
    """
    ts, Ds = [], []
    for state, _, A12 in _usable_points(traj, spec, cond_limit):
        ts.append(state.t)
        Ds.append(_diffusion_at(state, F, A12))
    return np.array(ts), np.array(Ds)


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
    F: np.ndarray,
    cond_limit: float = COND_LIMIT,
) -> list[ReducedDynamics]:
    """Full local-generator extraction along a trajectory."""
    out = []
    for state, w, A12 in _usable_points(traj, spec, cond_limit):
        A = _drift_at(state, w, A12)
        D = _diffusion_at(state, F, A12)
        # A11 is traceless, so leaving it out gives the same float
        gamma = damping_rate(A)
        out.append(
            ReducedDynamics(
                t=state.t,
                A=A,
                Mstar=reduced_covariance(state, F),
                D=D,
                X=noise_matrix(D, gamma),
                gamma=gamma,
            )
        )
    return out


def photon_number(state: CentralGaussian) -> float:
    """Mean quantum number (cov_pp + cov_xx + |mean|^2 - 1) / 2 at unit
    reference frequency."""
    return 0.5 * (
        state.cov[0, 0]
        + state.cov[1, 1]
        + float(state.mean @ state.mean)
        - 1.0
    )
