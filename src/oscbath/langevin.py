"""Local oscillator model with damping, noise and modulated frequency.

The momentum-first equations of motion are

    dp/dt = -gamma_p(t) p - omega(t)^2 x + F_p
    dx/dt =  p - gamma_x(t) x + F_x

with drift A = [[-gamma_p, -omega^2], [1, -gamma_x]].  The damping split is
parametrized by the mean rate gamma(t) and asymmetry y:
gamma_p = (1+y) gamma, gamma_x = (1-y) gamma.  First and second moments obey

    mean' = A mean,      cov' = A cov + cov A^T + 2 D,

where D comes from the symmetric part of the noise correlations.  The model
derives its NoiseSet from (gamma, y, omega0, G), so the commutator
condition chi_xp - chi_px = 2 i gamma holds by construction.

The homogeneous dynamics reduces to a complex amplitude:  substituting
x = eps(t) exp(-int gamma) turns the damped equation into

    eps'' + omega_ef^2(t) eps = 0,
    omega_ef^2 = omega^2 + delta' - delta^2,    delta = (gamma_x - gamma_p)/2,

so an asymmetric split (y != 0) shifts the effective frequency through
delta' even when the mean damping is unchanged.  For y = 0, delta and
delta' vanish and omega_ef^2 is exactly omega^2.  A jump in gamma would make
delta' distributional, hence discontinuous gamma profiles are rejected
whenever y != 0; callers must smooth them (finite rise times).

Both are linear, z' = L(t) z, and are stepped by fixed-step classical
Runge-Kutta through one core, :func:`oscbath.propagate.linear_flow`: the
moments as z = (m_p, m_x, c_pp, c_px, c_xx, 1), whose 6x6 generator holds
the diffusion 2 D in its last column (the augmented form of Van Loan, IEEE
TAC 23:395, 1978), and the amplitude as the complex z = (eps, eps') under
the real generator [[0, 1], [-omega_ef^2, 0]].  The core returns z at
every grid point as one stacked array, and each run checks its invariant
(finite moments, the Wronskian) once, on the whole stack.  The
coefficients are tabulated on the stage nodes of a block of steps, each
profile once per node set; when omega and gamma are both exactly
:class:`Constant` the generator is fixed and each grid interval is one
power of the RK4 map.  Every coefficient is evaluated on an array of
times: :func:`effective_frequency_terms` gives (omega^2, delta', delta^2)
at each time (a scalar counts as one time), and ``_drift_diffusion`` the
drift and diffusion entries at each node.

The trajectory sampler is Euler-Maruyama driven by counter-based random
substreams, one per trajectory, so results are bit-reproducible for a
given seed.  No scenario runs it yet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IntegrationError
from .perturb import NoiseSet
from .profiles import TimeProfile, tabulate
from .propagate import _check_grid, _resolving_step, linear_flow
from .reduced import CentralGaussian, MomentTrajectory

__all__ = [
    "LangevinModel",
    "EpsilonSolution",
    "SampledMoments",
    "drift_matrix",
    "diffusion_matrix",
    "evolve_moments",
    "evolve_moments_tabulated",
    "effective_frequency_terms",
    "epsilon_solver",
    "sample_trajectories",
    "stationary_covariance",
]

_WRONSKIAN_TOL = 1e-8
# Entries (rows, cols) of the moment generator set by :func:`_moment_run`,
# for z = (m_p, m_x, c_pp, c_px, c_xx, 1).
_MOMENT_ENTRIES = (
    (0, 0, 1, 1, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4),
    (0, 1, 0, 1, 2, 3, 5, 2, 3, 4, 5, 3, 4, 5),
)
# Trajectories are simulated and summed in blocks of this size, the block
# sums added in trajectory order.
_SUM_BLOCK = 64


def _probe_times(profile: TimeProfile) -> np.ndarray:
    lo, hi = profile.domain
    if math.isfinite(lo) and math.isfinite(hi):
        return np.linspace(lo, hi, 41)
    s_lo, s_hi = profile.support()
    if math.isfinite(s_lo) and math.isfinite(s_hi) and s_hi > s_lo:
        return np.linspace(s_lo, min(s_hi, s_lo + 1000.0), 41)
    return np.linspace(0.0, 10.0, 41)


@dataclass(frozen=True)
class LangevinModel:
    """Frequency and damping profiles, damping split y, oscillator frequency
    omega0 and thermal factor G.

    ``chi`` is derived, not given: the minimum-noise set of the split,
    chi_pp = gamma_p omega0 G, chi_xx = gamma_x G / omega0 and
    chi_xp = -chi_px = i gamma (see :class:`oscbath.perturb.NoiseSet`).
    """

    omega: TimeProfile
    gamma: TimeProfile
    y: float = 0.0
    omega0: float = 1.0
    G: float = 1.0
    chi: NoiseSet = field(init=False)

    def __post_init__(self):
        # checks omega0 > 0, G >= 1 and |y| <= 1
        object.__setattr__(
            self, "chi", NoiseSet(self.gamma, self.y, self.omega0, self.G)
        )
        if self.y != 0.0 and not self.gamma.is_continuous:
            raise ValueError(
                "discontinuous gamma profile with y != 0 would make the"
                " effective frequency distributional; smooth the profile"
                " (finite rise time) first"
            )
        probes = _probe_times(self.gamma)
        g = self.gamma.values(probes)
        if np.any(g < 0.0):
            t = probes[np.argmax(g < 0.0)]
            raise ValueError(f"gamma(t) must be non-negative; fails near t={t}")


def drift_matrix(model: LangevinModel, t: float) -> np.ndarray:
    """[[-gamma_p, -omega^2], [1, -gamma_x]]: one node of _drift_diffusion."""
    entries = _drift_diffusion(model, np.array([float(t)]))[:4]
    return np.array(entries).reshape(2, 2)


def diffusion_matrix(model: LangevinModel, t: float) -> np.ndarray:
    return model.chi.diffusion(t)


def _moment_run(
    initial: CentralGaussian, ts: np.ndarray, dt: float, drift_diffusion,
    profiles: tuple = (),
) -> MomentTrajectory:
    """Moments on the grid, checked at every grid point.
    ``drift_diffusion(nodes)`` gives (a11, a12, a21, a22, d11, d12, d22)
    over the nodes: mean' = A mean and cov' = A cov + cov A^T + 2 D.
    ``profiles`` are those it reads, none for tables (see
    :func:`~oscbath.propagate.linear_flow`)."""

    def coefficients(nodes: np.ndarray) -> tuple:
        a11, a12, a21, a22, d11, d12, d22 = drift_diffusion(nodes)
        return (a11, a12, a21, a22, 2.0 * a11, 2.0 * a12, 2.0 * d11,
                a21, a11 + a22, a12, 2.0 * d12, 2.0 * a21, 2.0 * a22,
                2.0 * d22)

    C = initial.cov
    z = np.array([*initial.mean, C[0, 0], C[0, 1], C[1, 1], 1.0], float)
    Z = linear_flow(z, ts, dt, np.zeros((6, 6)), _MOMENT_ENTRIES,
                    coefficients, profiles)
    bad = np.flatnonzero(~np.isfinite(Z).all(axis=1))
    if bad.size:
        t = float(ts[bad[0]])
        raise IntegrationError(f"moments became non-finite at t={t:.6g}", t=t)
    covs = Z[:, (2, 3, 3, 4)].reshape(-1, 2, 2)
    return MomentTrajectory(ts=ts, means=Z[:, :2].copy(), covs=covs)


def _drift_diffusion(model: LangevinModel, nodes: np.ndarray) -> tuple:
    """(a11, a12, a21, a22, d11, d12, d22): the drift
    [[-gamma_p, -omega^2], [1, -gamma_x]] and the noise set's diffusion at
    each node, each profile tabulated once."""
    w, g = tabulate((model.omega, model.gamma), nodes)
    gamma_p, gamma_x = model.chi.split(g)
    d_pp, d_xx = model.chi.diffusion_of(g)
    return (-gamma_p, -w * w, np.ones_like(w), -gamma_x, d_pp,
            np.zeros_like(w), d_xx)


def _default_model_step(model: LangevinModel, grid: np.ndarray) -> float:
    w_max = max(float(np.max(np.abs(model.omega.values(grid)))), model.omega0)
    return _resolving_step(w_max, (model.gamma, model.omega))


def evolve_moments(
    model: LangevinModel,
    initial: CentralGaussian,
    grid: np.ndarray,
    dt: float | None = None,
) -> MomentTrajectory:
    """Moment trajectory of the local model on a grid, with the drift of
    ``drift_matrix`` and the diffusion of ``diffusion_matrix``."""
    ts = _check_grid(grid)
    if dt is None:
        dt = _default_model_step(model, ts)
    return _moment_run(
        initial, ts, dt, lambda nodes: _drift_diffusion(model, nodes),
        (model.omega, model.gamma),
    )


def evolve_moments_tabulated(
    ts_fine: np.ndarray,
    A_fine: np.ndarray,
    D_fine: np.ndarray,
    initial: CentralGaussian,
) -> MomentTrajectory:
    """Runge-Kutta using coefficients tabulated at half-step resolution.

    ``ts_fine`` must be uniform with an odd number of points; entries
    2i, 2i+1, 2i+2 provide the stage values for coarse step i.  The output
    lives on the even-index (coarse) points.  Used when the coefficients
    come from an extraction pass rather than parametric profiles, to avoid
    interpolation noise.
    """
    ts_fine = np.asarray(ts_fine, dtype=float)
    if ts_fine.size < 3 or ts_fine.size % 2 == 0:
        raise ValueError("need an odd number (>= 3) of fine grid points")
    steps = np.diff(ts_fine)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-15):
        raise ValueError("fine grid must be uniform")
    A_fine = np.asarray(A_fine, dtype=float)
    D_fine = np.asarray(D_fine, dtype=float)
    if A_fine.shape != (ts_fine.size, 2, 2) or D_fine.shape != (ts_fine.size, 2, 2):
        raise ValueError("coefficient tables must match the fine grid length")

    def drift_diffusion(nodes: np.ndarray) -> tuple:
        # the tables at the fine point of each stage node
        at = np.rint((nodes - ts_fine[0]) / steps[0]).astype(np.intp)
        A, D = A_fine[at], D_fine[at]
        return (A[:, 0, 0], A[:, 0, 1], A[:, 1, 0], A[:, 1, 1],
                D[:, 0, 0], D[:, 0, 1], D[:, 1, 1])

    # one step per coarse interval
    return _moment_run(initial, ts_fine[::2].copy(), math.inf, drift_diffusion)


def effective_frequency_terms(
    model: LangevinModel, ts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(omega^2, delta', delta^2) entering the effective frequency, at each
    time of ``ts`` (a scalar counts as one time)."""
    ts = np.atleast_1d(ts)
    w, g = tabulate((model.omega, model.gamma), ts)
    delta = -model.y * g
    delta_dot = -model.y * model.gamma.derivatives(ts)
    return w * w, delta_dot, delta * delta


@dataclass(frozen=True)
class EpsilonSolution:
    """Complex amplitude solution with its conservation diagnostic."""

    ts: np.ndarray
    eps: np.ndarray       # complex amplitudes
    eps_dot: np.ndarray   # complex derivatives
    wronskian_drift: float


def epsilon_solver(
    model: LangevinModel,
    grid: np.ndarray,
    dt: float | None = None,
    wronskian_tol: float = _WRONSKIAN_TOL,
) -> EpsilonSolution:
    """Integrate eps'' + omega_ef^2(t) eps = 0 with eps(0) = 1,
    eps'(0) = i omega0.

    The Wronskian eps' eps* - eps'* eps (equal to 2 i omega0 initially) is
    conserved by the exact flow; its relative drift is computed at every
    grid point once the whole grid has been stepped, and a violation of
    ``wronskian_tol`` raises :class:`IntegrationError` naming the first
    violating point.
    """
    ts = _check_grid(grid)
    if dt is None:
        dt = _default_model_step(model, ts)

    def coefficients(nodes: np.ndarray) -> tuple:
        if model.y == 0.0:
            w = model.omega.values(nodes)
            return (-(w * w),)
        w2, delta_dot, delta2 = effective_frequency_terms(model, nodes)
        return (-(w2 + delta_dot - delta2),)

    eps, deps = linear_flow(
        np.array([1.0 + 0.0j, 1j * model.omega0]), ts, dt,
        np.array([[0.0, 1.0], [0.0, 0.0]]), ((1,), (0,)), coefficients,
        (model.omega, model.gamma),
    ).T.copy()
    # eps' eps* - eps'* eps = 2 i w with w = Im(eps' eps*); formed from
    # the parts, w rounds as the scalar complex products do (the array
    # complex product rounds differently), so the drift is theirs bitwise
    w = deps.imag * eps.real - deps.real * eps.imag
    drift = np.abs(w - w[0]) / np.abs(w[0])
    bad = np.flatnonzero(~(drift <= wronskian_tol))
    if bad.size:
        i = bad[0]
        raise IntegrationError(
            f"Wronskian drift {drift[i]:.3e} exceeds {wronskian_tol:.1e}"
            f" at t={ts[i]:.6g}", t=float(ts[i]))
    return EpsilonSolution(
        ts=ts, eps=eps, eps_dot=deps, wronskian_drift=float(drift.max())
    )


@dataclass(frozen=True)
class SampledMoments:
    """Sample statistics over stochastic trajectories, with standard errors."""

    ts: np.ndarray
    mean: np.ndarray      # (M, 2)
    cov: np.ndarray       # (M, 2, 2)
    mean_se: np.ndarray   # (M, 2)
    cov_se: np.ndarray    # (M, 2, 2)
    count: int
    seed: int


def _chol_2x2(C: np.ndarray) -> np.ndarray:
    c11, c12, c22 = C[0, 0], C[0, 1], C[1, 1]
    out = np.zeros((2, 2))
    if c11 > 0.0:
        out[0, 0] = math.sqrt(c11)
        out[1, 0] = c12 / out[0, 0]
        rem = c22 - out[1, 0] ** 2
        out[1, 1] = math.sqrt(max(rem, 0.0))
    else:
        out[1, 1] = math.sqrt(max(c22, 0.0))
    return out


def sample_trajectories(
    model: LangevinModel,
    initial: CentralGaussian,
    grid: np.ndarray,
    count: int,
    seed: int,
) -> SampledMoments:
    """Euler-Maruyama ensemble of the Langevin equations.

    Each trajectory draws from its own counter-based substream keyed by
    (seed, trajectory index), and sums are accumulated over fixed-size
    blocks in trajectory order, so the ensemble statistics are
    bit-identical for a given seed.  Only the symmetric diffusion enters
    the stochastic term; the antisymmetric (commutator) part of the noise
    has no classical counterpart.
    """
    ts = _check_grid(grid)
    if count < 2:
        raise ValueError(f"need at least two trajectories, got {count}")
    n_steps = ts.size - 1
    hs = np.diff(ts)

    # Per-step drift and noise amplitude, tabulated once; D is diagonal,
    # so its Cholesky factor is sqrt(2 D) on the diagonal.
    a11, a12, a21, a22, d11, _, d22 = _drift_diffusion(model, ts[:-1])
    As = np.stack((a11, a12, a21, a22), axis=-1).reshape(-1, 2, 2)
    Bs = np.zeros_like(As)
    Bs[:, 0, 0] = np.sqrt(np.maximum(2.0 * d11, 0.0))
    Bs[:, 1, 1] = np.sqrt(np.maximum(2.0 * d22, 0.0))
    B0 = _chol_2x2(initial.cov)
    mean0 = initial.mean

    sum_mean = np.zeros((ts.size, 2))
    sum_outer = np.zeros((ts.size, 2, 2))
    for lo in range(0, count, _SUM_BLOCK):
        m = min(_SUM_BLOCK, count - lo)
        noise = np.empty((m, n_steps + 1, 2))
        for j in range(m):
            rng = np.random.Generator(
                np.random.Philox(key=np.array([seed, lo + j], dtype=np.uint64))
            )
            noise[j] = rng.standard_normal((n_steps + 1, 2))
        Q = mean0[:, None] + B0 @ noise[:, 0, :].T  # (2, m)
        s_mean = np.empty((ts.size, 2))
        s_outer = np.empty((ts.size, 2, 2))
        s_mean[0] = Q.sum(axis=1)
        s_outer[0] = Q @ Q.T
        for i in range(n_steps):
            h = hs[i]
            Q = Q + h * (As[i] @ Q) + math.sqrt(h) * (Bs[i] @ noise[:, i + 1, :].T)
            s_mean[i + 1] = Q.sum(axis=1)
            s_outer[i + 1] = Q @ Q.T
        sum_mean += s_mean
        sum_outer += s_outer

    n = float(count)
    mean = sum_mean / n
    outer_mean = np.einsum("ti,tj->tij", mean, mean)
    cov = (sum_outer - n * outer_mean) / (n - 1.0)
    var = np.stack([cov[:, 0, 0], cov[:, 1, 1]], axis=1)
    mean_se = np.sqrt(np.clip(var, 0.0, None) / n)
    # Gaussian estimator variance: Var(C_ij) ~ (C_ii C_jj + C_ij^2)/(n-1).
    cov_se = np.sqrt(
        (np.einsum("ti,tj->tij", var, var) + cov**2) / (n - 1.0)
    )
    return SampledMoments(
        ts=ts,
        mean=mean,
        cov=cov,
        mean_se=mean_se,
        cov_se=cov_se,
        count=count,
        seed=seed,
    )


def stationary_covariance(A: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Solve A C + C A^T + 2 D = 0 for the stationary covariance.

    With column-major vec, vec(A C + C A^T) = (I (x) A + A (x) I) vec C, so
    the n x n equation is one n^2 x n^2 linear solve (4 x 4 for the
    central drift).  The drift must be Hurwitz for the result to be
    meaningful.
    """
    A = np.asarray(A, float)
    n = A.shape[0]
    eye = np.eye(n)
    K = np.kron(eye, A) + np.kron(A, eye)
    vec_d = np.asarray(D, float).ravel(order="F")
    return np.linalg.solve(K, -2.0 * vec_d).reshape((n, n), order="F")
