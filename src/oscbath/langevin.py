"""Local oscillator model with damping, noise and modulated frequency.

The momentum-first equations of motion are

    dp/dt = -gamma_p(t) p - omega(t)^2 x + F_p
    dx/dt =  p - gamma_x(t) x + F_x

with drift A = [[-gamma_p, -omega^2], [1, -gamma_x]].  The damping split is
parametrized by the mean rate gamma(t) and asymmetry y:
gamma_p = (1+y) gamma, gamma_x = (1-y) gamma.  First and second moments obey

    mean' = A mean,      cov' = A cov + cov A^T + 2 D,

where D comes from the symmetric part of the noise correlations.  The model
carries a NoiseSet whose commutator defect must vanish; sets violating
chi_xp - chi_px = 2 i gamma are rejected at construction.

The homogeneous dynamics reduces to a complex amplitude:  substituting
x = eps(t) exp(-int gamma) turns the damped equation into

    eps'' + omega_ef^2(t) eps = 0,
    omega_ef^2 = omega^2 + delta' - delta^2,    delta = (gamma_x - gamma_p)/2,

so an asymmetric split (y != 0) shifts the effective frequency through
delta' even when the mean damping is unchanged.  A jump in gamma would make
delta' distributional, hence discontinuous gamma profiles are rejected
whenever y != 0; callers must smooth them (finite rise times).

Moment and amplitude integrators are classical fixed-step Runge-Kutta coded
on scalars.  They tabulate the model's coefficients on the stage nodes of
a block of steps at a time, with the profiles' vectorized closed forms,
and step through the tables.  The trajectory sampler is Euler-Maruyama
driven by counter-based random substreams, one per trajectory, so results
are bit-reproducible for a given seed regardless of batching.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from .errors import IntegrationError
from .perturb import NoiseSet
from .profiles import TimeProfile
from .propagate import rk4_blocks
from .reduced import CentralGaussian

__all__ = [
    "MomentState",
    "LangevinModel",
    "MomentTrajectory",
    "EpsilonSolution",
    "SampledMoments",
    "drift_matrix",
    "diffusion_matrix",
    "evolve_moments",
    "integrate_moments",
    "evolve_moments_tabulated",
    "effective_frequency_squared",
    "effective_frequency_terms",
    "epsilon_solver",
    "sample_trajectories",
    "stationary_covariance",
]

# The moment state is the same (mean, cov) pair as the reduced description.
MomentState = CentralGaussian

_COMMUTATOR_TOL = 1e-10
_WRONSKIAN_TOL = 1e-8
_STEPS_PER_TIMESCALE = 400
# Runge-Kutta steps whose coefficients are tabulated together.  Bounds the
# tables held as Python floats, so memory does not grow with the run.
_BLOCK_STEPS = 256
# Stage nodes t, t + h/2, t + h of a step, as fractions of h; the two
# midpoint stages share a node.
_RK4_NODES = (0.0, 0.5, 1.0)
# Trajectory sums are grouped into blocks of this size before the final
# sequential reduction; fixed grouping keeps the result independent of the
# chunk partition and of thread scheduling.
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
    """Frequency and damping profiles plus a commutator-preserving NoiseSet.

    When ``chi`` is omitted, the default set couples the damping split to
    the thermal factor G:  chi_pp = gamma_p omega0 G, chi_xx =
    gamma_x G / omega0, chi_xp = -chi_px = i gamma.
    """

    omega: TimeProfile
    gamma: TimeProfile
    y: float = 0.0
    omega0: float = 1.0
    G: float = 1.0
    chi: NoiseSet | None = None

    def __post_init__(self):
        if not self.omega0 > 0.0:
            raise ValueError(f"omega0 must be > 0, got {self.omega0}")
        if abs(self.y) > 1.0:
            raise ValueError(f"damping asymmetry must satisfy |y| <= 1, got {self.y}")
        if self.y != 0.0 and not self.gamma.is_continuous:
            raise ValueError(
                "discontinuous gamma profile with y != 0 would make the"
                " effective frequency distributional; smooth the profile"
                " (finite rise time) first"
            )
        probes = _probe_times(self.gamma)
        for t in probes:
            if self.gamma.value(float(t)) < 0.0:
                raise ValueError(f"gamma(t) must be non-negative; fails near t={t}")
        if self.chi is None:
            object.__setattr__(
                self,
                "chi",
                NoiseSet.with_asymmetry(
                    self.gamma, y=self.y, omega0=self.omega0, G=self.G
                ),
            )
        chi = self.chi
        scale = max(1.0, max(abs(self.gamma.value(float(t))) for t in probes))
        for t in probes:
            defect = abs(chi.commutator_defect(float(t)))
            if defect > _COMMUTATOR_TOL * scale:
                raise ValueError(
                    f"noise set breaks the commutator condition at t={t}:"
                    f" chi_xp - chi_px - 2 gamma = {defect:.3e}"
                )
            split = abs(
                chi.gamma_p(float(t))
                - (1.0 + self.y) * self.gamma.value(float(t))
            ) + abs(
                chi.gamma_x(float(t))
                - (1.0 - self.y) * self.gamma.value(float(t))
            )
            if split > _COMMUTATOR_TOL * scale:
                raise ValueError(
                    f"noise set damping rates disagree with (gamma, y) at t={t}"
                )

    def gamma_p(self, t: float) -> float:
        return (1.0 + self.y) * self.gamma.value(t)

    def gamma_x(self, t: float) -> float:
        return (1.0 - self.y) * self.gamma.value(t)


def drift_matrix(model: LangevinModel, t: float) -> np.ndarray:
    w = model.omega.value(t)
    return np.array(
        [[-model.gamma_p(t), -w * w], [1.0, -model.gamma_x(t)]]
    )


def diffusion_matrix(model: LangevinModel, t: float) -> np.ndarray:
    return model.chi.diffusion(t)


@dataclass(frozen=True)
class MomentTrajectory:
    ts: np.ndarray
    states: list[CentralGaussian]

    def __len__(self) -> int:
        return len(self.states)

    def __getitem__(self, i: int) -> CentralGaussian:
        return self.states[i]

    @property
    def covs(self) -> np.ndarray:
        return np.array([s.cov for s in self.states])

    @property
    def means(self) -> np.ndarray:
        return np.array([s.mean for s in self.states])

    @property
    def photons(self) -> np.ndarray:
        from .reduced import photon_number

        return np.array([photon_number(s) for s in self.states])


def _moment_rhs(ad, mp, mx, cpp, cpx, cxx):
    a11, a12, a21, a22, d11, d12, d22 = ad
    return (
        a11 * mp + a12 * mx,
        a21 * mp + a22 * mx,
        2.0 * (a11 * cpp + a12 * cpx) + 2.0 * d11,
        a21 * cpp + (a11 + a22) * cpx + a12 * cxx + 2.0 * d12,
        2.0 * (a21 * cpx + a22 * cxx) + 2.0 * d22,
    )


def _rk4_moments(state, h, ad0, ad_half, ad1):
    mp, mx, cpp, cpx, cxx = state
    k1 = _moment_rhs(ad0, mp, mx, cpp, cpx, cxx)
    k2 = _moment_rhs(
        ad_half,
        mp + 0.5 * h * k1[0], mx + 0.5 * h * k1[1],
        cpp + 0.5 * h * k1[2], cpx + 0.5 * h * k1[3], cxx + 0.5 * h * k1[4],
    )
    k3 = _moment_rhs(
        ad_half,
        mp + 0.5 * h * k2[0], mx + 0.5 * h * k2[1],
        cpp + 0.5 * h * k2[2], cpx + 0.5 * h * k2[3], cxx + 0.5 * h * k2[4],
    )
    k4 = _moment_rhs(
        ad1,
        mp + h * k3[0], mx + h * k3[1],
        cpp + h * k3[2], cpx + h * k3[3], cxx + h * k3[4],
    )
    s = h / 6.0
    return (
        mp + s * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
        mx + s * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]),
        cpp + s * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2]),
        cpx + s * (k1[3] + 2.0 * k2[3] + 2.0 * k3[3] + k4[3]),
        cxx + s * (k1[4] + 2.0 * k2[4] + 2.0 * k3[4] + k4[4]),
    )


def _pack_ad(A: np.ndarray, D: np.ndarray) -> tuple:
    return (
        float(A[0, 0]), float(A[0, 1]), float(A[1, 0]), float(A[1, 1]),
        float(D[0, 0]), float(D[0, 1]), float(D[1, 1]),
    )


def integrate_moments(
    drift_fn: Callable[[float], np.ndarray],
    diffusion_fn: Callable[[float], np.ndarray],
    initial: CentralGaussian,
    grid: np.ndarray,
    dt: float | None = None,
) -> MomentTrajectory:
    """Runge-Kutta on the moment equations with callable coefficients.

    Calls the coefficients at every stage node; kept as the scalar
    reference for the tabulated :func:`evolve_moments`.
    """
    ts = _check_grid(grid)

    def ad_at(t: float) -> tuple:
        return _pack_ad(drift_fn(t), diffusion_fn(t))

    state = (
        float(initial.mean[0]), float(initial.mean[1]),
        float(initial.cov[0, 0]), float(initial.cov[0, 1]),
        float(initial.cov[1, 1]),
    )
    states = [initial]
    for t_lo, t_hi in zip(ts[:-1], ts[1:]):
        span = t_hi - t_lo
        n_sub = max(1, math.ceil(span / dt)) if dt else 1
        h = span / n_sub
        t = t_lo
        for _ in range(n_sub):
            state = _rk4_moments(
                state, h, ad_at(t), ad_at(t + 0.5 * h), ad_at(t + h)
            )
            t += h
        mp, mx, cpp, cpx, cxx = state
        if not all(map(math.isfinite, state)):
            raise IntegrationError(
                f"moments became non-finite at t={t_hi:.6g}", t=float(t_hi)
            )
        states.append(
            CentralGaussian(
                mean=np.array([mp, mx]),
                cov=np.array([[cpp, cpx], [cpx, cxx]]),
            )
        )
    return MomentTrajectory(ts=ts, states=states)


def _default_model_step(model: LangevinModel, grid: np.ndarray) -> float:
    w_max = max(
        max(abs(model.omega.value(float(t))) for t in grid), model.omega0
    )
    scale = 2.0 * math.pi / w_max
    for prof in (model.gamma, model.omega):
        ts = prof.timescale()
        if ts is not None and ts > 0.0:
            scale = min(scale, ts)
    return scale / _STEPS_PER_TIMESCALE


def _check_grid(grid) -> np.ndarray:
    ts = np.asarray(grid, dtype=float)
    if ts.ndim != 1 or ts.size < 2 or np.any(np.diff(ts) <= 0.0):
        raise ValueError("grid must be 1-d and strictly increasing")
    return ts


def evolve_moments(
    model: LangevinModel,
    initial: CentralGaussian,
    grid: np.ndarray,
    dt: float | None = None,
) -> MomentTrajectory:
    """Moment trajectory of the local model on a grid.

    Takes the steps of :func:`integrate_moments` fed ``drift_matrix`` and
    ``diffusion_matrix``, with the coefficients tabulated per step block.
    """
    ts = _check_grid(grid)
    if dt is None:
        dt = _default_model_step(model, ts)
    y = model.y
    state = (
        float(initial.mean[0]), float(initial.mean[1]),
        float(initial.cov[0, 0]), float(initial.cov[0, 1]),
        float(initial.cov[1, 1]),
    )
    states = [initial]
    for hs, nodes, ends in rk4_blocks(ts, dt, _RK4_NODES, _BLOCK_STEPS):
        w = model.omega.values(nodes)
        g = model.gamma.values(nodes)
        d_pp, d_xx = model.chi.diffusion_diagonal(nodes)
        n = nodes.size
        # _pack_ad(drift_matrix, diffusion_matrix) at every node
        ad = list(zip(
            (-((1.0 + y) * g)).tolist(), (-w * w).tolist(), [1.0] * n,
            (-((1.0 - y) * g)).tolist(), d_pp.tolist(), [0.0] * n,
            d_xx.tolist(),
        ))
        for j, (h, end) in enumerate(zip(hs, ends)):
            state = _rk4_moments(
                state, h, ad[3 * j], ad[3 * j + 1], ad[3 * j + 2]
            )
            if end < 0:
                continue
            if not all(map(math.isfinite, state)):
                raise IntegrationError(
                    f"moments became non-finite at t={ts[end]:.6g}",
                    t=float(ts[end]),
                )
            mp, mx, cpp, cpx, cxx = state
            states.append(
                CentralGaussian(
                    mean=np.array([mp, mx]),
                    cov=np.array([[cpp, cpx], [cpx, cxx]]),
                )
            )
    return MomentTrajectory(ts=ts, states=states)


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
    h = 2.0 * steps[0]
    state = (
        float(initial.mean[0]), float(initial.mean[1]),
        float(initial.cov[0, 0]), float(initial.cov[0, 1]),
        float(initial.cov[1, 1]),
    )
    states = [initial]
    packed = [_pack_ad(A_fine[i], D_fine[i]) for i in range(ts_fine.size)]
    for i in range((ts_fine.size - 1) // 2):
        state = _rk4_moments(
            state, h, packed[2 * i], packed[2 * i + 1], packed[2 * i + 2]
        )
        mp, mx, cpp, cpx, cxx = state
        states.append(
            CentralGaussian(
                mean=np.array([mp, mx]),
                cov=np.array([[cpp, cpx], [cpx, cxx]]),
            )
        )
    return MomentTrajectory(ts=ts_fine[::2].copy(), states=states)


def effective_frequency_terms(
    model: LangevinModel, t: float
) -> tuple[float, float, float]:
    """(omega^2, delta', delta^2) entering the effective frequency."""
    w = model.omega.value(t)
    delta = -model.y * model.gamma.value(t)
    delta_dot = -model.y * model.gamma.derivative(t)
    return w * w, delta_dot, delta * delta


def effective_frequency_squared(model: LangevinModel, t: float) -> float:
    """omega_ef^2(t) = omega^2 + delta' - delta^2.

    For y = 0 this is exactly omega^2(t); no damping-rate term survives.
    """
    if model.y == 0.0:
        w = model.omega.value(t)
        return w * w
    w2, delta_dot, delta2 = effective_frequency_terms(model, t)
    return w2 + delta_dot - delta2


@dataclass(frozen=True)
class EpsilonSolution:
    """Complex amplitude solution with its conservation diagnostic."""

    ts: np.ndarray
    eps: np.ndarray       # complex amplitudes
    eps_dot: np.ndarray   # complex derivatives
    wronskian_drift: float

    def magnitudes(self) -> np.ndarray:
        return np.abs(self.eps)


def epsilon_solver(
    model: LangevinModel,
    grid: np.ndarray,
    dt: float | None = None,
    wronskian_tol: float = _WRONSKIAN_TOL,
) -> EpsilonSolution:
    """Integrate eps'' + omega_ef^2(t) eps = 0 with eps(0) = 1,
    eps'(0) = i omega0.

    The Wronskian eps' eps* - eps'* eps (equal to 2 i omega0 initially) is
    conserved by the exact flow; its relative drift is monitored at every
    grid point and a violation of ``wronskian_tol`` raises
    :class:`IntegrationError`.
    """
    ts = _check_grid(grid)
    if dt is None:
        dt = _default_model_step(model, ts)

    e = 1.0 + 0.0j
    de = 1j * model.omega0
    w0 = de * e.conjugate() - de.conjugate() * e
    eps_out = np.empty(ts.size, dtype=complex)
    deps_out = np.empty(ts.size, dtype=complex)
    eps_out[0] = e
    deps_out[0] = de
    max_drift = 0.0
    for hs, nodes, ends in rk4_blocks(ts, dt, _RK4_NODES, _BLOCK_STEPS):
        w = model.omega.values(nodes)
        w2 = w * w
        if model.y != 0.0:
            # effective_frequency_squared, element by element
            delta = -model.y * model.gamma.values(nodes)
            delta_dot = -model.y * model.gamma.derivatives(nodes)
            w2 = w2 + delta_dot - delta * delta
        w2 = w2.tolist()
        for j, (h, end) in enumerate(zip(hs, ends)):
            w2_0, w2_h, w2_1 = w2[3 * j], w2[3 * j + 1], w2[3 * j + 2]
            k1e, k1d = de, -w2_0 * e
            k2e, k2d = de + 0.5 * h * k1d, -w2_h * (e + 0.5 * h * k1e)
            k3e, k3d = de + 0.5 * h * k2d, -w2_h * (e + 0.5 * h * k2e)
            k4e, k4d = de + h * k3d, -w2_1 * (e + h * k3e)
            e += (h / 6.0) * (k1e + 2.0 * k2e + 2.0 * k3e + k4e)
            de += (h / 6.0) * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
            if end < 0:
                continue
            eps_out[end] = e
            deps_out[end] = de
            wr = de * e.conjugate() - de.conjugate() * e
            drift = abs(wr - w0) / abs(w0)
            if drift > wronskian_tol:
                raise IntegrationError(
                    f"Wronskian drift {drift:.3e} exceeds {wronskian_tol:.1e}"
                    f" at t={ts[end]:.6g}",
                    t=float(ts[end]),
                )
            max_drift = max(max_drift, drift)
    return EpsilonSolution(
        ts=ts, eps=eps_out, eps_dot=deps_out, wronskian_drift=max_drift
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
    chunk_size: int = 256,
    threads: int | None = None,
) -> SampledMoments:
    """Euler-Maruyama ensemble of the Langevin equations.

    Each trajectory draws from its own counter-based substream keyed by
    (seed, trajectory index), and sums are accumulated over fixed-size
    blocks in trajectory order, so the ensemble statistics are
    bit-identical for a given seed regardless of chunk size or thread
    count.  Only the symmetric diffusion enters the stochastic term; the
    antisymmetric (commutator) part of the noise has no classical
    counterpart.
    """
    ts = _check_grid(grid)
    if count < 2:
        raise ValueError(f"need at least two trajectories, got {count}")
    n_steps = ts.size - 1
    hs = np.diff(ts)

    # Per-step drift and noise amplitude, precomputed once.
    As = [drift_matrix(model, float(t)) for t in ts[:-1]]
    Bs = []
    for t in ts[:-1]:
        D2 = 2.0 * diffusion_matrix(model, float(t))
        Bs.append(_chol_2x2(D2))
    B0 = _chol_2x2(initial.cov)
    mean0 = initial.mean

    # Threading units are whole multiples of the summation block, so chunk
    # boundaries never split a block and the reduction tree is fixed.
    eff = max(_SUM_BLOCK, _SUM_BLOCK * math.ceil(chunk_size / _SUM_BLOCK))
    chunks = [(lo, min(lo + eff, count)) for lo in range(0, count, eff)]

    def run_block(lo: int, hi: int):
        m = hi - lo
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
        return s_mean, s_outer

    def run_chunk(bounds: tuple[int, int]):
        lo, hi = bounds
        return [
            run_block(b, min(b + _SUM_BLOCK, hi)) for b in range(lo, hi, _SUM_BLOCK)
        ]

    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            partials = list(pool.map(run_chunk, chunks))
    else:
        partials = [run_chunk(c) for c in chunks]

    sum_mean = np.zeros((ts.size, 2))
    sum_outer = np.zeros((ts.size, 2, 2))
    for blocks in partials:
        for s_mean, s_outer in blocks:
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

    The drift must be Hurwitz for the result to be meaningful.
    """
    return scipy.linalg.solve_continuous_lyapunov(np.asarray(A, float), -2.0 * np.asarray(D, float))
