"""Phase-space propagator R(t) for the oscillator-bath system.

R solves dR/dt = A(t) R from the identity, where A(t) is the full
(2N+2)-dimensional generator.  Integration is fixed-step classical
Runge-Kutta, taken a block of steps at a time: the frequency and coupling
profiles are tabulated on the stage nodes of the whole block, then every
step adds its increment to R.  The same RK4 map is taken in one of two
forms, chosen from the dimension d = 2N + 2 alone:

- below ``_DIRECT_MIN_DIM`` (small baths) the increments Q = P - I of all
  steps of a block are built with stacked (B, d, d) products, and R then
  advances by one product per step, R <- R + Q R;
- from ``_DIRECT_MIN_DIM`` on (wide baths) each stage generator is applied
  directly to R through its arrow structure: two central rows, two central
  columns and one 2x2 rotation per bath mode, so a stage costs O(N d)
  instead of the d^3 of a dense product.

The switch point is the measured crossover of the two forms.  The
symplectic defect  || R^T J R - J ||_F  is monitored at every grid point
rather than projected away, so a drifting integration fails loudly
instead of being silently repaired.  With the coupling profile
identically zero the off-diagonal blocks stay exactly zero in both forms,
because every coupling term is a product with an exactly zero block;
structure preservation is exact, not approximate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError, UnsupportedFormError
from .system import SystemSpec, build_A22, coupling_layout_12, coupling_layout_21, symplectic_unit

__all__ = [
    "PropagatorState",
    "PropagatorTrajectory",
    "expm_bath",
    "integrate_R",
    "free_central_R11",
    "default_time_step",
    "symplectic_defect",
    "DEFECT_HARD_LIMIT",
]

# Integrations whose defect exceeds this are treated as failures.
DEFECT_HARD_LIMIT = 1e-6

# Sub-steps per characteristic time in the default step heuristic.
_STEPS_PER_TIMESCALE = 400

# Stage nodes of a classical RK4 step, as fractions of the step: one node
# per stage, so the profiles are evaluated four times per step.
_RK4_STAGES = (0.0, 0.5, 0.5, 1.0)
# A block of steps is built in five (B, d, d) stacks of at most
# _BLOCK_BYTES each.  That bounds memory at large d, and _BLOCK_STEPS
# bounds the block at small d and on the direct path, which keeps no
# stacks.
_BLOCK_BYTES = 256 * 1024
_BLOCK_STEPS = 256
# From this dimension d = 2N + 2 on, steps apply the stage generators
# directly to R (O(N d) per stage) instead of stacking dense increments
# (four d^3 products per step).  On a 2-core host with OpenBLAS 0.3 the
# two forms cross between d = 78 and 86: below it the stacked products
# win, from d = 86 on the direct form won every timed run.
_DIRECT_MIN_DIM = 86


@dataclass(frozen=True)
class PropagatorState:
    """Propagator blocks at one time, ordering (p0, x0, p_k.., x_k..)."""

    t: float
    R11: np.ndarray  # (2, 2)     central-to-central
    R12: np.ndarray  # (2, 2N)    bath-to-central
    R21: np.ndarray  # (2N, 2)    central-to-bath
    R22: np.ndarray  # (2N, 2N)   bath-to-bath

    @classmethod
    def from_full(cls, t: float, R: np.ndarray) -> "PropagatorState":
        return cls(
            t=t,
            R11=R[:2, :2].copy(),
            R12=R[:2, 2:].copy(),
            R21=R[2:, :2].copy(),
            R22=R[2:, 2:].copy(),
        )

    def full(self) -> np.ndarray:
        top = np.hstack([self.R11, self.R12])
        bottom = np.hstack([self.R21, self.R22])
        return np.vstack([top, bottom])

    @property
    def n_bath(self) -> int:
        return self.R22.shape[0] // 2


class PropagatorTrajectory:
    """Sequence of propagator states on a time grid, with defects."""

    def __init__(
        self,
        ts: np.ndarray,
        states: list[PropagatorState],
        defects: np.ndarray,
        spec: SystemSpec | None = None,
    ):
        self.ts = np.asarray(ts, dtype=float)
        self.states = states
        self.defects = np.asarray(defects, dtype=float)
        self.spec = spec

    def __len__(self) -> int:
        return len(self.states)

    def __getitem__(self, i: int) -> PropagatorState:
        return self.states[i]

    def __iter__(self):
        return iter(self.states)

    @property
    def max_defect(self) -> float:
        return float(self.defects.max())


def _signed_columns(J: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and value of the one non-zero of each column of J.

    A symplectic unit is a signed permutation, so R^T J is the columns of
    R^T picked by ``rows`` and scaled by ``vals``.
    """
    cols = np.arange(J.shape[1])
    rows = np.argmax(J != 0.0, axis=0)
    vals = J[rows, cols]
    if np.count_nonzero(J) != np.count_nonzero(vals):
        raise UnsupportedFormError(
            "J must hold at most one non-zero entry per column"
        )
    return rows, vals


def _defect(R: np.ndarray, J: np.ndarray, rows, vals) -> float:
    # R^T J by picking and scaling columns: each entry of the dense
    # product is the same single rounded product, so the norm is bitwise
    # that of R.T @ J @ R - J, at one d x d product instead of two.
    M = (R.T[:, rows] * vals) @ R
    M -= J
    return float(np.linalg.norm(M))


def symplectic_defect(R: np.ndarray, J: np.ndarray) -> float:
    """Frobenius norm of R^T J R - J, for J with one non-zero per column
    (every symplectic unit); raises :class:`UnsupportedFormError` for any
    other J."""
    return _defect(R, J, *_signed_columns(J))


def expm_bath(omegas: np.ndarray, t: float) -> np.ndarray:
    """Closed-form exponential of the free bath generator times t.

    Each mode rotates independently:
        p_k(t) =  cos(w_k t) p_k(0) - w_k sin(w_k t) x_k(0)
        x_k(t) =  sin(w_k t) / w_k p_k(0) + cos(w_k t) x_k(0)
    assembled as diagonal blocks in (p.., x..) ordering.
    """
    w = np.atleast_1d(np.asarray(omegas, dtype=float))
    n = w.size
    c = np.cos(w * t)
    s = np.sin(w * t)
    out = np.zeros((2 * n, 2 * n))
    idx = np.arange(n)
    out[idx, idx] = c
    out[n + idx, n + idx] = c
    out[idx, n + idx] = -w * s
    out[n + idx, idx] = s / w
    return out


def default_time_step(spec: SystemSpec) -> float:
    """Fixed step resolving both the fastest bath rotation and the coupling
    pulse: 1/400 of the smaller of (shortest mode period, pulse timescale)."""
    w_max = float(np.max(spec.bath.omegas))
    w_central = max(
        spec.omega.value(float(t)) for t in np.linspace(0.0, spec.t_max, 257)
    )
    w_max = max(w_max, w_central, spec.omega0)
    scale = 2.0 * math.pi / w_max
    ts = spec.bath.nu.timescale()
    if ts is not None and ts > 0.0:
        scale = min(scale, ts)
    ts_omega = spec.omega.timescale()
    if ts_omega is not None and ts_omega > 0.0:
        scale = min(scale, ts_omega)
    return scale / _STEPS_PER_TIMESCALE


def _validate_grid(grid: np.ndarray, t_max: float) -> np.ndarray:
    ts = np.asarray(grid, dtype=float)
    if ts.ndim != 1 or ts.size < 2:
        raise ValueError("grid must be a 1-d array with at least two points")
    if ts[0] != 0.0:
        raise ValueError(f"grid must start at 0, got {ts[0]}")
    if np.any(np.diff(ts) <= 0.0):
        raise ValueError("grid must be strictly increasing")
    if ts[-1] > t_max * (1.0 + 1e-12):
        raise ValueError(f"grid ends at {ts[-1]}, beyond t_max={t_max}")
    return ts


def rk4_blocks(
    ts: np.ndarray, dt: float, fractions: tuple[float, ...], block_steps: int
):
    """Runge-Kutta steps over the grid, in blocks of at most block_steps.

    Grid interval [t_lo, t_hi] is split into max(1, ceil(span / dt)) equal
    steps of length h.  Each block is yielded as (hs, nodes, ends): the
    step lengths, the stage nodes t + f h for every f in ``fractions`` of
    every step, flattened in step order, and per step the index of the grid
    point it ends on, or -1 when it ends inside an interval.
    """
    hs: list[float] = []
    starts: list[float] = []
    ends: list[int] = []
    frac = np.asarray(fractions, dtype=float)

    def block():
        h = np.array(hs)
        nodes = np.array(starts)[:, None] + h[:, None] * frac
        return hs, nodes.ravel(), ends

    for i, (t_lo, t_hi) in enumerate(zip(ts[:-1].tolist(), ts[1:].tolist())):
        span = t_hi - t_lo
        n_sub = max(1, math.ceil(span / dt))
        h = span / n_sub
        t = t_lo
        for k in range(n_sub):
            hs.append(h)
            starts.append(t)
            ends.append(i + 1 if k == n_sub - 1 else -1)
            t += h
            if len(hs) == block_steps:
                yield block()
                hs, starts, ends = [], [], []
    if hs:
        yield block()


def _step_increments(
    hs: list[float],
    w: np.ndarray,
    nu: np.ndarray,
    T: np.ndarray,
    L12: np.ndarray,
    L21: np.ndarray,
    work: np.ndarray,
) -> np.ndarray:
    """Increments Q = P - I of the RK4 maps P of a block of B steps.

    ``w`` and ``nu`` hold the frequency and the coupling at the four stage
    nodes of each step, shape (B, 4); T is the constant part of the
    generator, L12 and L21 the unit coupling layouts.  With the stage
    generators hA_j = h A(t_j),

        K1 = hA1,  K2 = hA2 (I + K1/2),  K3 = hA3 (I + K2/2),
        K4 = hA4 (I + K3),  Q = (K1 + 2 K2 + 2 K3 + K4) / 6.

    ``work`` holds five (B', d, d) stacks with B' >= B.  Every array is
    computed in place there and the result is a (B, d, d) view of it, so
    the allocator does not hand the memory back and fault it in again at
    every block; at d = 130, one step per block, that cost more than the
    elementwise work.
    """
    n_steps = len(hs)
    K1, G, X, K, Q = (a[:n_steps] for a in work)
    h = np.array(hs)
    hnu = (h[:, None] * nu)[:, :, None, None]
    hw2 = -h[:, None] * w * w
    diag = np.arange(T.shape[0])

    def generator(j: int, out: np.ndarray) -> np.ndarray:
        # h A(t_j) = h T + the nu-scaled coupling blocks + the omega^2
        # entry; ``out`` already holds h T outside those entries.
        out[:, :2, 2:] = hnu[:, j] * L12
        out[:, 2:, :2] = hnu[:, j] * L21
        out[:, 0, 1] = hw2[:, j]
        return out

    def next_stage(j: int, prev: np.ndarray, c: float) -> np.ndarray:
        # h A(t_j) (I + c prev), into K
        np.multiply(prev, c, out=X)
        X[:, diag, diag] += 1.0
        return np.matmul(generator(j, G), X, out=K)

    np.multiply(h[:, None, None], T, out=G)
    np.copyto(K1, G)
    generator(0, K1)
    np.multiply(next_stage(1, K1, 0.5), 2.0, out=Q)
    Q += K1
    next_stage(2, K, 0.5)
    Q += K
    Q += K
    Q += next_stage(3, K, 1.0)
    Q /= 6.0
    return Q


def _stacked_steps(R, hs, w, nu, ends, *, T, L12, L21, work):
    """Advance R through a block of steps by its stacked increments,
    yielding each step's grid index (see :func:`rk4_blocks`) after it."""
    Q = _step_increments(hs, w, nu, T, L12, L21, work)
    for k, end in enumerate(ends):
        # R + Q R, not P R: adding the increment keeps the roundoff
        # of each step relative to the change, not to R itself.
        R += Q[k] @ R
        yield end


def _direct_steps(R, hs, w, nu, ends, *, omega2, L12, L21, work):
    """Advance R through a block of steps stage by stage, yielding each
    step's grid index after it.

    The RK4 map is the one :func:`_step_increments` builds, applied to R:

        K1 = hA1 R,  K2 = hA2 (R + K1/2),  K3 = hA3 (R + K2/2),
        K4 = hA4 (R + K3),  R <- R + (K1 + 2 K2 + 2 K3 + K4) / 6.

    Each product s A(t_j) X goes through the arrow structure of A, never a
    dense d x d product.  2 K2 and 2 K3 are formed directly with s = 2h,
    which scales every product by an exact power of two.  ``work`` holds
    three (d, d) buffers and one (d - 2, d) buffer, reused every step.
    """
    K, X, acc, C = work
    n = omega2.size
    p, x = slice(2, 2 + n), slice(2 + n, None)
    w2 = omega2[:, None]

    def apply(s: float, wj: float, nuj: float, src, out):
        # out = s A(t_j) src: bath rotations, the nu-scaled coupling
        # rows and columns, then the central 2x2 block.
        np.multiply(src[x], -s * w2, out=out[p])
        np.multiply(src[p], s, out=out[x])
        np.matmul((s * nuj) * L21, src[:2], out=C)
        out[2:] += C
        np.matmul((s * nuj) * L12, src[2:], out=out[:2])
        out[0] -= (s * wj * wj) * src[1]
        out[1] += s * src[0]

    for h, wk, nuk, end in zip(hs, w.tolist(), nu.tolist(), ends):
        apply(h, wk[0], nuk[0], R, acc)
        np.multiply(acc, 0.5, out=X)
        X += R
        apply(2.0 * h, wk[1], nuk[1], X, K)
        acc += K
        np.multiply(K, 0.25, out=X)
        X += R
        apply(2.0 * h, wk[2], nuk[2], X, K)
        acc += K
        np.multiply(K, 0.5, out=X)
        X += R
        apply(h, wk[3], nuk[3], X, K)
        acc += K
        acc /= 6.0
        R += acc
        yield end


def integrate_R(
    spec: SystemSpec,
    grid: np.ndarray,
    dt: float | None = None,
    defect_limit: float = DEFECT_HARD_LIMIT,
) -> PropagatorTrajectory:
    """Integrate the propagator over a grid starting at zero.

    Parameters
    ----------
    spec : SystemSpec
        System whose generator drives the integration.
    grid : array
        Output times; must start at 0, increase strictly and stay within
        the system's validated window (``spec.t_max``).
    dt : float, optional
        Target internal step; defaults to :func:`default_time_step`.  Each
        grid interval is split into equal sub-steps no longer than this.
    defect_limit : float
        Hard bound on the symplectic defect at grid points; exceeding it
        raises :class:`IntegrationError` naming the time.
    """
    ts = _validate_grid(grid, spec.t_max)
    if dt is None:
        dt = default_time_step(spec)
    if not dt > 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")

    # Steps are taken up to the first interval whose step underflows; the
    # error is raised once the grid points before it have been checked.
    spans = np.diff(ts)
    h_grid = spans / np.maximum(1.0, np.ceil(spans / dt))
    tiny = np.flatnonzero(h_grid < 1e-13 * np.maximum(1.0, np.abs(ts[1:])))
    reach = int(tiny[0]) if tiny.size else ts.size - 1

    bath = spec.bath
    n = bath.n
    dim = 2 * n + 2
    L12 = coupling_layout_12(bath)
    L21 = coupling_layout_21(bath)
    if dim < _DIRECT_MIN_DIM:
        T = np.zeros((dim, dim))
        T[2:, 2:] = build_A22(bath)
        T[1, 0] = 1.0
        block_steps = max(
            1, min(_BLOCK_STEPS, _BLOCK_BYTES // (8 * dim * dim))
        )
        advance = functools.partial(
            _stacked_steps, T=T, L12=L12, L21=L21,
            work=np.empty((5, block_steps, dim, dim)),
        )
    else:
        block_steps = _BLOCK_STEPS
        advance = functools.partial(
            _direct_steps, omega2=bath.omegas**2, L12=L12, L21=L21,
            work=(*np.empty((3, dim, dim)), np.empty((dim - 2, dim))),
        )

    J = symplectic_unit(n)
    J_cols = _signed_columns(J)
    R = np.eye(dim)
    states = [PropagatorState.from_full(ts[0], R)]
    defects = [_defect(R, J, *J_cols)]
    for hs, nodes, ends in rk4_blocks(
        ts[: reach + 1], dt, _RK4_STAGES, block_steps
    ):
        w = spec.omega.values(nodes).reshape(len(hs), -1)
        nu = bath.nu.values(nodes).reshape(len(hs), -1)
        for end in advance(R, hs, w, nu, ends):
            if end < 0:
                continue
            t_hi = ts[end]
            if not np.all(np.isfinite(R)):
                raise IntegrationError(
                    f"propagator became non-finite at t={t_hi:.6g}",
                    t=float(t_hi),
                )
            d = _defect(R, J, *J_cols)
            if d > defect_limit:
                raise IntegrationError(
                    f"symplectic defect {d:.3e} exceeds {defect_limit:.1e}"
                    f" at t={t_hi:.6g}",
                    t=float(t_hi),
                )
            states.append(PropagatorState.from_full(t_hi, R))
            defects.append(d)
    if tiny.size:
        t_hi = ts[reach + 1]
        raise IntegrationError(
            f"step underflow ({h_grid[reach]:.3e}) near t={t_hi:.6g}",
            t=float(t_hi),
        )
    return PropagatorTrajectory(ts, states, np.array(defects), spec=spec)


def _free_R11_path(
    omega_value, ts: np.ndarray, dt: float
) -> np.ndarray:
    """Scalar Runge-Kutta on the 2x2 central block with generator
    [[0, -omega^2], [1, 0]]; returns an array of shape (len(ts), 2, 2)."""
    r11, r12, r21, r22 = 1.0, 0.0, 0.0, 1.0
    out = np.empty((len(ts), 2, 2))
    out[0] = ((r11, r12), (r21, r22))

    def rhs(t, a, b, c, d):
        w = omega_value(t)
        w2 = w * w
        return (-w2 * c, -w2 * d, a, b)

    for i, (t_lo, t_hi) in enumerate(zip(ts[:-1], ts[1:])):
        span = t_hi - t_lo
        n_sub = max(1, math.ceil(span / dt))
        h = span / n_sub
        t = t_lo
        for _ in range(n_sub):
            a1, b1, c1, d1 = rhs(t, r11, r12, r21, r22)
            a2, b2, c2, d2 = rhs(
                t + 0.5 * h,
                r11 + 0.5 * h * a1, r12 + 0.5 * h * b1,
                r21 + 0.5 * h * c1, r22 + 0.5 * h * d1,
            )
            a3, b3, c3, d3 = rhs(
                t + 0.5 * h,
                r11 + 0.5 * h * a2, r12 + 0.5 * h * b2,
                r21 + 0.5 * h * c2, r22 + 0.5 * h * d2,
            )
            a4, b4, c4, d4 = rhs(
                t + h,
                r11 + h * a3, r12 + h * b3, r21 + h * c3, r22 + h * d3,
            )
            s = h / 6.0
            r11 += s * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
            r12 += s * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            r21 += s * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
            r22 += s * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
            t += h
        out[i + 1] = ((r11, r12), (r21, r22))
    return out


def free_central_R11(
    spec: SystemSpec, grid: np.ndarray, dt: float | None = None
) -> np.ndarray:
    """Central 2x2 propagator with the coupling switched off.

    Returns an array of shape (len(grid), 2, 2).  This is the zeroth-order
    reference entering the perturbative bath response, and the whole story
    for runs without coupling.
    """
    ts = _validate_grid(grid, spec.t_max)
    if dt is None:
        dt = default_time_step(spec)
    return _free_R11_path(spec.omega.value, ts, dt)
