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

The switch point is the measured crossover of the two forms.  The stacked
increments, composed per grid interval, also step the small linear ODEs
of the local model and the free central block (:func:`linear_flow`).  The
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
# Steps whose schedule :func:`rk4_blocks` forms in one pass (rounded to
# whole blocks), so its fixed cost per pass is shared by many small blocks.
_SCHEDULE_STEPS = 1024
# From this dimension d = 2N + 2 on, steps apply the stage generators
# directly to R (O(N d) per stage) instead of stacking dense increments
# (four d^3 products per step).  On a 2-core host with OpenBLAS 0.3 the
# two forms cross between d = 78 and 86: below it the stacked products
# win, from d = 86 on the direct form won every timed run.
_DIRECT_MIN_DIM = 86


@dataclass(frozen=True)
class PropagatorState:
    """Propagator R at one time, ordering (p0, x0, p_k.., x_k..); the four
    blocks are views of R."""

    t: float
    R: np.ndarray  # (d, d)

    @property
    def R11(self) -> np.ndarray:  # (2, 2)     central-to-central
        return self.R[:2, :2]

    @property
    def R12(self) -> np.ndarray:  # (2, 2N)    bath-to-central
        return self.R[:2, 2:]

    @property
    def R21(self) -> np.ndarray:  # (2N, 2)    central-to-bath
        return self.R[2:, :2]

    @property
    def R22(self) -> np.ndarray:  # (2N, 2N)   bath-to-bath
        return self.R[2:, 2:]

    def full(self) -> np.ndarray:
        return self.R

    @property
    def n_bath(self) -> int:
        return self.R.shape[0] // 2 - 1


class PropagatorTrajectory:
    """Propagator on a time grid: R as one read-only (T, d, d) stack, with
    the symplectic defect at every grid point."""

    def __init__(self, ts: np.ndarray, R: np.ndarray, defects: np.ndarray):
        self.ts = np.asarray(ts, dtype=float)
        self.R = R
        self.defects = np.asarray(defects, dtype=float)

    def __len__(self) -> int:
        return self.ts.size

    def __getitem__(self, i: int) -> PropagatorState:
        return PropagatorState(self.ts[i], self.R[i])

    def __iter__(self):
        return map(PropagatorState, self.ts, self.R)

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


def _resolving_step(w_max: float, profiles) -> float:
    """1/400 of the shortest of the period 2 pi / w_max and the profiles'
    timescales."""
    scales = [p.timescale() for p in profiles]
    return min(
        [2.0 * math.pi / w_max] + [s for s in scales if s is not None and s > 0.0]
    ) / _STEPS_PER_TIMESCALE


def default_time_step(spec: SystemSpec) -> float:
    """Fixed step resolving both the fastest bath rotation and the coupling
    pulse: 1/400 of the smaller of (shortest mode period, pulse timescale)."""
    w_central = spec.omega.values(np.linspace(0.0, spec.t_max, 257))
    w_max = max(
        float(np.max(spec.bath.omegas)), float(np.max(w_central)), spec.omega0
    )
    return _resolving_step(w_max, (spec.bath.nu, spec.omega))


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
    steps of length h, whose starts advance by t += h.  Each block is
    yielded as arrays (hs, nodes, ends): the step lengths, the stage nodes
    t + f h for every f in ``fractions`` of every step, flattened in step
    order, and per step the index of the grid point it ends on, or -1 when
    it ends inside an interval.  The starts of about _SCHEDULE_STEPS steps
    at a time come from one ``np.add.accumulate`` along rows [t, h, h, ...],
    one row per interval: the float additions of a sequential loop.
    """
    ts = np.asarray(ts, dtype=float)
    n_sub = np.maximum(1.0, np.ceil(np.diff(ts) / dt))
    if not n_sub.sum() < 2.0**53:
        raise ValueError(f"dt={dt} needs too many steps over the grid")
    h_int = np.diff(ts) / n_sub
    n_sub = n_sub.astype(np.int64)
    past = np.cumsum(n_sub)  # one past each interval's last step
    total = int(past[-1]) if past.size else 0
    frac = np.asarray(fractions, dtype=float)
    chunk = block_steps * max(1, _SCHEDULE_STEPS // block_steps)
    t_next = 0.0  # start of the step after the previous chunk
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        i0 = int(np.searchsorted(past, lo, side="right"))
        i1 = int(np.searchsorted(past, hi - 1, side="right")) + 1
        first = past[i0:i1] - n_sub[i0:i1]
        skip = np.maximum(first, lo) - first
        m = np.minimum(past[i0:i1], hi) - first - skip
        cols = np.arange(1, int(m.max()) + 1)
        rows = np.zeros((m.size, cols.size + 1))
        rows[:, 0] = ts[i0:i1]
        if skip[0]:  # the first interval began in the previous chunk
            rows[0, 0] = t_next
        rows[:, 1:] = np.where(cols <= m[:, None], h_int[i0:i1, None], 0.0)
        np.add.accumulate(rows, axis=1, out=rows)
        t_next = rows[-1, m[-1]]
        hs = np.repeat(h_int[i0:i1], m)
        nodes = rows[:, :-1][cols <= m[:, None]][:, None] + hs[:, None] * frac
        ends = np.full(hi - lo, -1)
        done = skip + m == n_sub[i0:i1]
        ends[np.cumsum(m)[done] - 1] = np.arange(i0 + 1, i1 + 1)[done]
        for b in range(0, hi - lo, block_steps):
            e = b + block_steps
            yield hs[b:e], nodes[b:e].ravel(), ends[b:e]


def _step_increments(
    h: np.ndarray, T: np.ndarray, fill, work: np.ndarray
) -> np.ndarray:
    """Increments Q = P - I of the RK4 maps P of a block of B steps of
    z' = A(t) z.

    T is the constant part of A.  ``fill(j, out)`` writes the other entries
    of the generator h A(t_j) of stage j = 0..3 into ``out``, a (B, n, n)
    stack holding h T elsewhere; stages 1 to 3 share one stack.  Then

        K1 = hA1,  K2 = hA2 + hA2 K1/2,  K3 = hA3 + hA3 K2/2,
        K4 = hA4 + hA4 K3,  Q = (K1 + 2 K2 + 2 K3 + K4) / 6.

    The identity never enters, so a vector that every hA_j annihilates
    exactly is annihilated exactly by Q, however the products round.
    ``work`` holds five (B', n, n) stacks with B' >= B, computed in place
    so that the allocator does not hand the memory back and fault it in
    again at every block; Q is a view of it.
    """
    K1, G, X, K, Q = (a[: h.size] for a in work)

    def next_stage(j: int, prev: np.ndarray, c: float) -> np.ndarray:
        # h A(t_j) + h A(t_j) (c prev), into K
        np.multiply(prev, c, out=X)
        fill(j, G)
        np.matmul(G, X, out=K)
        return np.add(K, G, out=K)

    np.multiply(h[:, None, None], T, out=G)
    np.copyto(K1, G)
    fill(0, K1)
    np.multiply(next_stage(1, K1, 0.5), 2.0, out=Q)
    Q += K1
    next_stage(2, K, 0.5)
    Q += K
    Q += K
    Q += next_stage(3, K, 1.0)
    Q /= 6.0
    return Q


def _compose(Q: np.ndarray) -> np.ndarray:
    """Increment of consecutive steps with increments Q[0], Q[1], ...,
    merging neighbours a, b pairwise, Q_ab = (Q_a + Q_b) + Q_b Q_a."""
    while len(Q) > 1:
        even = len(Q) - len(Q) % 2
        a, b = Q[0:even:2], Q[1:even:2]
        ab = a + b
        ab += b @ a
        Q = ab if even == len(Q) else np.concatenate((ab, Q[-1:]))
    return Q[0]


def linear_flow(z, ts, dt, T, entries, coefficients):
    """Advance z' = A(t) z in place over the grid by RK4 at target step dt
    (the sub-steps of :func:`rk4_blocks`), yielding each grid index once z
    has reached it.  z is a vector, or a matrix of such columns.

    A(t) is T with the entries (rows, cols) = ``entries`` set from
    ``coefficients(nodes)``, one array per entry over the nodes t, t + h/2,
    t + h of every step of a block.  The block's RK4 increments are
    composed per grid interval and z advances by z += Q z.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    rows, cols = entries
    steps = max(1, min(_BLOCK_STEPS, _BLOCK_BYTES // (8 * T.size)))
    work = np.empty((5, steps) + T.shape)
    for h, nodes, ends in rk4_blocks(ts, dt, (0.0, 0.5, 1.0), steps):
        E = np.stack(coefficients(nodes), axis=-1).reshape(h.size, 3, -1)
        E *= h[:, None, None]

        def fill(j: int, out: np.ndarray) -> None:
            # the two midpoint stages share the middle node
            out[:, rows, cols] = E[:, (0, 1, 1, 2)[j]]

        Q = _step_increments(h, T, fill, work)
        lo = 0
        for hi in [*(np.flatnonzero(ends >= 0) + 1).tolist(), h.size]:
            if hi == lo:
                continue
            z += _compose(Q[lo:hi]) @ z
            lo = hi
            if ends[hi - 1] >= 0:
                yield int(ends[hi - 1])


def _stacked_steps(R, hs, w, nu, ends, *, T, L12, L21, work):
    """Advance R through a block of steps by its stacked increments,
    yielding each step's grid index (see :func:`rk4_blocks`) after it.

    ``w`` and ``nu`` hold the frequency and the coupling at the four stage
    nodes of each step, shape (B, 4); T is the constant part of the
    generator, L12 and L21 the unit coupling layouts.
    """
    hnu = (hs[:, None] * nu)[:, :, None, None]
    hw2 = -hs[:, None] * w * w

    def fill(j: int, out: np.ndarray) -> None:
        # the nu-scaled coupling blocks and the omega^2 entry of h A(t_j)
        out[:, :2, 2:] = hnu[:, j] * L12
        out[:, 2:, :2] = hnu[:, j] * L21
        out[:, 0, 1] = hw2[:, j]

    Q = _step_increments(hs, T, fill, work)
    for k, end in enumerate(ends.tolist()):
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

    for h, wk, nuk, end in zip(
        hs.tolist(), w.tolist(), nu.tolist(), ends.tolist()
    ):
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
    Rs = np.empty((ts.size, dim, dim))
    defects = np.empty(ts.size)
    Rs[0] = R
    defects[0] = _defect(R, J, *J_cols)
    for hs, nodes, ends in rk4_blocks(
        ts[: reach + 1], dt, _RK4_STAGES, block_steps
    ):
        w = spec.omega.values(nodes).reshape(hs.size, -1)
        nu = bath.nu.values(nodes).reshape(hs.size, -1)
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
            Rs[end] = R
            defects[end] = d
    if tiny.size:
        t_hi = ts[reach + 1]
        raise IntegrationError(
            f"step underflow ({h_grid[reach]:.3e}) near t={t_hi:.6g}",
            t=float(t_hi),
        )
    Rs.flags.writeable = False
    return PropagatorTrajectory(ts, Rs, defects)


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
    # generator [[0, -omega^2], [1, 0]] on the columns of R11
    R11 = np.eye(2)
    out = np.empty((ts.size, 2, 2))
    out[0] = R11
    for end in linear_flow(
        R11, ts, dt, np.array([[0.0, 0.0], [1.0, 0.0]]), ((0,), (1,)),
        lambda nodes: (-spec.omega.values(nodes) ** 2,),
    ):
        out[end] = R11
    return out
