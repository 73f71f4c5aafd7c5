"""Phase-space propagator R(t) for the oscillator-bath system.

R solves dR/dt = A(t) R from the identity, where A(t) is the full
(2N+2)-dimensional generator, by fixed-step classical Runge-Kutta taken a
block of steps at a time.  Every coupling shares the one profile nu(t), so
A(t) = T - omega(t)^2 E + nu(t) L, with T constant, E the unit at the
frequency entry (0, 1) and L the coupling layout; an exactly
:class:`Constant` omega or nu is folded into T.  The RK4 increment
Q = P - I of a step is then a sum over the products ("words") of 1 to 4
of the remaining letters, each weighted by a product of the letters'
values on the step's four stage nodes: the profiles are tabulated on the
stage nodes of a whole block, and the block's increments are one product
of its (B, 30 or 120) word coefficients with the words, formed once per
run (:func:`_word_increments`).  The same RK4 map is taken in one of three
forms:

- with T the only letter, one power of the step map per grid interval
  (:func:`_powered_flow`);
- otherwise below ``_DIRECT_MIN_DIM`` (d < 42, baths of up to 19 modes),
  the increments of a block's steps are composed per grid interval by
  :func:`_composed_flow`, the path that :func:`linear_flow` also steps
  the local model by;
- otherwise (20 modes or more) each step applies the map in factored
  form: a closed-form 2x2 per bath mode plus a coupling update of
  rank <= 8, at one 10 x d x d product per step, its 10 x 18 reduced
  increment from the same letters' words.

Each form returns R at every grid point as one stacked array.  The
symplectic defect || R^T J R - J ||_F of every grid point is then checked
in one call, so a drifting integration is stepped to the end of its grid
and fails at its first bad grid point.  With the coupling profile
identically zero the off-diagonal blocks stay exactly zero in every form:
every coupling term is a product with an exactly zero coefficient or
block.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError
from .profiles import is_exact_constant, tabulate
from .system import SystemSpec, build_A22, coupling_layout_12, coupling_layout_21, symplectic_unit

__all__ = [
    "PropagatorState",
    "PropagatorTrajectory",
    "expm_bath",
    "integrate_R",
    "free_central_R11",
    "default_time_step",
    "DEFECT_HARD_LIMIT",
]

# Integrations whose defect exceeds this are treated as failures.
DEFECT_HARD_LIMIT = 1e-6

# Sub-steps per characteristic time in the default step heuristic.
_STEPS_PER_TIMESCALE = 400

# Stage nodes of a classical RK4 step, as fractions of the step: one node
# per stage, so integrate_R evaluates the profiles four times per step.
_RK4_STAGES = (0.0, 0.5, 0.5, 1.0)
# A block of steps is built in (B, d, d) stacks of at most _BLOCK_BYTES
# each (one of word products, or five of stages for the local model), or
# on the direct path in one (B, 10, d) stack of maps.  That bounds memory
# at large d, and _BLOCK_STEPS bounds the block at small d.
_BLOCK_BYTES = 256 * 1024
_BLOCK_STEPS = 256
# Steps whose schedule :func:`rk4_blocks` forms in one pass (rounded to
# whole blocks), so its fixed cost per pass is shared by many small blocks.
_SCHEDULE_STEPS = 1024
# From this dimension d = 2N + 2 on, steps apply the factored map (one
# 10 x d x d product per step) instead of composing the block's (B, d, d)
# word increments.  Time in the form, us per step, composed / factored, on
# a 61-point grid at 8, 40 and 67 steps per interval (the step shapes of
# closure, short-time-convergence and rwa-check), min of 7 alternating runs
# on a 2-core host with OpenBLAS 0.3 (tools/form_crossover.py):
#
#           letters T, L (constant omega)    letters T, E, L
#    d    8 steps     40 steps    67 steps    8 steps     40 steps    67 steps
#    26    6.1/10.1    4.9/ 8.7    4.7/ 8.8    8.8/12.8    7.0/ 9.8    6.8/ 9.8
#    30    7.8/10.6    6.2/ 9.2    6.1/ 9.1   11.0/12.1    9.8/10.6   10.0/10.7
#    34    9.2/10.9    7.4/ 9.6    7.2/ 9.3   13.0/12.6   11.6/10.7   11.8/10.7
#    38   11.2/11.7    9.4/10.2    9.1/ 9.9   18.1/13.7   16.0/11.4   15.9/11.2
#    40   12.0/12.0   10.5/10.4    9.9/10.1   19.2/14.0   21.3/18.5   21.6/18.0
#    42   13.3/12.6   11.7/11.3   11.4/11.1   27.7/22.1   24.7/19.2   24.5/18.4
#    44   13.2/12.9   12.0/11.5   11.9/11.0   29.7/22.5   26.1/19.6   21.7/13.5
#    50   17.0/13.9   16.0/12.6   16.1/12.5   28.2/15.2   29.0/14.4   30.2/13.9
#
# In three such sweeps, with two letters the composed form won every shape
# up to d = 38, the two were within 2 % at d = 40, and the factored map won
# every shape from d = 42 on; with three letters the factored map won
# every shape from d = 34 on, by 3-10 % at d = 34.  42 is where the
# two-letter forms cross; one switch keeps both of rwa-check's d = 34 runs
# composed, its modulated-omega run (4,020 steps) at 3-5 ms more than
# factored.
_DIRECT_MIN_DIM = 42


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
    """Row and value of the one non-zero of each column of the symplectic
    unit J of :func:`symplectic_unit`.

    J is a signed permutation, so R^T J is the columns of R^T picked by
    ``rows`` and scaled by ``vals``.
    """
    rows = np.argmax(J != 0.0, axis=0)
    return rows, J[rows, np.arange(J.shape[1])]


def _defects(Rs: np.ndarray, J: np.ndarray, rows, vals):
    """Symplectic defects || R^T J R - J ||_F of a (B, d, d) stack of R,
    and whether each R is finite, a chunk of at most _BLOCK_BYTES at a
    time; ``rows`` and ``vals`` are :func:`_signed_columns` of J."""
    out, finite = np.empty(len(Rs)), np.empty(len(Rs), dtype=bool)
    step = max(1, _BLOCK_BYTES // (8 * J.size))
    for lo in range(0, len(Rs), step):
        R = Rs[lo : lo + step]
        finite[lo : lo + step] = np.isfinite(R).all(axis=(1, 2))
        # R^T J by picking and scaling columns, at one d x d product
        # instead of two.  C-ordered, as the dense R.T @ J is, so that the
        # product rounds as the dense formula does; the norm is the dot
        # product np.linalg.norm takes.
        RtJ = np.multiply(np.swapaxes(R, 1, 2)[:, :, rows], vals, order="C")
        M = np.matmul(RtJ, R) - J
        M = M.reshape(len(R), -1)
        out[lo : lo + step] = np.sqrt(np.vecdot(M, M))
        del RtJ, M  # so that one chunk's arrays are held at a time
    return out, finite


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
    w_max = max(float(np.max(spec.bath.omegas)), float(np.max(w_central)))
    return _resolving_step(w_max, (spec.bath.nu, spec.omega))


def _check_grid(grid) -> np.ndarray:
    """The grid as floats: 1-d, 2 points or more, finite, increasing."""
    ts = np.asarray(grid, dtype=float)
    if (ts.ndim != 1 or ts.size < 2 or not np.isfinite(ts).all()
            or not (np.diff(ts) > 0.0).all()):
        raise ValueError("grid must be 1-d, finite and strictly increasing")
    return ts


def _validate_grid(grid: np.ndarray, t_max: float) -> np.ndarray:
    ts = _check_grid(grid)
    if ts[0] != 0.0:
        raise ValueError(f"grid must start at 0, got {ts[0]}")
    if ts[-1] > t_max * (1.0 + 1e-12):
        raise ValueError(f"grid ends at {ts[-1]}, beyond t_max={t_max}")
    return ts


def _schedule(ts: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Steps n = max(1, ceil(span / dt)) and length span / n per interval,
    refusing dt <= 0 and 2^53 steps or more (counts no longer exact)."""
    spans = np.diff(ts)
    if not dt > 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    n_sub = np.maximum(1.0, np.ceil(spans / dt))
    if not n_sub.sum() < 2.0**53:
        raise ValueError(f"dt={dt} needs too many steps over the grid")
    return n_sub.astype(np.int64), spans / n_sub


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
    n_sub, h_int = _schedule(ts, dt)
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


def _block_steps(n: int) -> int:
    """Steps per block of an n x n system: a (B, n, n) stack of at most
    _BLOCK_BYTES, and at most _BLOCK_STEPS steps."""
    return max(1, min(_BLOCK_STEPS, _BLOCK_BYTES // (8 * n * n)))


def _step_increments(
    h: np.ndarray, T: np.ndarray, fill, work: np.ndarray
) -> np.ndarray:
    """Increments Q = P - I of the RK4 maps P of a block of B steps of
    z' = A(t) z, for a generator whose entries are arbitrary tables: the
    local model's, and the oracle of :func:`_word_increments`; also the one
    step that :func:`_powered_flow` raises to a power.

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

    def next_stage(j: int, prev: np.ndarray) -> np.ndarray:
        # h A(t_j) + h A(t_j) (prev / 2), into K
        np.multiply(prev, 0.5, out=X)
        fill(j, G)
        np.matmul(G, X, out=K)
        return np.add(K, G, out=K)

    np.multiply(h[:, None, None], T, out=G)
    np.copyto(K1, G)
    fill(0, K1)
    np.multiply(next_stage(1, K1), 2.0, out=Q)
    Q += K1
    next_stage(2, K)
    Q += K
    Q += K
    # K4 into X: K3 enters unscaled, so the product reads it in K
    fill(3, G)
    np.matmul(G, K, out=X)
    X += G
    Q += X
    Q /= 6.0
    return Q


def _words(letters: np.ndarray) -> np.ndarray:
    """The products ("words") of 1 to 4 of the k letters (k, n, n): the k
    letters, then the k^2 products X_a X_b, the k^3 and the k^4, each
    length in the order of its letters' indices read left to right."""
    k, n = letters.shape[:2]
    words = np.empty((k + k**2 + k**3 + k**4, n, n))
    words[:k] = letters
    lo, hi = 0, k
    for _ in range(3):  # each length from the last, into its own rows
        m = hi - lo
        np.matmul(letters[:, None], words[lo:hi],
                  out=words[hi : hi + k * m].reshape(k, m, n, n))
        lo, hi = hi, hi + k * m
    return words


def _word_increments(
    c: np.ndarray, W: np.ndarray, C: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Increments Q = P - I, flattened, of the RK4 maps P of a block of B
    steps of z' = A(t) z whose stage generators are h A(t_j) = a_j =
    sum_l c[j, l] X_l, j = 0..3, for the (4, k, B) coefficients c.

    Expanding the stages K1..K4 of :func:`_step_increments`,

        Q = (a1 + 2 a2 + 2 a3 + a4) / 6 + (a2 a1 + a3 a2 + a4 a3) / 6
            + (a3 a2 a1 + a4 a3 a2) / 12 + a4 a3 a2 a1 / 24,

    so each word of the letters X_l (:func:`_words`) enters Q with a
    product of stage coefficients, and the block's increments are one
    product C^T W of the words' coefficients C (n_words, B) and the words
    W, flattened to (n_words, size).  C is formed in the buffer ``C``
    (n_words, B'), and Q in ``out`` (B', size), B' >= B, so that no large
    array is allocated and faulted in at every block.
    """
    k, B = c.shape[1:]
    c1, c2, c3, c4 = c
    # the coefficients of the words of length m = 1..4, as views of C:
    # (the first m - 1 letters, the last letter, the steps)
    at = np.cumsum([0, k, k**2, k**3, k**4]).tolist()
    C1, C2, C3, C4 = (
        C[at[m - 1] : at[m]].reshape(k ** (m - 1), k, -1)[..., :B]
        for m in range(1, 5))
    np.add(c2, c3, out=C1)
    C1 *= 2.0
    C1 += c1
    C1 += c4
    C1 /= 6.0
    c32 = c3[:, None] * c2
    np.multiply(c2[:, None], c1, out=C2)
    C2 += c32
    C2 += c4[:, None] * c3
    C2 /= 6.0
    c32 = c32.reshape(k * k, 1, B)
    c432 = (c4[:, None] * c32.reshape(1, k * k, B)).reshape(k**3, 1, B)
    np.multiply(c32, c1, out=C3)
    C3 += c432.reshape(k * k, k, B)
    C3 /= 12.0
    np.multiply(c432, c1, out=C4)
    C4 /= 24.0
    return np.matmul(C[:, :B].T, W, out=out[:B])


def _compose(Q: np.ndarray) -> np.ndarray:
    """Increment of consecutive steps with increments Q[0], Q[1], ...,
    merging neighbours a, b pairwise, Q_ab = (Q_a + Q_b) + Q_b Q_a; each
    Q[i] may also be a stack of several parts' increments."""
    while len(Q) > 1:
        even = len(Q) - len(Q) % 2
        a, b = Q[0:even:2], Q[1:even:2]
        ab = a + b
        ab += b @ a
        Q = ab if even == len(Q) else np.concatenate((ab, Q[-1:]))
    return Q[0]


def linear_flow(z, ts, dt, T, entries, coefficients, profiles):
    """z' = A(t) z over the grid by RK4 at target step dt (the sub-steps of
    :func:`rk4_blocks`): z at every grid point, stacked as Z[i] at ts[i]
    with Z[0] = z.  z is a vector, or a matrix of such columns; the
    caller's array is not changed.

    A(t) is T with the entries (rows, cols) = ``entries`` set from
    ``coefficients(nodes)``, one array per entry, tabulated over the nodes
    t, t + h/2, t + h of every step of a block.  The block's
    :func:`_step_increments` are composed by :func:`_composed_flow`.  When
    ``profiles``, those the coefficients read, are all exactly
    :class:`Constant`, A is constant: the coefficients at t = 0 are
    written into a copy of T and :func:`_powered_flow` powers the step map
    instead.
    """
    rows, cols = entries
    if _constant(profiles):
        T = T.copy()
        T[rows, cols] = np.stack(coefficients(np.zeros(1)), axis=-1)[0]
        return _powered_flow(z, ts, dt, T)
    work = np.empty((5, _block_steps(len(T))) + T.shape)

    def increments(h: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        E = np.stack(coefficients(nodes.ravel()), axis=-1)
        E = E.reshape(*nodes.shape, -1)
        E *= h[:, None, None]

        def fill(j: int, out: np.ndarray) -> None:
            # the two midpoint stages share the middle node
            out[:, rows, cols] = E[:, (0, 1, 1, 2)[j]]

        return _step_increments(h, T, fill, work)

    return _composed_flow(z, ts, dt, (0.0, 0.5, 1.0), increments)


def _composed_flow(z, ts, dt, fractions, increments):
    """z at every grid point, as :func:`linear_flow` stacks it, from the
    increments Q (B, n, n) that ``increments(h, nodes)`` gives for a
    block's step lengths (B,) and stage nodes t + f h (B, len(fractions)),
    f in ``fractions``: the increments are composed per grid interval and
    z advances by z += Q z."""
    Z = np.empty((len(ts),) + z.shape, z.dtype)
    Z[0] = z = z.copy()  # advanced in place
    n = z.shape[0]
    for h, nodes, ends in rk4_blocks(ts, dt, fractions, _block_steps(n)):
        Q = increments(h, nodes.reshape(h.size, -1))
        # the block's part of each grid interval; a run of consecutive
        # parts of m steps each is composed together, from the view
        # Q[step, part] (a lone part too)
        cuts = [0, *(np.flatnonzero(ends[:-1] >= 0) + 1).tolist(), h.size]
        lo = 0
        for m, run in itertools.groupby(np.diff(cuts).tolist()):
            k = len(list(run))
            parts = Q[lo : lo + k * m].reshape(k, m, n, n).swapaxes(0, 1)
            for C in _compose(parts):
                lo += m
                z += C @ z
                if ends[lo - 1] >= 0:
                    Z[ends[lo - 1]] = z
    return Z


def _constant(profiles) -> bool:
    return bool(profiles) and all(map(is_exact_constant, profiles))


def _powered_flow(z, ts, dt, T):
    """z' = T z at every grid point: over each grid interval of n steps of
    length h, z becomes z + Q_n z.  The one-step increment
    Q is raised to n by binary powering, Q_2m = 2 Q_m + Q_m Q_m and
    Q_(a+b) = Q_a + Q_b + Q_b Q_a, and rebuilt only when (h, n) changes,
    so one map is held at a time."""
    n_sub, h_int = _schedule(np.asarray(ts, dtype=float), dt)
    Z = np.empty((len(ts),) + z.shape, z.dtype)
    Z[0] = z
    work = np.empty((5, 1) + T.shape)
    key = None
    for i, (h, n) in enumerate(zip(h_int.tolist(), n_sub.tolist())):
        if (h, n) != key:
            key = (h, n)
            Q = _step_increments(np.array([h]), T, lambda *_: None, work)[0]
            Qn = None
            for k, bit in enumerate(bin(n)[:1:-1]):  # lowest bit first
                if k:
                    Q = 2.0 * Q + Q @ Q
                if bit == "1":
                    Qn = Q if Qn is None else Qn + Q + Q @ Qn
        Z[i + 1] = Z[i] + Qn @ Z[i]
    return Z


def _word_flow(spec: SystemSpec, T, L, errs: dict, steps: int, rows=None):
    """R's generator T - omega(t)^2 E + nu(t) L, E the unit at (0, 1), as
    sum_l v_l(t) X_l over the letters X_l: T, whose value is 1, then E
    unless omega is exactly :class:`Constant`, and L unless nu is; an
    exactly Constant profile is folded into T instead.

    Returns that T and, unless T is the only letter, the increments of a
    block of at most ``steps`` RK4 steps, as ``increments(h, nodes)`` of
    :func:`_composed_flow` on the stage nodes of ``_RK4_STAGES``: the
    first ``rows`` rows of Q only, when given.  The words are formed once,
    each block is one :func:`_word_increments`, and the profiles are
    tabulated (:func:`~oscbath.profiles.tabulate`) under the floating-point
    settings ``errs``.
    """
    T = T.copy()
    letters, profiles = [T], []
    omega, nu = spec.omega, spec.bath.nu
    stepped_omega = not is_exact_constant(omega)
    if stepped_omega:
        letters.append(np.zeros_like(T))
        letters[-1][0, 1] = 1.0
        profiles.append(omega)
    else:
        w = float(omega.value_const)
        T[0, 1] = -(w * w)
    if is_exact_constant(nu):
        T += float(nu.value_const) * L
    else:
        letters.append(L)
        profiles.append(nu)
    if not profiles:
        return T, None
    W = _words(np.stack(letters))[:, :rows]
    W = W.reshape(len(W), -1)
    C, out = np.empty((len(W), steps)), np.empty((steps, W.shape[1]))
    c = np.empty((len(_RK4_STAGES), len(letters), steps))

    def increments(h: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        with np.errstate(**errs):
            v = np.stack(tabulate(profiles, nodes.ravel()))
        if stepped_omega:  # -omega^2
            v[0] *= -v[0]
        cb = c[:, :, : h.size]
        cb[:, 0] = h
        v = v.reshape(len(profiles), h.size, -1).transpose(2, 0, 1)
        np.multiply(v, h, out=cb[:, 1:])
        return _word_increments(cb, W, C, out).reshape(h.size, -1, len(T))

    return T, increments


def _direct_steps(R, ts, dt, spec: SystemSpec, errs: dict):
    """R at every grid point, stacked as :func:`linear_flow` stacks z, by
    the factored RK4 map, a block of steps at a time.

    The bath block Omega is constant and every coupling is nu(t) times L12
    or L21.  Along the RK4 stages, the bath rows of a column (c, b) of R
    stay a(Omega) b + sum_k Omega^k L21 z_k, and the central stages read b
    only through t_m = L12 Omega^m b.  So the map splits:

    - the bath rows gain (p4(h Omega) - 1) b per mode, with z = h w_k,
      p4 - 1 = (alpha - 1) + beta Omega, alpha - 1 = -z^2/2 + z^4/24 and
      beta = h (1 - z^2/6), plus Mstack Z, Z = (Z_0..Z_3), where
      Mstack = [L21, Omega L21, Omega^2 L21, Omega^3 L21] (2N x 8);
    - the central increment and Z are the RK4 increment Q of the linear
      system c' = A11 c + nu t_0, t_m' = t_(m+1) + nu C_m c (C_m = L12
      Omega^m L21, t_3' = 0: the increments of t_m after the stage that
      reads them never reach c or Z), z_0' = nu c, z_(k+1)' = z_k, from
      c = R_c, t_m = S_m = L12 Omega^m R_b, z = 0.  Its generator on the
      18 rows (c, z_0..z_3, t_0..t_3) has R's letters, so a block's Q
      comes from the first 10 rows of their words (:func:`_word_flow`).

    With Psi = [Q[:, c] | Q[:, t] Lstack] on the rows (c, z) of Q, where
    Lstack = [L12; L12 Omega; L12 Omega^2; L12 Omega^3] (8 x 2N), one step
    is

        Y = Psi R,  R_b <- R_b + ((alpha - 1) R_b + beta Omega R_b
                                  + Mstack Y[2:]),  R_c <- R_c + Y[:2],

    one 10 x d x d product and O(N d) more.  R gains its increment, not
    P R, which keeps the roundoff of each step relative to the change.
    """
    bath = spec.bath
    A22 = build_A22(bath)
    Ls, Ms = [coupling_layout_12(bath)], [coupling_layout_21(bath)]
    for _ in range(3):
        Ls.append(Ls[-1] @ A22)
        Ms.append(A22 @ Ms[-1])
    del A22  # not held while stepping
    Lstack, Mstack = np.vstack(Ls), np.hstack(Ms)
    # rows (c, z_0..z_3, t_0..t_3), two each: x0' = p0, z_(k+1)' = z_k and
    # t_m' = t_(m+1) in T; c' = nu t_0, z_0' = nu c, t_m' = nu C_m c in N
    T, N = np.zeros((18, 18)), np.zeros((18, 18))
    T[1, 0] = 1.0
    T[4:10, 2:8] = T[10:16, 12:18] = np.eye(6)
    N[0:2, 10:12] = N[2:4, 0:2] = np.eye(2)
    N[10:16, 0:2] = np.vstack([L @ Ms[0] for L in Ls[:3]])
    omega2 = bath.omegas**2
    Rs = np.empty((len(ts),) + R.shape)
    Rs[0] = R = R.copy()  # advanced in place
    n, dim = omega2.size, R.shape[0]
    # a block's (B, 10, d) maps Psi within _BLOCK_BYTES; the maps, the
    # increments and two (d - 2, d) buffers are reused every block, so the
    # maps' product needs no stack of its own
    steps = max(1, min(_BLOCK_STEPS, _BLOCK_BYTES // (80 * dim)))
    increments = _word_flow(spec, T, N, errs, steps, rows=10)[1]
    maps = np.empty((steps, 10, dim))
    inc, rot = np.empty((2, dim - 2, dim))
    modes = R[2:].reshape(2, n, -1).transpose(1, 0, 2)  # views, as R is
    rot_modes = rot.reshape(2, n, -1).transpose(1, 0, 2)  # C-ordered
    for hs, nodes, ends in rk4_blocks(ts, dt, _RK4_STAGES, steps):
        Q = increments(hs, nodes.reshape(hs.size, -1))
        Psi = maps[: hs.size]
        Psi[:, :, :2] = Q[:, :, :2]
        np.matmul(Q[:, :, 10:], Lstack, out=Psi[:, :, 2:])
        # per mode, p4 - 1 = [[alpha - 1, -beta w^2], [beta, alpha - 1]] on
        # (p_k, x_k), applied to the (N, 2, d) views of the bath rows
        z2 = hs[:, None] ** 2 * omega2
        beta = hs[:, None] * (1.0 - z2 / 6.0)
        am1 = z2 * (z2 / 24.0 - 0.5)
        D = np.stack((am1, -beta * omega2, beta, am1), axis=-1)
        D = D.reshape(hs.size, -1, 2, 2)
        for k, end in enumerate(ends.tolist()):
            Y = Psi[k] @ R
            np.matmul(Mstack, Y[2:], out=inc)
            np.matmul(D[k], modes, out=rot_modes)
            inc += rot
            R[2:] += inc
            R[:2] += Y[:2]
            if end >= 0:
                Rs[end] = R
    return Rs


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
        raises :class:`IntegrationError` naming the first such point, once
        the whole grid has been stepped.
    """
    ts = _validate_grid(grid, spec.t_max)
    if dt is None:
        dt = default_time_step(spec)

    # Steps are taken up to the first interval whose step underflows; the
    # error is raised once the grid points before it have been checked.
    h_grid = _schedule(ts, dt)[1]
    tiny = np.flatnonzero(h_grid < 1e-13 * np.maximum(1.0, np.abs(ts[1:])))
    reach = int(tiny[0]) if tiny.size else ts.size - 1

    bath = spec.bath
    dim = 2 * bath.n + 2
    J = symplectic_unit(bath.n)
    errs = np.geterr()  # for the profiles; the steps and checks ignore overflow
    stepped = ts[: reach + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        if dim < _DIRECT_MIN_DIM or _constant((spec.omega, bath.nu)):
            T, L = np.zeros((2, dim, dim))
            T[2:, 2:] = build_A22(bath)
            T[1, 0] = 1.0
            L[:2, 2:] = coupling_layout_12(bath)
            L[2:, :2] = coupling_layout_21(bath)
            T, increments = _word_flow(spec, T, L, errs, _block_steps(dim))
            if increments is None:
                Rs = _powered_flow(np.eye(dim), stepped, dt, T)
            else:
                Rs = _composed_flow(
                    np.eye(dim), stepped, dt, _RK4_STAGES, increments)
        else:
            Rs = _direct_steps(np.eye(dim), stepped, dt, spec, errs)
        # none at R(0) = I; the points after a failing one may overflow
        defects = np.zeros(len(Rs))
        defects[1:], finite = _defects(Rs[1:], J, *_signed_columns(J))
    bad = np.flatnonzero(~finite | (defects[1:] > defect_limit))
    if bad.size:
        i = 1 + int(bad[0])
        what = "propagator became non-finite" if not finite[bad[0]] else (
            f"symplectic defect {defects[i]:.3e} exceeds {defect_limit:.1e}")
        raise IntegrationError(f"{what} at t={ts[i]:.6g}", t=float(ts[i]))
    if tiny.size:
        t_hi = float(ts[reach + 1])
        raise IntegrationError(
            f"step underflow ({h_grid[reach]:.3e}) near t={t_hi:.6g}", t=t_hi)
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
    return linear_flow(
        np.eye(2), ts, dt, np.array([[0.0, 0.0], [1.0, 0.0]]), ((0,), (1,)),
        lambda nodes: (-spec.omega.values(nodes) ** 2,), (spec.omega,),
    )
