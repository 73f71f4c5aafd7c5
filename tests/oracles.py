"""Per-step and per-point references of the package's stacked code.

Scalar Runge-Kutta loops: the per-step references of the stepping core.

Each loop takes the classical RK4 step of one equation on Python floats,
one step at a time, with its coefficients called at every stage node, on
the sub-step rule of the package: grid interval [t_lo, t_hi] is split into
n = max(1, ceil(span / dt)) equal steps of length h = span / n, step
k = 0..n-1 has the stage nodes t_lo + (k + f) h, and the node where the
last step ends is t_hi itself (:func:`substeps`).
The package steps the same equations as stacked increments composed per
grid interval (:func:`oscbath.propagate.linear_flow`), so it must agree
with these loops to roundoff.

Per-point extraction: the reduced state, drift and diffusion read off
the propagator one grid point at a time, with the 2x2 inverse and
condition number of R11 in closed form.  The package forms all points of
a trajectory in one stacked pass (:mod:`oscbath.reduced`).

First-order bath response: the RK4 co-integration that builds the dense
bath rotation at every stage, the first-order part of the R21 that
:func:`oscbath.propagate.integrate_R` steps exactly.

Short-time diffusion for a general reservoir covariance F, the matrix
route that :func:`oscbath.perturb.D_closed_form` sums in closed form for
the bath's own diagonal state.

Effective frequency at one time, summed from the stacked terms of
:func:`oscbath.langevin.effective_frequency_terms`.

Dense generator: J B(t), with the Hessian B(t) of the quadratic
Hamiltonian written term by term; the package builds only the blocks its
propagator steps (:mod:`oscbath.system`).
"""

from __future__ import annotations

import math

import numpy as np

from oscbath import CentralGaussian, IntegrationError, MomentTrajectory
from oscbath.langevin import effective_frequency_terms
from oscbath.propagate import expm_bath
from oscbath.reduced import _SKEW_TOL
from oscbath.system import (
    coupling_layout_12,
    coupling_layout_21,
    symplectic_unit,
)


def interval_steps(t_lo, t_hi, n, fractions=(0.0, 0.5, 1.0)):
    """(h, stage nodes) of the n equal steps of [t_lo, t_hi], in order:
    t_lo + (k + f) h for f in ``fractions`` at step k, and t_hi where the
    last step ends."""
    h = (t_hi - t_lo) / n
    for k in range(n):
        yield h, tuple(t_hi if k + f == n else t_lo + (k + f) * h
                       for f in fractions)


def substeps(ts, dt, fractions=(0.0, 0.5, 1.0)):
    """(h, stage nodes, grid index or -1) of every step, in order."""
    for i, (t_lo, t_hi) in enumerate(zip(ts[:-1].tolist(), ts[1:].tolist())):
        n = max(1, math.ceil((t_hi - t_lo) / dt))
        for k, (h, nodes) in enumerate(
                interval_steps(t_lo, t_hi, n, fractions)):
            yield h, nodes, (i + 1 if k == n - 1 else -1)


def rk4_blocks(ts, dt, fractions, block_steps):
    """The step schedule of :func:`oscbath.propagate.rk4_blocks`, step by
    step: (hs, nodes, ends) per block of at most block_steps steps, the
    blocks of its passes in order."""
    steps = list(substeps(np.asarray(ts, dtype=float), dt, fractions))
    for lo in range(0, len(steps), block_steps):
        hs, nodes, ends = zip(*steps[lo : lo + block_steps])
        yield np.array(hs), np.array(nodes).ravel(), np.array(ends)


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
    k2 = _moment_rhs(ad_half, *(s + 0.5 * h * k for s, k in zip(state, k1)))
    k3 = _moment_rhs(ad_half, *(s + 0.5 * h * k for s, k in zip(state, k2)))
    k4 = _moment_rhs(ad1, *(s + h * k for s, k in zip(state, k3)))
    return tuple(
        s + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
        for s, a, b, c, d in zip(state, k1, k2, k3, k4)
    )


def integrate_moments(drift_fn, diffusion_fn, initial, grid, dt):
    """Moment RK4 with callable drift and diffusion, called at every stage
    node; raises :class:`IntegrationError` at the first non-finite grid
    point."""
    ts = np.asarray(grid, dtype=float)

    def ad_at(t):
        A, D = drift_fn(t), diffusion_fn(t)
        return (
            float(A[0, 0]), float(A[0, 1]), float(A[1, 0]), float(A[1, 1]),
            float(D[0, 0]), float(D[0, 1]), float(D[1, 1]),
        )

    state = (
        float(initial.mean[0]), float(initial.mean[1]),
        float(initial.cov[0, 0]), float(initial.cov[0, 1]),
        float(initial.cov[1, 1]),
    )
    means = np.empty((ts.size, 2))
    covs = np.empty((ts.size, 2, 2))
    means[0], covs[0] = initial.mean, initial.cov
    for h, nodes, end in substeps(ts, dt):
        state = _rk4_moments(state, h, *map(ad_at, nodes))
        if end < 0:
            continue
        if not all(map(math.isfinite, state)):
            raise IntegrationError(
                f"moments became non-finite at t={ts[end]:.6g}",
                t=float(ts[end]),
            )
        mp, mx, cpp, cpx, cxx = state
        means[end] = mp, mx
        covs[end] = ((cpp, cpx), (cpx, cxx))
    return MomentTrajectory(ts=ts, means=means, covs=covs)


def epsilon(w2_fn, omega0, grid, dt, wronskian_tol):
    """eps'' + w2(t) eps = 0 from eps = 1, eps' = i omega0, on complex
    scalars; raises :class:`IntegrationError` at the first grid point whose
    relative Wronskian drift exceeds ``wronskian_tol``.  Returns (eps,
    eps', largest drift)."""
    ts = np.asarray(grid, dtype=float)
    e, de = 1.0 + 0.0j, 1j * omega0
    w0 = de * e.conjugate() - de.conjugate() * e
    eps = np.empty(ts.size, dtype=complex)
    deps = np.empty(ts.size, dtype=complex)
    eps[0], deps[0] = e, de
    max_drift = 0.0
    for h, nodes, end in substeps(ts, dt):
        w2_0, w2_h, w2_1 = map(w2_fn, nodes)
        k1e, k1d = de, -w2_0 * e
        k2e, k2d = de + 0.5 * h * k1d, -w2_h * (e + 0.5 * h * k1e)
        k3e, k3d = de + 0.5 * h * k2d, -w2_h * (e + 0.5 * h * k2e)
        k4e, k4d = de + h * k3d, -w2_1 * (e + h * k3e)
        e += (h / 6.0) * (k1e + 2.0 * k2e + 2.0 * k3e + k4e)
        de += (h / 6.0) * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
        if end < 0:
            continue
        eps[end], deps[end] = e, de
        wr = de * e.conjugate() - de.conjugate() * e
        drift = abs(wr - w0) / abs(w0)
        if not drift <= wronskian_tol:
            raise IntegrationError(
                f"Wronskian drift {drift:.3e} at t={ts[end]:.6g}",
                t=float(ts[end]),
            )
        max_drift = max(max_drift, drift)
    return eps, deps, max_drift


def free_R11(omega_value, grid, dt):
    """RK4 on the 2x2 central block with generator [[0, -omega^2], [1, 0]];
    returns an array of shape (len(grid), 2, 2)."""
    ts = np.asarray(grid, dtype=float)
    r11, r12, r21, r22 = 1.0, 0.0, 0.0, 1.0
    out = np.empty((ts.size, 2, 2))
    out[0] = np.eye(2)

    def rhs(t, a, b, c, d):
        w = omega_value(t)
        w2 = w * w
        return (-w2 * c, -w2 * d, a, b)

    for h, (t0, t_half, t1), end in substeps(ts, dt):
        a1, b1, c1, d1 = rhs(t0, r11, r12, r21, r22)
        a2, b2, c2, d2 = rhs(
            t_half,
            r11 + 0.5 * h * a1, r12 + 0.5 * h * b1,
            r21 + 0.5 * h * c1, r22 + 0.5 * h * d1,
        )
        a3, b3, c3, d3 = rhs(
            t_half,
            r11 + 0.5 * h * a2, r12 + 0.5 * h * b2,
            r21 + 0.5 * h * c2, r22 + 0.5 * h * d2,
        )
        a4, b4, c4, d4 = rhs(
            t1, r11 + h * a3, r12 + h * b3, r21 + h * c3, r22 + h * d3
        )
        s = h / 6.0
        r11 += s * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        r12 += s * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        r21 += s * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
        r22 += s * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
        if end >= 0:
            out[end] = ((r11, r12), (r21, r22))
    return out


def inv_2x2(M):
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    return np.array([[M[1, 1], -M[0, 1]], [-M[1, 0], M[0, 0]]]) / det


def cond_2x2(M):
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


def gaussian_at(initial, state, F):
    """Reduced Gaussian state at one propagator state: mean R11 m0 and
    covariance R11 C0 R11^T + R12 F R12^T, symmetrized."""
    cov = state.R11 @ initial.cov @ state.R11.T + state.R12 @ F @ state.R12.T
    return CentralGaussian(
        mean=state.R11 @ initial.mean, cov=0.5 * (cov + cov.T)
    )


def central_block(w):
    """A11 = [[0, -w^2], [1, 0]], the central block of the generator at
    frequency w, in (p0, x0) ordering."""
    return np.array([[0.0, -w * w], [1.0, 0.0]])


def drift_at(state, w, A12):
    """A = A11 + A12 R21 R11^{-1} at one propagator state, frequency w."""
    return central_block(w) + A12 @ state.R21 @ inv_2x2(state.R11)


def diffusion_at(state, F, A12):
    """D from 2 D = A12 core F R12^T + R12 F core^T A12^T with the 2N x 2N
    core R22 - R21 R11^{-1} R12, raising at a skew beyond roundoff."""
    core = state.R22 - state.R21 @ inv_2x2(state.R11) @ state.R12
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


def R21_first_order(spec, t, steps=2000):
    """First-order bath response block by RK4 co-integration of the free
    central propagator and the response integral on ``steps`` equal steps,
    with the dense bath rotation exp(-A22 tau) built at every stage."""
    bath = spec.bath
    L21 = coupling_layout_21(bath)

    def f_pair(tau, R11):
        dR11 = central_block(spec.omega.value(tau)) @ R11
        dY = expm_bath(bath.omegas, -tau) @ (bath.nu.value(tau) * L21) @ R11
        return dR11, dY

    R11 = np.eye(2)
    Y = np.zeros((2 * bath.n, 2))
    for h, (t0, t_half, t1) in interval_steps(0.0, t, steps):
        k1R, k1Y = f_pair(t0, R11)
        k2R, k2Y = f_pair(t_half, R11 + 0.5 * h * k1R)
        k3R, k3Y = f_pair(t_half, R11 + 0.5 * h * k2R)
        k4R, k4Y = f_pair(t1, R11 + h * k3R)
        R11 = R11 + (h / 6.0) * (k1R + 2.0 * k2R + 2.0 * k3R + k4R)
        Y = Y + (h / 6.0) * (k1Y + 2.0 * k2Y + 2.0 * k3Y + k4Y)
    return expm_bath(bath.omegas, t) @ Y


def diffusion_first_order(spec, F, t):
    """Short-time diffusion 2 D = A12(t) F Int(A12)^T + transpose, for a
    general (not necessarily diagonal) reservoir covariance F."""
    L12 = coupling_layout_12(spec.bath)
    A12_t = spec.bath.nu.value(t) * L12
    I12 = spec.bath.nu.integral(0.0, t) * L12
    two_D = A12_t @ F @ I12.T + I12 @ F @ A12_t.T
    return 0.25 * (two_D + two_D.T)


def omega_ef2(model, t):
    """omega_ef^2 = omega^2 + delta' - delta^2 at one time t."""
    w2, delta_dot, delta2 = effective_frequency_terms(model, t)
    return float(w2[0] + delta_dot[0] - delta2[0])


def hamiltonian_hessian(spec, t):
    """Hessian B(t) of the quadratic Hamiltonian, built from its terms."""
    bath = spec.bath
    n = bath.n
    dim = 2 * n + 2
    B = np.zeros((dim, dim))
    w = spec.omega.value(t)
    B[0, 0] = 1.0
    B[1, 1] = w * w
    nu = bath.nu.value(t)
    ip = np.arange(2, 2 + n)
    ix = ip + n
    B[ip, ip] = 1.0
    B[ix, ix] = bath.omegas**2
    B[0, ip] = B[ip, 0] = nu * bath.Z  # p_k p0
    B[1, ip] = B[ip, 1] = nu * bath.V  # p_k x0
    B[0, ix] = B[ix, 0] = nu * bath.U  # x_k p0
    B[1, ix] = B[ix, 1] = nu * bath.G  # x_k x0
    return B


def generator(spec, t):
    """The full (2N+2) x (2N+2) generator J B(t) at time t."""
    return symplectic_unit(spec.bath.n) @ hamiltonian_hessian(spec, t)
