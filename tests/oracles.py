"""Scalar Runge-Kutta loops: the per-step references of the stepping core.

Each loop takes the classical RK4 step of one equation on Python floats,
one step at a time, with its coefficients called at every stage node, on
the sub-step rule of the package: grid interval [t_lo, t_hi] is split into
max(1, ceil(span / dt)) equal steps and the step start advances by t += h.
The package steps the same equations as stacked increments composed per
grid interval (:func:`oscbath.propagate.linear_flow`), so it must agree
with these loops to roundoff.
"""

from __future__ import annotations

import math

import numpy as np

from oscbath import CentralGaussian, IntegrationError, MomentTrajectory


def substeps(ts, dt):
    """(t, h, grid index or -1) of every step, in order."""
    for i, (t_lo, t_hi) in enumerate(zip(ts[:-1].tolist(), ts[1:].tolist())):
        span = t_hi - t_lo
        n_sub = max(1, math.ceil(span / dt))
        h = span / n_sub
        t = t_lo
        for k in range(n_sub):
            yield t, h, (i + 1 if k == n_sub - 1 else -1)
            t += h


def rk4_blocks(ts, dt, fractions, block_steps):
    """The step schedule of :func:`oscbath.propagate.rk4_blocks`, step by
    step: (hs, nodes, ends) per block of at most block_steps steps."""
    hs, starts, ends = [], [], []
    frac = np.asarray(fractions, dtype=float)

    def block():
        h = np.array(hs)
        nodes = np.array(starts)[:, None] + h[:, None] * frac
        return h, nodes.ravel(), np.array(ends)

    for t, h, end in substeps(np.asarray(ts, dtype=float), dt):
        hs.append(h)
        starts.append(t)
        ends.append(end)
        if len(hs) == block_steps:
            yield block()
            hs, starts, ends = [], [], []
    if hs:
        yield block()


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
    states = [initial]
    for t, h, end in substeps(ts, dt):
        state = _rk4_moments(
            state, h, ad_at(t), ad_at(t + 0.5 * h), ad_at(t + h)
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
    for t, h, end in substeps(ts, dt):
        w2_0, w2_h, w2_1 = w2_fn(t), w2_fn(t + 0.5 * h), w2_fn(t + h)
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

    for t, h, end in substeps(ts, dt):
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
            t + h, r11 + h * a3, r12 + h * b3, r21 + h * c3, r22 + h * d3
        )
        s = h / 6.0
        r11 += s * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        r12 += s * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        r21 += s * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
        r22 += s * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
        if end >= 0:
            out[end] = ((r11, r12), (r21, r22))
    return out
