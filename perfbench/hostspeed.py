"""Reference kernels that measure how fast the host runs right now.

The benchmark host is a shared virtual machine whose speed drifts by a
third or more over minutes, and not the same way for every kind of work:
interpreter-bound Python slows while BLAS products keep pace.  Raw
iteration times therefore move with the host as much as with the program.

Each workload names the kernel that does the kind of work that dominates
it.  The kernel runs, untimed for the iteration, between iterations;
``speed`` is the kernel's nominal time divided by its measured time.  An
iteration's speed is the mean of the speeds measured just before and just
after it, and its wall or CPU time times that speed is the time it would
have taken on the host running at nominal speed.  The kernels use numpy
and the standard library only, never oscbath, so no change to the program
can move them.

The nominal times are the kernels' times on the 2-vCPU host described in
README.md in its fast state; they fix the unit, not the comparison.
"""

from __future__ import annotations

import math
import time

import numpy as np

_BLAS_D = 130
_BLAS_M = np.random.default_rng(0).standard_normal((_BLAS_D, _BLAS_D))


def python_kernel() -> float:
    """Scalar RK4 of a damped oscillator under a Gaussian pulse: the same
    interpreter-bound float arithmetic as profile evaluation and the
    Langevin loops."""
    x, v, t, h = 1.0, 0.0, 0.0, 1e-3

    def f(t, x, v):
        return v, -x - 0.1 * v + math.exp(-(t - 5.0) ** 2) * math.cos(3.0 * t)

    for _ in range(24000):
        k1 = f(t, x, v)
        k2 = f(t + h / 2, x + h / 2 * k1[0], v + h / 2 * k1[1])
        k3 = f(t + h / 2, x + h / 2 * k2[0], v + h / 2 * k2[1])
        k4 = f(t + h, x + h * k3[0], v + h * k3[1])
        x += h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        v += h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        t += h
    return x


def blas_kernel() -> float:
    """Chained products of 130 x 130 matrices through numpy's BLAS, with
    its default threads: the dense propagator step at N = 64."""
    b = _BLAS_M
    for _ in range(150):
        b = _BLAS_M @ b
        b /= np.abs(b).max()
    return float(b[0, 0])


# kernel name -> (kernel, nominal seconds)
KERNELS = {
    "python": (python_kernel, 0.050),
    "blas": (blas_kernel, 0.020),
}


def speed(kernel: str) -> float:
    """Run one kernel; return its nominal time over its measured time."""
    run, nominal = KERNELS[kernel]
    t0 = time.perf_counter()
    run()
    return nominal / (time.perf_counter() - t0)
