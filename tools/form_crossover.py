"""Sweep for ``oscbath.propagate._DIRECT_MIN_DIM``: the composed form
against the factored form of ``integrate_R``, in microseconds per step.

Each case is a bath of N = (d - 2) / 2 modes under a Gaussian coupling
pulse on a 61-point grid, stepped at 8, 40 and 67 steps per interval (the
step shapes of closure, short-time-convergence and rwa-check).  With a
constant central frequency R's generator has two letters, T and the
coupling layout; with a modulated one, as in rwa-check's second run, it
has three.  Only the time spent inside the form is counted, not the
checks around it.  Each number is the minimum of 7 runs, the two forms
alternating.

Run from the repository root:

    python3 tools/form_crossover.py            # d = 26, 28, ..., 50
    python3 tools/form_crossover.py 30 34 42   # chosen dimensions
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from oscbath import (  # noqa: E402
    Affine, BathSpec, Constant, GaussianPulse, SystemSpec, integrate_R,
    propagate, random_couplings, uniform_bath_frequencies,
)

FORMS = ("_composed_flow", "_direct_steps")
SHAPES = (8, 40, 67)
REPEATS = 7


def spec_of(dim: int, modulated: bool) -> SystemSpec:
    n = (dim - 2) // 2
    U, V, G, Z = random_couplings(n, scale=0.3, seed=1)
    bath = BathSpec(
        omegas=uniform_bath_frequencies(n, 0.5, 3.0), U=U, V=V, G=G, Z=Z,
        nu=GaussianPulse(1.0, 0.5, 0.15),
    )
    omega = (Affine(GaussianPulse(1.0, 0.5, 0.2), scale=-0.01, offset=1.0)
             if modulated else Constant(1.0))
    return SystemSpec(omega=omega, bath=bath, t_max=1.0)


def time_in_form(spec: SystemSpec, grid: np.ndarray, dt: float, form: str):
    """Seconds spent in ``form`` during one integrate_R run."""
    original = getattr(propagate, form)
    spent = []

    def timed(*args):
        t0 = time.perf_counter()
        out = original(*args)
        spent.append(time.perf_counter() - t0)
        return out

    propagate._DIRECT_MIN_DIM = 10**9 if form == "_composed_flow" else 0
    setattr(propagate, form, timed)
    try:
        integrate_R(spec, grid, dt=dt)
    finally:
        setattr(propagate, form, original)
    (seconds,) = spent
    return seconds


def main(dims: list[int]) -> None:
    saved = propagate._DIRECT_MIN_DIM
    grid = np.linspace(0.0, 1.0, 61)
    try:
        for modulated in (False, True):
            letters = "T, E, L" if modulated else "T, L"
            print(f"letters {letters}: us per step, composed / factored")
            print("    d  " + "".join(f"{m:>3} steps       " for m in SHAPES))
            for dim in dims:
                spec = spec_of(dim, modulated)
                cells = []
                for m in SHAPES:
                    dt = (grid[1] - grid[0]) / m
                    steps = m * (grid.size - 1)
                    best = dict.fromkeys(FORMS, np.inf)
                    for _ in range(REPEATS):
                        for form in FORMS:
                            t = time_in_form(spec, grid, dt, form)
                            best[form] = min(best[form], t)
                    us = [1e6 * best[f] / steps for f in FORMS]
                    cells.append(f"{us[0]:5.1f} / {us[1]:5.1f}   ")
                print(f"  {dim:3d}  " + "".join(cells), flush=True)
    finally:
        propagate._DIRECT_MIN_DIM = saved


if __name__ == "__main__":
    main([int(a) for a in sys.argv[1:]] or list(range(26, 51, 2)))
