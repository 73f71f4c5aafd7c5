"""Work counts computed from call arguments, with a hand-counted check.

The counts follow the package's sub-step rule: each grid interval
[t_lo, t_hi] is split into max(1, ceil((t_hi - t_lo) / dt)) equal
Runge-Kutta steps.  They are computed, not measured: a propagator step is
charged 8 d^3 flops (four dense d x d products per RK4 step, 2 d^3 each)
and a stored trajectory 8 d^2 bytes per grid point (the four float64
blocks of R together hold d^2 entries).

Run ``python3 perfbench/counts.py`` from the repository root to check the
rule against cases counted by hand and against the package itself.
"""

from __future__ import annotations

import math
import sys

import numpy as np


def rk4_steps(grid, dt: float) -> int:
    """Runge-Kutta steps the package takes over ``grid`` at target step dt."""
    ts = np.asarray(grid, dtype=float)
    total = 0
    for t_lo, t_hi in zip(ts[:-1], ts[1:]):
        total += max(1, math.ceil((t_hi - t_lo) / dt))
    return total


def propagator_dim(n_modes: int) -> int:
    """Dimension d = 2N + 2 of the joint phase space."""
    return 2 * n_modes + 2


def propagator_flops(steps: int, dim: int) -> float:
    """Flops of ``steps`` RK4 steps of dR/dt = A R with dense d x d products."""
    return 8.0 * dim**3 * steps


def trajectory_bytes(points: int, dim: int) -> int:
    """Bytes of a stored propagator trajectory: d^2 float64 per grid point."""
    return 8 * dim * dim * points


def _counting_constant(value: float):
    """A constant profile that counts its evaluations."""
    from oscbath.profiles import Constant

    class Counting(Constant):
        calls = 0

        def value(self, t):
            type(self).calls += 1
            return super().value(t)

    return Counting(value)


def self_check() -> list[str]:
    """Compare the computed counts with hand counts and with the package.

    Returns a list of mismatches; empty when every count agrees.
    """
    from oscbath.langevin import LangevinModel, epsilon_solver, evolve_moments
    from oscbath.profiles import Constant
    from oscbath.propagate import integrate_R
    from oscbath.reduced import CentralGaussian
    from oscbath.system import BathSpec, SystemSpec

    problems = []

    def expect(label, got, want):
        if got != want:
            problems.append(f"{label}: computed {got}, expected {want}")

    # Hand counts: 1 / 0.1 = 10 steps; 0.25 / 0.1 -> 3 and 0.75 / 0.1 -> 8.
    expect("rk4_steps [0, 1] dt=0.1", rk4_steps([0.0, 1.0], 0.1), 10)
    expect("rk4_steps [0, .25, 1] dt=0.1", rk4_steps([0.0, 0.25, 1.0], 0.1), 11)
    expect("rk4_steps [0, 1e-3] dt=0.1", rk4_steps([0.0, 1e-3], 0.1), 1)
    expect("propagator_dim N=1", propagator_dim(1), 4)
    expect("propagator_flops 10 steps d=4", propagator_flops(10, 4), 5120.0)

    # The package must take as many steps as computed.  A counting constant
    # frequency sees one evaluation per generator build: four per RK4 step
    # in integrate_R, three per step in the moment and amplitude solvers.
    omega = _counting_constant(1.0)
    bath = BathSpec(
        omegas=np.array([1.5]), U=np.array([0.1]), V=np.array([0.1]),
        G=np.array([0.0]), Z=np.array([0.0]), nu=Constant(0.0),
        temperature=0.0,
    )
    spec = SystemSpec(omega=omega, bath=bath, t_max=1.0)
    for grid in ([0.0, 1.0], [0.0, 0.25, 1.0]):
        type(omega).calls = 0
        traj = integrate_R(spec, np.array(grid), dt=0.1, defect_limit=1.0)
        want = rk4_steps(grid, 0.1)
        expect(f"integrate_R steps on {grid}", type(omega).calls // 4, want)
        stored = sum(
            s.R11.nbytes + s.R12.nbytes + s.R21.nbytes + s.R22.nbytes
            for s in traj
        )
        expect(f"integrate_R bytes on {grid}", stored,
               trajectory_bytes(len(grid), propagator_dim(1)))

    model = LangevinModel(omega=omega, gamma=Constant(0.0))
    grid = np.array([0.0, 0.25, 1.0])
    type(omega).calls = 0
    evolve_moments(model, CentralGaussian.vacuum(), grid, dt=0.1)
    expect("evolve_moments steps", type(omega).calls // 3, rk4_steps(grid, 0.1))
    type(omega).calls = 0
    epsilon_solver(model, grid, dt=0.1, wronskian_tol=1.0)
    expect("epsilon_solver steps", type(omega).calls // 3, rk4_steps(grid, 0.1))
    return problems


if __name__ == "__main__":
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    found = self_check()
    for line in found:
        print(line, file=sys.stderr)
    print("counts ok" if not found else f"{len(found)} count mismatches")
    sys.exit(1 if found else 0)
