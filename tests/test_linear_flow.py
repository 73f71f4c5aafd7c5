"""The linear-ODE stepping core against the scalar per-step loops.

``oscbath.propagate.linear_flow`` steps the local model's moments, its
amplitude eps and the free central block R11 as stacked RK4 increments,
composed per grid interval.  The loops in ``oracles.py`` take the same
steps one at a time on Python floats; the grid below has an interval
longer than one block of steps and grid points on block boundaries.
When every profile is exactly ``Constant`` each interval is instead one
power of the step map, checked here against the composed steps.
"""

from __future__ import annotations

import importlib.util
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from oscbath import (
    Affine,
    BathSpec,
    CentralGaussian,
    Constant,
    ExpPulse,
    GaussianPulse,
    IntegrationError,
    LangevinModel,
    SystemSpec,
    diffusion_matrix,
    drift_matrix,
    epsilon_solver,
    evolve_moments,
    free_central_R11,
    integrate_R,
    profile_from_dict,
    random_couplings,
    uniform_bath_frequencies,
)
from oscbath import propagate
from oscbath.propagate import _block_steps, rk4_blocks

_spec = importlib.util.spec_from_file_location(
    "perfbench_counts",
    Path(__file__).resolve().parent.parent / "perfbench" / "counts.py",
)
counts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(counts)

# dt is a power of two and the grid points are multiples of it, so every
# interval takes exactly the listed number of steps: 300, 212, 3, 185, 68,
# then 1,052 (more than one block), 228 and 52.  The blocks of the 6 x 6
# moments (910 steps) end inside the long interval and on grid point 6
# (1,820 steps); those of the 2 x 2 amplitude and R11 (1,024 steps) end
# inside it and on grid point 7 (2,048 steps).
DT = 2.0**-7
GRID = DT * np.array(
    [0.0, 300.0, 512.0, 515.0, 700.0, 768.0, 1820.0, 2048.0, 2100.0])


def test_grid_straddles_blocks():
    steps = np.cumsum(np.ceil(np.diff(GRID) / DT)).astype(int).tolist()
    assert steps == [300, 512, 515, 700, 768, 1820, 2048, 2100]
    assert counts.rk4_steps(GRID, DT) == 2100
    for n in (2, 6):
        block = _block_steps(8 * n * n)
        assert np.diff([0, *steps]).max() > block
        cuts = set(range(block, steps[-1], block))
        assert cuts & set(steps) and cuts - set(steps)


def _model(y: float) -> LangevinModel:
    return LangevinModel(
        omega=Affine(GaussianPulse(1.0, 4.0, 0.6), scale=0.3, offset=1.0),
        gamma=GaussianPulse(0.2, 4.0, 0.9),
        y=y,
        G=1.3,
    )


def _close(got: np.ndarray, want: np.ndarray, rel: float = 1e-12) -> None:
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


@pytest.mark.parametrize("y", [0.0, 0.5])
def test_moments_match_scalar_loop(y):
    model = _model(y)
    init = CentralGaussian(mean=np.array([0.8, -0.4]), cov=np.diag([0.7, 0.5]))
    got = evolve_moments(model, init, GRID, dt=DT)
    want = oracles.integrate_moments(
        lambda t: drift_matrix(model, t),
        lambda t: diffusion_matrix(model, t),
        init, GRID, dt=DT,
    )
    np.testing.assert_array_equal(got.ts, want.ts)
    _close(got.means, want.means)
    _close(got.covs, want.covs)


@pytest.mark.parametrize("y", [0.0, 0.5])
def test_epsilon_matches_scalar_loop(y):
    model = _model(y)
    sol = epsilon_solver(model, GRID, dt=DT)
    eps, deps, drift = oracles.epsilon(
        lambda t: oracles.omega_ef2(model, t),
        model.omega0, GRID, DT, 1e-8,
    )
    _close(sol.eps, eps)
    _close(sol.eps_dot, deps)
    assert sol.wronskian_drift < 1e-10 and drift < 1e-10


def test_free_central_R11_matches_scalar_loop():
    omega = Affine(GaussianPulse(1.0, 4.0, 0.6), scale=0.3, offset=1.0)
    bath = BathSpec(
        omegas=[1.5], U=[0.0], V=[0.0], G=[0.0], Z=[0.0], nu=Constant(0.0)
    )
    spec = SystemSpec(omega=omega, bath=bath, t_max=float(GRID[-1]))
    _close(
        free_central_R11(spec, GRID, dt=DT),
        oracles.free_R11(omega.value, GRID, DT),
    )


def _flow_forms(monkeypatch) -> list[str]:
    """Record which form each linear_flow call takes: the stepped form
    schedules its steps by rk4_blocks, the powered form is _powered_flow."""
    taken = []
    for name in ("rk4_blocks", "_powered_flow"):
        original = getattr(propagate, name)

        def recording(*args, _name=name, _original=original):
            taken.append(_name)
            return _original(*args)

        monkeypatch.setattr(propagate, name, recording)
    return taken


class _Stepped(Constant):
    """A Constant that linear_flow steps: only the exact type is powered."""


def test_vacuum_is_an_exact_fixed_point(monkeypatch):
    # Under omega = 1 and gamma = 0 the vacuum, and every thermal state
    # c I, is a fixed point of the moment equations in floating point too:
    # every increment, and so every power of one, annihilates it exactly.
    # Applying P = I + Q instead rounds c (1 + Q_pp), which moves c = 0.75
    # by an ulp.
    taken = _flow_forms(monkeypatch)
    model = LangevinModel(omega=Constant(1.0), gamma=Constant(0.0))
    for c in (0.5, 0.75, 1.3):
        state = CentralGaussian(mean=np.zeros(2), cov=c * np.eye(2))
        for grid in (GRID, np.linspace(0.0, 50.0, 7)):
            out = evolve_moments(model, state, grid, dt=4e-3)
            np.testing.assert_array_equal(
                out.covs, np.broadcast_to(c * np.eye(2), out.covs.shape)
            )
            np.testing.assert_array_equal(out.means, 0.0)
    out = evolve_moments(model, CentralGaussian.vacuum(), GRID, dt=4e-3)
    np.testing.assert_array_equal(out.photons, 0.0)
    assert set(taken) == {"_powered_flow"}


_OMEGA = st.floats(0.3, 3.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    omega=_OMEGA,
    gamma=st.floats(0.0, 0.5),
    y=st.one_of(st.just(0.0), st.floats(-0.9, 0.9)),
    G=st.floats(1.0, 2.0),
    dt=st.floats(0.01, 0.1),
    spans=st.lists(st.floats(0.05, 2.0), min_size=1, max_size=4),
    short=st.floats(0.01, 1.0),
    at=st.integers(0, 4),
)
def test_powered_flow_matches_composed_steps(
    omega, gamma, y, G, dt, spans, short, at
):
    # The same generator through both forms: exact Constants are powered,
    # the _Stepped subclass is stepped.  The grid's intervals are unequal,
    # and one of them, shorter than dt, is a single step.
    spans.insert(min(at, len(spans)), short * dt)
    grid = np.cumsum([0.0, *spans])
    init = CentralGaussian(mean=np.array([0.8, -0.4]), cov=np.diag([0.7, 0.5]))
    bath = BathSpec(
        omegas=[1.5], U=[0.0], V=[0.0], G=[0.0], Z=[0.0], nu=Constant(0.0)
    )
    runs = {}
    with pytest.MonkeyPatch.context() as patch:
        taken = _flow_forms(patch)
        for kind in (Constant, _Stepped):
            model = LangevinModel(
                omega=kind(omega), gamma=kind(gamma), y=y, omega0=omega, G=G
            )
            spec = SystemSpec(omega=kind(omega), bath=bath, t_max=grid[-1])
            taken.clear()
            moments = evolve_moments(model, init, grid, dt=dt)
            # RK4's own Wronskian drift at h omega up to 0.3 is not checked
            sol = epsilon_solver(model, grid, dt=dt, wronskian_tol=math.inf)
            runs[kind] = (
                moments.means, moments.covs, sol.eps, sol.eps_dot,
                free_central_R11(spec, grid, dt=dt),
            )
            form = "_powered_flow" if kind is Constant else "rk4_blocks"
            assert taken == [form] * 3
    for got, want in zip(runs[Constant], runs[_Stepped]):
        _close(got, want, 1e-11)


def test_powered_flow_builds_each_map_once(monkeypatch):
    # np.diff of a linspace grid varies in its last bit: at 8 steps per
    # interval, closure's 101- and 801-point grids change (h, n) at 60 and
    # 468 intervals but hold only 8 and 11 distinct (h, n).  Each map is
    # built once, and Z is bitwise what rebuilding at every interval gives,
    # for one generator and for a stack of them.
    build = propagate._powered_map
    built = []

    def counting(T, h, n, work):
        built.append((h, n))
        return build(T, h, n, work)

    monkeypatch.setattr(propagate, "_powered_map", counting)
    rng = np.random.default_rng(4)
    for points in (101, 801):
        ts = np.linspace(0.0, 5.0, points)
        dt = np.diff(ts).max() / 8.0
        n_sub, h_int = propagate._schedule(ts, dt)
        keys = list(zip(h_int.tolist(), n_sub.tolist()))
        assert 5 * len(set(keys)) < sum(a != b for a, b in zip(keys, keys[1:]))
        for shape in ((6, 6), (3, 2, 2)):
            T = rng.uniform(-0.5, 0.5, shape)
            z = np.broadcast_to(np.eye(shape[-1]), shape)
            built.clear()
            Z = propagate._powered_flow(z, ts, dt, T)
            assert sorted(built) == sorted(set(keys))
            work = np.empty((5, 1) + shape)
            want = [z]
            for key in keys:
                Qn = build(T, *key, work)
                want.append(want[-1] + Qn @ want[-1])
            np.testing.assert_array_equal(Z, want)


def test_step_count_guard_holds_in_both_forms(monkeypatch):
    # ceil(span / dt) at dt = 1e-300 is far past 2^53 steps; its conversion
    # to an integer count would overflow.  About 1.5 * 2^52 steps fit in an
    # integer, but from k = 2^52 on the node fraction k + 1/2 is not a
    # double.  Both forms refuse both before taking a step.
    taken = _flow_forms(monkeypatch)
    forms = ((Constant, "_powered_flow"), (_Stepped, "rk4_blocks"))
    for (kind, form), dt in itertools.product(
            forms, (1e-300, GRID[-1] / 1.5 / 2.0**52)):
        model = LangevinModel(omega=kind(1.0), gamma=kind(0.1))
        taken.clear()
        with pytest.raises(ValueError, match="needs too many steps"):
            evolve_moments(model, CentralGaussian.vacuum(), GRID, dt=dt)
        assert taken == [form]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid:RuntimeWarning")
def test_non_finite_moments_raise_at_the_oracle_time():
    # h omega = 10 is far outside RK4's stability region: the moments grow
    # by about 1.6e5 per step until they overflow.
    model = LangevinModel(omega=Constant(10.0), gamma=Constant(0.0))
    init = CentralGaussian.vacuum()
    grid = np.arange(0.0, 400.0, 5.0)
    with pytest.raises(IntegrationError, match="non-finite") as want:
        oracles.integrate_moments(
            lambda t: drift_matrix(model, t),
            lambda t: diffusion_matrix(model, t),
            init, grid, dt=1.0,
        )
    with pytest.raises(IntegrationError, match="non-finite") as got:
        evolve_moments(model, init, grid, dt=1.0)
    assert grid[1] < got.value.t == want.value.t < grid[-1]


def test_wronskian_violation_raises_at_the_oracle_time():
    model = _model(0.5)
    grid = np.linspace(0.0, 40.0, 81)
    args = (model.omega0, grid, 0.2, 1e-5)
    with pytest.raises(IntegrationError) as want:
        oracles.epsilon(lambda t: oracles.omega_ef2(model, t), *args)
    with pytest.raises(IntegrationError, match="Wronskian") as got:
        epsilon_solver(model, grid, dt=0.2, wronskian_tol=1e-5)
    assert grid[1] < got.value.t == want.value.t < grid[-1]


# Profile kinds of PROFILE_KINDS, with bounded fields, that are smooth
# within every step of a grid whose points are multiples of 1/8: their
# kinks and onsets sit on that lattice, where a step ends.
_LATTICE = st.integers(0, 24).map(lambda k: k / 8.0)


def _knots(inner: list[float]):
    """Knots at 0, 4 (the longest run) and ``inner``, with their values."""
    times = sorted({0.0, 4.0, *inner})
    return st.fixed_dictionaries({"times": st.just(times), "values": st.lists(
        st.floats(-0.3, 0.3), min_size=len(times), max_size=len(times))})


_BASES = {
    "gaussian-pulse": st.fixed_dictionaries({
        "amplitude": st.floats(-0.3, 0.3), "center": st.floats(0.0, 3.0),
        "width": st.floats(0.3, 1.0)}),
    "exp-rise-decay-pulse": st.fixed_dictionaries({
        "amplitude": st.floats(-0.3, 0.3), "center": _LATTICE,
        "decay": st.floats(0.3, 2.0), "rise": st.floats(0.1, 1.0)}),
    "pulse-train": st.fixed_dictionaries({
        "base": st.fixed_dictionaries({
            "kind": st.just("gaussian-pulse"),
            "amplitude": st.floats(-0.3, 0.3), "center": st.floats(0.0, 1.0),
            "width": st.floats(0.2, 0.5)}),
        "count": st.integers(1, 4), "period": st.floats(0.5, 1.5)}),
    "piecewise-linear": st.lists(_LATTICE, max_size=3, unique=True).flatmap(
        _knots),
}


@st.composite
def _frequencies(draw):
    """omega0 and an omega of a profile kind around it."""
    omega0 = draw(st.floats(0.5, 2.0))
    kind = draw(st.sampled_from(["constant", *_BASES]))
    if kind == "constant":
        return omega0, profile_from_dict({"kind": kind, "value": omega0})
    base = profile_from_dict({"kind": kind, **draw(_BASES[kind])})
    return omega0, Affine(base, offset=omega0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    frequencies=_frequencies(),
    gamma=st.one_of(
        st.builds(GaussianPulse, st.floats(0.05, 0.5), st.floats(0.0, 3.0),
                  st.floats(0.3, 1.0)),
        # continuous, with its onset no later than t = 0
        st.builds(ExpPulse, st.floats(0.05, 0.5), st.floats(-1.0, 0.0),
                  st.floats(0.5, 2.0), st.floats(0.1, 1.0)),
    ),
    y=st.floats(-0.95, 0.95).filter(bool),
    log2_dt=st.integers(-4, -3),
    steps=st.lists(st.integers(1, 8), min_size=1, max_size=4),
)
def test_wronskian_drift_falls_as_dt4(frequencies, gamma, y, log2_dt, steps):
    # Grid points on multiples of dt = 2^-m, so halving dt halves every
    # step, and RK4's drift falls about 2^5 = 32 times (30.2 to 32.0 over
    # these draws, at drifts of 2e-10 to 9e-6); a dt^4 bound asks for 8.
    omega0, omega = frequencies
    model = LangevinModel(omega=omega, gamma=gamma, y=y, omega0=omega0)
    dt = 2.0**log2_dt
    grid = dt * np.cumsum([0.0, *steps])
    coarse, fine = (
        epsilon_solver(model, grid, dt=h, wronskian_tol=math.inf).wronskian_drift
        for h in (dt, dt / 2.0)
    )
    assert fine <= coarse / 8.0 + 1e-13
    # below the run's own drift, the first violating point is the oracle's
    tol = coarse / 4.0
    with pytest.raises(IntegrationError) as want:
        oracles.epsilon(lambda t: oracles.omega_ef2(model, t),
                        omega0, grid, dt, tol)
    with pytest.raises(IntegrationError, match="Wronskian") as got:
        epsilon_solver(model, grid, dt=dt, wronskian_tol=tol)
    assert got.value.t == want.value.t


# ---------------------------------------------------------------------------
# the step schedule


@settings(max_examples=150, deadline=None)
@given(
    t0=st.floats(-100.0, 100.0),
    spans=st.lists(st.floats(1e-6, 5.0), min_size=1, max_size=12),
    dt=st.floats(1e-3, 2.0),
    block=st.integers(1, 300),
    fractions=st.sampled_from([(0.0, 0.5, 1.0), (0.0, 0.5, 0.5, 1.0)]),
)
def test_schedule_matches_sequential_loop(t0, spans, dt, block, fractions):
    ts = t0 + np.cumsum([0.0, *spans])
    assume(np.all(np.diff(ts) > 0.0))
    assume(counts.rk4_steps(ts, dt) <= 3000)
    passes = list(rk4_blocks(ts, dt, fractions, block))
    got = [(h[s], nodes[s].ravel(), ends[s])
           for h, nodes, ends, blocks in passes for s in blocks]
    want = list(oracles.rk4_blocks(ts, dt, fractions, block))
    assert len(got) == len(want)
    for (h, nodes, ends), (h0, nodes0, ends0) in zip(got, want):
        np.testing.assert_array_equal(h, h0)
        np.testing.assert_array_equal(nodes, nodes0)
        np.testing.assert_array_equal(ends, ends0)
    assert sum(len(b[0]) for b in got) == counts.rk4_steps(ts, dt)
    # no node lies past its interval's end, and each interval's last node
    # is its grid point
    nodes = np.concatenate([p[1] for p in passes])
    ends = np.concatenate([p[2] for p in passes])
    interval = np.cumsum(np.r_[0, ends[:-1] >= 0])
    assert (nodes <= ts[interval + 1, None]).all()
    np.testing.assert_array_equal(nodes[ends >= 0, -1], ts[1:])


# ---------------------------------------------------------------------------
# passes of the schedule: the node work of a pass, its blocks' products

# Two grids of 2,500 and 3,001 steps of exactly PASS_DT (grid points on its
# multiples), whose intervals hold the ends of the passes of R at d = 8
# (blocks of 512, passes of 1,024), the direct form at d = 42 (blocks of
# 78, passes of 1,014), the moments (a pass is one block of 910) and the
# amplitude (one of 1,024): their blocks' bytes per step are PASS_BYTES.
PASS_DT = 2.0**-9
PASS_GRIDS = [PASS_DT * np.cumsum([0.0, *steps])
              for steps in ((700, 900, 900), (1100, 3, 897, 1001))]
PASS_BYTES = (8 * 8**2, 80 * 42, 8 * 6**2, 8 * 2**2)


def test_pass_grids_cross_pass_boundaries():
    for grid in PASS_GRIDS:
        ends = np.cumsum(np.ceil(np.diff(grid) / PASS_DT)).tolist()
        for step_bytes in PASS_BYTES:
            block = _block_steps(step_bytes)
            passes = rk4_blocks(grid, PASS_DT, (0.0,), block)
            cuts = np.cumsum([h.size for h, *_ in passes])[:-1].tolist()
            assert len(cuts) >= 2 and not set(cuts) & set(ends)


# One interval of 512 steps, then 512 of one step each: one pass of
# intervals of very unequal step counts.
MIXED_GRID = PASS_DT * np.cumsum([0.0, 512.0, *[1.0] * 512])


@pytest.mark.parametrize("grid", [*PASS_GRIDS, MIXED_GRID],
                         ids=["2500", "3001", "mixed"])
def test_schedule_holds_no_padded_table(grid):
    # A pass holds no table padded to its longest interval: at most
    # 0.18 MB here over 4 stage nodes, where the padded table of the mixed
    # grid alone took 4.57 MB.  The nodes stay those of the per-step rule.
    stages = (0.0, 0.5, 0.5, 1.0)
    for block in map(_block_steps, PASS_BYTES):
        got = [(h[s], nodes[s].ravel(), ends[s])
               for h, nodes, ends, blocks in rk4_blocks(grid, PASS_DT, stages,
                                                        block)
               for s in blocks]
        want = list(oracles.rk4_blocks(grid, PASS_DT, stages, block))
        assert len(got) == len(want)
        for a, b in zip(got, want):
            for x, y in zip(a, b):
                assert x.shape == y.shape and x.tobytes() == y.tobytes()
    tracemalloc.start()
    try:
        for _ in rk4_blocks(grid, PASS_DT, stages, _block_steps(8 * 2**2)):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.25e6


def _bath_spec(n: int, omega, nu) -> SystemSpec:
    U, V, G, Z = random_couplings(n, scale=0.3, seed=4)
    bath = BathSpec(omegas=uniform_bath_frequencies(n, 0.5, 2.5),
                    U=U, V=V, G=G, Z=Z, nu=nu)
    return SystemSpec(omega=omega, bath=bath, t_max=6.0)


def _pass_runs(grid: np.ndarray) -> list[np.ndarray]:
    """The stacks of the runs that step several blocks a pass once the
    pass is long enough, on ``grid``: R composed from the words of two
    letters (T, L) and of three (T, E, L), R by the direct form, and the
    moments."""
    omega = Affine(GaussianPulse(1.0, 3.0, 0.4), scale=0.04, offset=1.0)
    nu = GaussianPulse(0.8, 2.0, 0.5)
    stacks = []
    for n, w in ((3, Constant(1.0)), (3, omega), (20, omega)):
        assert (2 * n + 2 < propagate._DIRECT_MIN_DIM) == (n == 3)
        stacks.append(integrate_R(_bath_spec(n, w, nu), grid, dt=PASS_DT).R)
    model = _model(0.5)
    init = CentralGaussian(mean=np.array([0.8, -0.4]), cov=np.diag([0.7, 0.5]))
    moments = evolve_moments(model, init, grid, dt=PASS_DT)
    return stacks + [moments.means, moments.covs]


@pytest.mark.parametrize("grid", PASS_GRIDS, ids=["2500", "3001"])
def test_pass_boundaries_change_no_bits(grid, monkeypatch):
    # Profiles, stage values and word coefficients are formed once per pass
    # and read by its blocks; with passes of 4,096 steps, each run one pass
    # of the same blocks, the stacks are the same bits.  (The amplitude's
    # block is its whole pass, so a longer pass would lengthen it.)
    sizes = [_block_steps(b) for b in PASS_BYTES[:3]]
    want = _pass_runs(grid)
    monkeypatch.setattr(propagate, "_SCHEDULE_STEPS", 4096)
    assert [_block_steps(b) for b in PASS_BYTES[:3]] == sizes
    got = _pass_runs(grid)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("grid", PASS_GRIDS, ids=["2500", "3001"])
def test_step_counts_hold_across_passes(grid):
    # counts.self_check counts within one pass; over several, a counting
    # omega still sees 4 evaluations per step in integrate_R, in the
    # composed form (d = 4) and the direct form (d = 42), and 3 per step in
    # the moment and amplitude runs.
    steps = counts.rk4_steps(grid, PASS_DT)
    assert steps in (2500, 3001)
    omega = counts._counting_constant(1.0)
    calls = type(omega)
    for n in (1, 20):
        spec = _bath_spec(n, omega, Constant(0.2))
        calls.calls = 0
        integrate_R(spec, grid, dt=PASS_DT, defect_limit=1.0)
        assert calls.calls == 4 * steps
    model = LangevinModel(omega=omega, gamma=Constant(0.0))
    calls.calls = 0
    evolve_moments(model, CentralGaussian.vacuum(), grid, dt=PASS_DT)
    assert calls.calls == 3 * steps
    calls.calls = 0
    epsilon_solver(model, grid, dt=PASS_DT, wronskian_tol=1.0)
    assert calls.calls == 3 * steps


def test_local_model_takes_one_block_per_pass(monkeypatch):
    # The 2 x 2 amplitude and R11 (1,024 steps) and the 6 x 6 moments
    # (910) fit a whole pass in one block, so no pass is cut: over 3,001
    # steps, 3 passes of the first two and 4 of the moments.
    assert [_block_steps(8 * n * n) for n in (2, 6)] == [1024, 910]
    seen, original = [], rk4_blocks

    def recording(*args):
        for part in original(*args):
            seen.append(len(part[3]))
            yield part

    monkeypatch.setattr(propagate, "rk4_blocks", recording)
    grid = PASS_GRIDS[1]
    model = _model(0.5)
    evolve_moments(model, CentralGaussian.vacuum(), grid, dt=PASS_DT)
    epsilon_solver(model, grid, dt=PASS_DT)
    free_central_R11(_bath_spec(1, model.omega, Constant(0.0)), grid,
                     dt=PASS_DT)
    assert seen == [1] * 10


def test_local_model_stays_within_memory():
    # A pass of the local model holds five (B, n, n) work stacks of a
    # block of at most one pass and _BLOCK_BYTES, and its tables over the
    # 3 stage nodes of each step: here at most 40 floats per node, 0.98 MB
    # a pass.  Bounds 2.29 and 1.15 MB; the moments and the amplitude peak
    # at about 2.05 and 0.43 MB over 3,001 steps, and the amplitude at 1.98
    # MB with blocks of 8,192 steps, as many as fit _BLOCK_BYTES, and its
    # pass as long.
    grid = PASS_GRIDS[1]
    model = _model(0.5)
    init = CentralGaussian(mean=np.array([0.8, -0.4]), cov=np.diag([0.7, 0.5]))
    runs = (
        (6, lambda: evolve_moments(model, init, grid, dt=PASS_DT),
         lambda out: out.means.nbytes + out.covs.nbytes),
        (2, lambda: epsilon_solver(model, grid, dt=PASS_DT),
         lambda out: out.eps.nbytes + out.eps_dot.nbytes),
    )
    steps = propagate._SCHEDULE_STEPS
    for n, run, output in runs:
        run()  # first-call allocations
        tracemalloc.start()
        try:
            out = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stack = min(propagate._BLOCK_BYTES, 8 * n * n * steps)
        assert peak - output(out) <= 5 * stack + 40 * 8 * 3 * steps
