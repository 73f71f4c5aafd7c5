"""Acceptance gate: ten graded criteria, one pass/fail line each.

Every tolerance here is pinned; loosening one is a contract change, not
a test fix.  Each test prints a single summary line so a full run reads
as a checklist (use ``pytest -s tests/test_acceptance.py``).
"""

from __future__ import annotations

import math
import time

import numpy as np
import scipy.linalg

from oscbath import (
    Affine,
    BathSpec,
    CentralGaussian,
    Constant,
    ExpPulse,
    GaussianPulse,
    LangevinModel,
    PiecewiseLinear,
    SystemSpec,
    bath_from_rwa,
    build_A22,
    coupling_profiles,
    evolve_moments,
    expm_bath,
    free_central_R11,
    integrate_R,
    min_noise_set,
    mu_elements,
    mu_single_factor,
    photon_number,
    random_couplings,
    stationary_covariance,
    thermal_F,
    uniform_bath_frequencies,
)
from oscbath.langevin import diffusion_matrix, drift_matrix
from oscbath.perturb import D_closed_form
from oscbath.scenarios import (
    run_closure,
    run_mir_pulse_train,
    run_rwa_check,
    run_short_time_convergence,
)


def _criterion(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}: {detail}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def _random_modulated_spec(n_modes: int) -> SystemSpec:
    U, V, G, Z = random_couplings(n_modes, scale=0.4, seed=n_modes)
    return SystemSpec(
        omega=Affine(GaussianPulse(1.0, 8.0, 1.2), scale=0.1, offset=1.0),
        bath=BathSpec(
            omegas=uniform_bath_frequencies(n_modes, 0.2, 3.0),
            U=U, V=V, G=G, Z=Z, nu=GaussianPulse(0.8, 10.0, 2.0),
        ),
        t_max=20.0,
    )


def test_criterion_01_symplecticity():
    worst_defect = 0.0
    worst_time = 0.0
    for n in (1, 4, 16):
        spec = _random_modulated_spec(n)
        t0 = time.perf_counter()
        traj = integrate_R(spec, np.linspace(0.0, 20.0, 81))
        worst_time = max(worst_time, time.perf_counter() - t0)
        worst_defect = max(worst_defect, traj.max_defect)
    ok = worst_defect <= 1e-8 and worst_time < 10.0
    _criterion(
        1, "symplecticity", ok,
        f"sup defect {worst_defect:.3e} <= 1e-8 over N in (1,4,16) to t=20,"
        f" slowest run {worst_time:.2f}s < 10s",
    )


def test_criterion_02_bath_exponential():
    rng = np.random.Generator(np.random.Philox(key=2))
    worst = 0.0
    for n in (1, 3, 5, 8):
        omegas = rng.uniform(0.3, 3.0, size=n)
        bath = BathSpec(
            omegas=omegas, U=np.zeros(n), V=np.zeros(n),
            G=np.zeros(n), Z=np.zeros(n), nu=Constant(0.0),
        )
        A22 = build_A22(bath)
        for t in (0.7, 3.1):
            gap = np.max(np.abs(
                expm_bath(omegas, t) - scipy.linalg.expm(A22 * t)
            ))
            worst = max(worst, float(gap))
    ok = worst <= 1e-10
    _criterion(
        2, "bath exponential", ok,
        f"max |closed form - dense oracle| {worst:.3e} <= 1e-10 for N <= 8",
    )


def test_criterion_03_factorization():
    rng = np.random.Generator(np.random.Philox(key=3))
    shapes = (
        lambda: Constant(float(rng.uniform(0.2, 1.5))),
        lambda: GaussianPulse(
            float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0)),
            float(rng.uniform(0.2, 0.8)),
        ),
        lambda: ExpPulse(
            float(rng.uniform(0.5, 2.0)), center=0.0,
            decay=float(rng.uniform(0.5, 2.0)),
            rise=float(rng.uniform(0.05, 0.3)),
        ),
    )
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 6))
        bath = BathSpec(
            omegas=np.sort(rng.uniform(0.3, 3.0, size=n)),
            U=rng.uniform(-1, 1, n), V=rng.uniform(-1, 1, n),
            G=rng.uniform(-1, 1, n), Z=rng.uniform(-1, 1, n),
            nu=shapes[int(rng.integers(0, len(shapes)))](),
        )
        t = float(rng.uniform(0.2, 3.0))
        direct = mu_elements(*coupling_profiles(bath), t)
        closed = mu_single_factor(bath, t)
        worst = max(
            worst,
            abs(direct.mu_px), abs(direct.mu_xp),
            abs(direct.mu_pp - direct.mu_xx),
            abs(direct.mu_pp - closed.mu_pp),
            abs(direct.mu_xx - closed.mu_xx),
        )
    # anti-vacuity control: coefficients with two different shapes keep
    # a large off-diagonal element
    ramp = PiecewiseLinear((0.0, 10.0), (0.0, 10.0))
    one = Constant(1.0)
    zero = Constant(0.0)
    control = mu_elements([zero], [ramp], [one], [zero], 2.0)
    ok = worst <= 1e-12 and abs(control.mu_px) > 1e-3
    _criterion(
        3, "factorization theorem", ok,
        f"100 factorized sets: max gap {worst:.3e} <= 1e-12;"
        f" control |mu12| {abs(control.mu_px):.3e} > 1e-3",
    )


def test_criterion_04_short_time_convergence():
    t0 = time.perf_counter()
    report = run_short_time_convergence()   # ladder 0.2, 0.1, 0.05, 0.025
    elapsed = time.perf_counter() - t0
    tab = report.tables["asymmetry"]
    monotone = report.verdict("asymmetry_gaps_monotone").passed
    order = report.verdict("asymmetry_order_at_least_linear").value
    idx = tab["epsilon"].index(0.05)
    gap_05 = tab["diag_rel_gap_vs_closed_form"][idx]
    ok = monotone and order >= 1.0 and gap_05 <= 0.10 and elapsed < 60.0
    _criterion(
        4, "short-time convergence", ok,
        f"gaps monotone={monotone}, fitted order {order:.2f} >= 1,"
        f" diag rel gap at eps=0.05 {gap_05:.3%} <= 10%, {elapsed:.1f}s < 60s",
    )


def test_criterion_05_rwa_structure():
    rng = np.random.Generator(np.random.Philox(key=5))
    worst_cross = 0.0
    worst_ratio = 0.0
    for omega0 in (1.0, 1.7):
        n = 12
        rho = rng.uniform(-0.6, 0.6, n) + 1j * rng.uniform(-0.6, 0.6, n)
        bath = bath_from_rwa(
            rho, uniform_bath_frequencies(n, 0.2, 3.0),
            GaussianPulse(1.0, 0.4, 0.1), omega0=omega0, temperature=0.4,
        )
        F = thermal_F(bath)
        for t in (0.3, 0.8):
            d_pp, d_xx, d_px = D_closed_form(bath, F, t)
            scale = max(abs(d_pp), abs(d_xx))
            worst_cross = max(worst_cross, abs(d_px) / scale)
            worst_ratio = max(
                worst_ratio, abs(d_pp / (omega0**2 * d_xx) - 1.0)
            )
    report = run_rwa_check()
    cross = report.tables["extraction"]["cross_over_norm"]
    extracted = max(cross)
    # "exactly" for the closed form reads as machine precision
    ok = worst_cross <= 1e-13 and worst_ratio <= 1e-12 and extracted <= 0.05
    _criterion(
        5, "rwa diffusion structure", ok,
        f"closed form: |D12|/scale {worst_cross:.2e} <= 1e-13,"
        f" |D11/(w0^2 D22)-1| {worst_ratio:.2e} <= 1e-12;"
        f" extraction |D12|/||D|| {extracted:.2e} <= 0.05 at eps=0.05",
    )


def test_criterion_06_minimum_noise_set():
    worst_sum = 0.0
    worst_comm = 0.0
    psd_ok = True
    boundary_det = 0.0
    for omega0, G, gamma in ((1.0, 1.0, 0.2), (2.0, 1.5, 0.35), (0.7, 3.0, 0.1)):
        ns = min_noise_set(Constant(gamma), omega0, G)
        X = ns.noise(1.0)
        D = ns.diffusion(1.0)
        worst_sum = max(worst_sum, float(np.max(np.abs(X + X.T - 4.0 * D))))
        comm = X[0, 1] - X[1, 0] - 2j * ns.gamma(1.0)
        worst_comm = max(worst_comm, abs(comm))
        eigs = np.linalg.eigvalsh(X)
        psd_ok = psd_ok and eigs.min() >= -1e-12
        if G == 1.0:
            boundary_det = abs(np.linalg.det(X).real)
    # below G = 1 the kernel must NOT be positive semidefinite
    gamma = 0.2
    X_sub = np.array([[gamma * 0.9, 1j * gamma], [-1j * gamma, gamma * 0.9]])
    sub_psd = np.linalg.eigvalsh(X_sub).min() >= 0.0
    ok = (
        worst_sum <= 1e-14 and worst_comm <= 1e-14 and psd_ok
        and boundary_det <= 1e-12 and not sub_psd
    )
    _criterion(
        6, "minimum noise set", ok,
        f"max |X + X~ - 4D| {worst_sum:.1e}, commutator defect"
        f" {worst_comm:.1e}, PSD for G >= 1, boundary det {boundary_det:.1e}"
        f" <= 1e-12, G < 1 not PSD",
    )


def test_criterion_07_thermal_stationarity():
    gamma, G = 0.3, 1.4
    model = LangevinModel(
        omega=Constant(1.0), gamma=Constant(gamma), y=0.0, G=G
    )
    horizon = 20.0 / gamma
    out = evolve_moments(
        model, CentralGaussian.vacuum(), np.array([0.0, horizon])
    )
    final = out[-1]
    target = 0.5 * G * np.eye(2)
    cov_gap = float(np.max(np.abs(final.cov - target)))
    photon_gap = abs(photon_number(final) - 0.5 * (G - 1.0))
    lyap = stationary_covariance(
        drift_matrix(model, 0.0), diffusion_matrix(model, 0.0)
    )
    lyap_gap = float(np.max(np.abs(lyap - target)))
    ok = cov_gap <= 1e-6 and photon_gap <= 1e-6 and lyap_gap <= 1e-10
    _criterion(
        7, "thermal stationarity", ok,
        f"|cov - (G/2)I| {cov_gap:.2e} <= 1e-6 by t=20/gamma, photon gap"
        f" {photon_gap:.2e} <= 1e-6, Lyapunov solve gap {lyap_gap:.2e}",
    )


def test_criterion_08_closure():
    report = run_closure()   # coupling scales 0.1, 0.05, 0.025
    gaps = report.tables["closure"]["max_rel_cov_gap"]
    ratios = report.tables["ratios"]["gap_ratio"]
    weak = gaps[-1]
    ok = weak <= 1e-6 and all(2.0 <= r <= 8.0 for r in ratios)
    _criterion(
        8, "moment-equation closure", ok,
        f"weak-coupling rel gap {weak:.2e} <= 1e-6; halving ratios"
        f" {[f'{r:.2f}' for r in ratios]} within [2, 8] (target 4)",
    )


def test_criterion_09_asymmetry_effect():
    report = run_mir_pulse_train()   # default train, y in (0, 0.5)
    amps = dict(zip(
        report.tables["asymmetry"]["y"],
        report.tables["asymmetry"]["eps_final_abs"],
    ))
    gap = abs(amps[0.5] - amps[0.0])
    # the solver draws no randomness: a different seed argument must not
    # move the reported amplitudes at all
    a = run_mir_pulse_train(count=6, seed=0)
    b = run_mir_pulse_train(count=6, seed=123)
    seed_free = (
        a.tables["asymmetry"]["eps_final_abs"]
        == b.tables["asymmetry"]["eps_final_abs"]
    )
    ok = gap > 10.0 * 1e-8 and seed_free
    _criterion(
        9, "damping asymmetry effect", ok,
        f"| |eps(T)|_y=0.5 - |eps(T)|_y=0 | = {gap:.6e} > 1e-7"
        f" (amplitudes {amps[0.0]:.6f} vs {amps[0.5]:.6f}), seed-independent",
    )


def test_criterion_10_conservation_sanity():
    spec = SystemSpec(
        omega=Constant(1.0),
        bath=BathSpec(
            omegas=np.array([1.0]), U=(0.0,), V=(0.0,), G=(0.0,), Z=(0.0,),
            nu=Constant(0.0),
        ),
        t_max=650.0,
    )
    grid = np.linspace(0.0, 200.0 * math.pi, 201)   # 100 periods
    Rs = free_central_R11(spec, grid, dt=2.0 * math.pi / 1000.0)
    half = 0.5 * np.eye(2)
    photon_drift = 0.0
    det_drift = 0.0
    for R in Rs:
        cov = R @ half @ R.T
        photon_drift = max(
            photon_drift, abs(0.5 * (cov[0, 0] + cov[1, 1]) - 0.5)
        )
        det_drift = max(det_drift, abs(np.linalg.det(cov) - 0.25))
    # purity along physical runs: an undamped drive moves the state but
    # keeps it pure, and damping at the vacuum noise floor can only push
    # det(cov) above 1/4
    train = run_mir_pulse_train(count=6)
    period = train.metadata["physical_units"]["drive_period_ps"] / (
        train.metadata["physical_units"]["time_unit_ps"]
    )
    onset = 0.5 * period
    grid = np.concatenate(([0.0], onset + period * np.arange(7)))
    from oscbath.scenarios import _unit_pulse_train

    pulse = _unit_pulse_train(period, 6, onset, 2.0 * math.pi * 30.0 / 400.0,
                              2.0 * math.pi * 5.0 / 400.0)
    driven = LangevinModel(
        omega=Affine(pulse, scale=-1e-2, offset=1.0), gamma=Constant(0.0)
    )
    out = evolve_moments(
        driven, CentralGaussian.vacuum(), grid, dt=4e-3
    )
    pure_drift = max(
        abs(float(np.linalg.det(s.cov)) - 0.25) for s in out
    )
    damped = LangevinModel(
        omega=Affine(pulse, scale=-1e-2, offset=1.0),
        gamma=Constant(5e-3), G=1.0,
    )
    out_d = evolve_moments(damped, CentralGaussian.vacuum(), grid, dt=4e-3)
    floor_margin = min(
        float(np.linalg.det(s.cov)) - 0.25 for s in out_d
    )
    heating_ok = train.tables["photons"]["photons_y=0"][-1] > 0.0
    ok = (
        photon_drift <= 1e-10 and det_drift <= 1e-9
        and pure_drift <= 1e-9 and floor_margin >= -1e-9 and heating_ok
    )
    _criterion(
        10, "conservation sanity", ok,
        f"free run over 100 periods: photon drift {photon_drift:.2e}"
        f" <= 1e-10, |det(cov) - 1/4| {det_drift:.2e} <= 1e-9; driven"
        f" undamped purity drift {pure_drift:.2e} <= 1e-9; damped run"
        f" stays above the purity floor (margin {floor_margin:.2e})",
    )
