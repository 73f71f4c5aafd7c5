"""End-to-end scenario drivers with tabulated metrics and named verdicts.

Each driver runs a self-contained numerical experiment, collects its
metrics into plain columnar tables (ready for CSV export), and grades a
fixed list of named properties against configured tolerances.  Reports
are deterministic functions of the keyword arguments: the same inputs
produce the same tables, verdicts, and digest, byte for byte.  Wall-clock
time is recorded separately so it never perturbs the data.

Each scenario declares its parameters once, in a table of :class:`Param`
entries next to its run function, which the config parser, every call of
that function and the digest all read.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import math
import numbers
import re
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

from .errors import ConfigError, IntegrationError
from .langevin import (
    LangevinModel,
    effective_frequency_terms,
    epsilon_solver,
    evolve_moments,
    evolve_moments_tabulated,
)
from .perturb import (
    D_closed_form,
    coupling_profiles,
    min_noise_set,
    mu_elements,
    mu_single_factor,
    thermal_G,
)
from .profiles import (
    PROFILE_KINDS,
    READERS,
    Affine,
    Constant,
    ExpPulse,
    GaussianPulse,
    PulseTrain,
    TimeProfile,
    profile_from_dict,
    profile_to_dict,
)
from .propagate import integrate_R
from .reduced import CentralGaussian, evolve_gaussian, extract_reduced
from .system import (
    OMEGA0_REL_TOL,
    BathSpec,
    SystemSpec,
    bath_from_rwa,
    random_couplings,
    thermal_F,
    uniform_bath_frequencies,
)

__all__ = [
    "Verdict",
    "ScenarioReport",
    "Param",
    "PARAMS",
    "SCENARIOS",
    "bind_params",
    "config_digest",
    "param_docs",
    "run_short_time_convergence",
    "run_rwa_check",
    "run_mir_pulse_train",
    "run_closure",
]

# Lowest bath frequency of short-time-convergence and rwa-check, in units of
# the oscillator frequency; omega_max must lie above it.
BAND_LO = 0.2


def _frequency_dip(omega0: float) -> GaussianPulse:
    """Unit dip of rwa-check's modulated extraction, centred in its run of
    6 / omega0."""
    t_mod = 6.0 / omega0
    return GaussianPulse(1.0, center=0.5 * t_mod, width=t_mod / 12.0)


def _max_modulation_depth() -> float:
    """Largest |depth| of rwa-check's frequency dip that keeps omega(0)
    within ``OMEGA0_REL_TOL`` of omega0, as ``SystemSpec`` requires.

    The dip's tail at t = 0 is exp(-18) of its peak whatever omega0 is; one
    ulp of the tolerance is left for rounding omega(0).
    """
    tail = _frequency_dip(1.0).value(0.0)
    return (OMEGA0_REL_TOL - math.ulp(1.0)) / tail


@dataclass(frozen=True)
class Verdict:
    """One graded property: measured value against a fixed threshold."""

    name: str
    passed: bool
    value: float
    threshold: float
    comparator: str


def _check(name: str, value: float, threshold: float, comparator: str) -> Verdict:
    value = float(value)
    if comparator == "<=":
        ok = value <= threshold
    elif comparator == ">=":
        ok = value >= threshold
    elif comparator == ">":
        ok = value > threshold
    else:
        raise ValueError(f"unknown comparator {comparator!r}")
    return Verdict(
        name=name, passed=bool(ok), value=value, threshold=threshold,
        comparator=comparator,
    )


def _json_safe(obj):
    """JSON form of the values ``json`` does not know: profiles, complex
    numbers and numpy scalars and arrays."""
    if isinstance(obj, TimeProfile):
        return profile_to_dict(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot encode object of type {type(obj).__name__}")


def config_digest(scenario: str, params: dict, seed: int) -> str:
    """Stable hash of (scenario name, parameters, seed)."""
    blob = json.dumps(
        {"scenario": scenario, "params": params, "seed": seed},
        sort_keys=True,
        default=_json_safe,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class ScenarioReport:
    """Deterministic record of one scenario run.

    ``tables`` maps table name to columns (name -> list of floats); every
    column in one table has the same length, so each table is directly
    CSV-embeddable.  ``wall_time`` is informational only and is excluded
    from any reproducibility contract.
    """

    scenario: str
    digest: str
    seed: int
    tables: dict[str, dict[str, list[float]]]
    verdicts: list[Verdict]
    metadata: dict = field(default_factory=dict)
    wall_time: float = 0.0

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def verdict(self, name: str) -> Verdict:
        for v in self.verdicts:
            if v.name == name:
                return v
        raise KeyError(f"no verdict named {name!r}")

    def table_column(self, table: str, column: str) -> list[float]:
        return self.tables[table][column]


# ---------------------------------------------------------------------------
# parameter tables


@dataclass(frozen=True)
class Param:
    """One scenario parameter: its config ``field`` (``section.key``), the
    run function's ``keyword`` (the key unless given) and ``check(value,
    args)``, which returns the value as the run uses it or raises ValueError
    with the bound it breaks; ``args`` holds the parameters declared before
    it.  ``default`` comes from the run function's signature."""

    field: str
    check: Callable[[Any, dict], Any]
    keyword: str = ""
    default: Any = None

    def __post_init__(self):
        if not self.keyword:
            object.__setattr__(self, "keyword", self.key)

    @property
    def section(self) -> str:
        return self.field.partition(".")[0]

    @property
    def key(self) -> str:
        return self.field.partition(".")[2]


# Scenario name -> run function, and -> its parameter table, in declaration order.
SCENARIOS: dict[str, Callable[..., ScenarioReport]] = {}
PARAMS: dict[str, tuple[Param, ...]] = {}


def bind_params(name: str, given: dict) -> dict:
    """Every parameter of scenario ``name`` by keyword: the ``given`` ones
    checked and converted, the others at their defaults.  Raises
    ConfigError naming the field (and keyword) and the bound broken."""
    args: dict = {}
    for p in PARAMS[name]:
        try:
            args[p.keyword] = p.check(given.get(p.keyword, p.default), args)
        except ValueError as exc:
            label = p.field if p.keyword == p.key else f"{p.field} ({p.keyword})"
            raise ConfigError(f"{label} {exc}", field=p.field) from exc
    return args


def scenario(name: str, *table: Param):
    """Register a scenario body, which takes the checked parameters and
    ``seed`` and returns its tables, verdicts and metadata, under ``name``
    with its parameter table; the digest hashes the checked parameters."""

    def register(body):
        sig = inspect.signature(body)
        PARAMS[name] = tuple(
            replace(p, default=sig.parameters[p.keyword].default) for p in table
        )

        @functools.wraps(body)
        def run(*args, **kwargs) -> ScenarioReport:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            seed = bound.arguments.pop("seed")
            params = bind_params(name, bound.arguments)
            t0 = time.perf_counter()
            # a quantity that vanishes reaches its verdict as inf or NaN,
            # which fails it, rather than as a warning or an exception
            with np.errstate(divide="ignore", invalid="ignore"):
                report = ScenarioReport(
                    name, config_digest(name, params, seed), seed,
                    *body(**params, seed=seed),
                )
            report.wall_time = time.perf_counter() - t0
            return report

        SCENARIOS[name] = run
        return run

    return register


def param_docs() -> str:
    """Each scenario's config fields with their bounds and defaults, then
    each profile kind's fields."""
    order = ("system", "model", "grid", "params", "tolerances")
    lines = []
    for name, table in PARAMS.items():
        lines.append(f"{name}:")
        for p in sorted(table, key=lambda p: order.index(p.section)):
            # 1.0e-6, not 1e-6, which YAML reads as a string
            default = re.sub(r"(?<![\d.])(\d+)e", r"\1.0e",
                             json.dumps(p.default, default=_json_safe))
            lines.append(f"  {p.field}: {p.check.rule}; default {default}")
    lines.append("profile kinds of model.omega and model.gamma:")
    for kind, entry in PROFILE_KINDS.items():
        if entry.parses:
            lines.append(f"  {kind}:")
            for f in entry.fields:
                default = "required" if f.default is None else f"default {f.default}"
                lines.append(f"    {f.key}: {READERS[f.read]}; {default}")
    return "\n".join(lines)


def _rule(text: str):
    """Attach to a check the bound it enforces, as :func:`param_docs` shows it."""

    def attach(check):
        check.rule = text
        return check

    return attach


def _real(value):
    """``value`` itself if it is a finite real number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:   # an integer beyond the float range
        finite = False
    if not finite:
        raise ValueError(f"must be finite, got {value!r:.30}")
    return value


def _number(bound: float | None = None, inclusive: bool = False):
    """A finite number, above ``bound`` where given."""
    op = ">=" if inclusive else ">"

    @_rule("number" if bound is None else f"number {op} {bound:g}")
    def check(value, args):
        _real(value)
        if bound is not None and not (
            value >= bound if inclusive else value > bound
        ):
            raise ValueError(f"must be {op} {bound:g}, got {value}")
        return value

    return check


_NUMBER = _number()
_POSITIVE = _number(0.0)
_NON_NEGATIVE = _number(0.0, inclusive=True)


def _integer(low: int, odd: bool = False):
    kind = "odd integer" if odd else "integer"

    @_rule(f"{kind} >= {low}")
    def check(value, args):
        if (not isinstance(_real(value), numbers.Integral) or value < low
                or odd and value % 2 == 0):
            raise ValueError(f"must be an {kind} >= {low}, got {value!r}")
        return value

    return check


def _or_derived(check, text: str, derive: Callable[[dict], float]):
    """``check``; a null value takes ``derive(args)``, checked the same way."""

    @_rule(f"{check.rule}, or null for {text}")
    def derived(value, args):
        if value is not None:
            return check(value, args)
        try:
            return check(derive(args), args)
        except ValueError as exc:
            raise ValueError(f"is null, so {text}, which {exc}") from exc

    return derived


def _numbers(size: int, exact: bool = False, rule: str = "", ok=None):
    """A list of ``size`` numbers (at least ``size`` unless ``exact``),
    returned as a tuple of floats that satisfies ``ok`` where given."""
    want = size if exact else f"at least {size}"

    @_rule(f"list of {want} numbers" + (f", {rule}" if rule else ""))
    def check(value, args):
        if not isinstance(value, (list, tuple)) or not (
            len(value) == size if exact else len(value) >= size
        ):
            raise ValueError(f"must be a list of {want} numbers, got {value!r}")
        vals = tuple(float(_real(v)) for v in value)
        if ok is not None and not ok(vals):
            raise ValueError(f"must be {rule}, got {list(vals)}")
        return vals

    return check


_PAIR = _numbers(2, exact=True)
_DESCENDING = _numbers(
    2, rule="positive and strictly descending",
    ok=lambda v: all(a > b > 0.0 for a, b in zip(v, v[1:])),
)


@_rule("non-empty list of non-zero numbers or [re, im] pairs")
def _amplitudes(value, args):
    if not isinstance(value, (list, tuple)) or not value:
        raise ValueError(f"must be a non-empty list of amplitudes, got {value!r}")
    rhos = tuple(
        complex(*_PAIR(v, args)) if isinstance(v, (list, tuple))
        else complex(_real(v.real), _real(v.imag)) if isinstance(v, complex)
        else complex(_real(v))
        for v in value
    )
    if 0 in rhos:
        raise ValueError(f"must hold non-zero amplitudes, got {value!r}")
    return rhos


def _fitted_order(eps: np.ndarray, metric: np.ndarray) -> float:
    """Least-squares slope of log(metric) against log(eps)."""
    return float(np.polyfit(np.log(eps), np.log(metric), 1)[0])


def _extracted_mu(traj, spec: SystemSpec) -> tuple[np.ndarray, np.ndarray]:
    """Drift correction A(t) - A11(t) read off the exact propagator."""
    red = extract_reduced(traj, spec)
    ts, mus = red.ts, red.A.copy()
    mus[:, 0, 1] += spec.omega.values(ts) ** 2
    mus[:, 1, 0] -= 1.0
    return ts, mus


# ---------------------------------------------------------------------------
# short-time convergence


def _short_pulse_spec(
    epsilon: float,
    omega_max: float,
    n_modes: int,
    coupling_scale: float,
    seed: int,
) -> tuple[SystemSpec, float]:
    """Weakly coupled bath driven by one pulse of duration eps / omega_max."""
    t_pulse = epsilon / omega_max
    nu = GaussianPulse(1.0, center=0.5 * t_pulse, width=t_pulse / 6.0)
    U, V, G, Z = random_couplings(n_modes, scale=coupling_scale, seed=seed)
    bath = BathSpec(
        omegas=uniform_bath_frequencies(n_modes, BAND_LO, omega_max),
        U=U, V=V, G=G, Z=Z, nu=nu, temperature=0.0,
    )
    spec = SystemSpec(omega=Constant(1.0), bath=bath, t_max=2.0 * t_pulse)
    return spec, t_pulse


@scenario(
    "short-time-convergence",
    Param("params.ladder", _DESCENDING),
    Param("system.omega_max", _number(BAND_LO)),
    Param("system.n_modes", _integer(1)),
    Param("system.coupling_scale", _POSITIVE),
    Param("grid.steps", _integer(3), "grid_points"),
    Param("tolerances.closed_form_tol", _NUMBER),
    Param("tolerances.order_floor", _NUMBER),
    Param("tolerances.diag_gap_limit", _NUMBER),
    Param("tolerances.control_floor", _NUMBER),
)
def run_short_time_convergence(
    ladder: tuple[float, ...] = (0.2, 0.1, 0.05, 0.025),
    *,
    omega_max: float = 3.0,
    n_modes: int = 8,
    coupling_scale: float = 0.5,
    seed: int = 42,
    grid_points: int = 101,
    closed_form_tol: float = 1e-12,
    order_floor: float = 1.0,
    diag_gap_limit: float = 0.10,
    control_floor: float = 1e-3,
):
    """Drift-correction symmetry against pulse duration.

    For each rung of the descending ladder the dimensionless duration is
    eps = omega_max * t_pulse.  The exactly extracted drift correction is
    compared against the single-shape closed form: off-diagonals and the
    diagonal mismatch must shrink with eps at least linearly, and the
    closed form itself must agree with per-mode quadrature.  A control
    with independently shaped coefficients must KEEP a large off-diagonal
    element; that verdict guards the main property against vacuity.
    """
    ladder_arr = np.asarray(ladder, dtype=float)
    max_12, max_21, max_gap, rel_gap, quad_gap = [], [], [], [], []
    for eps in ladder_arr:
        spec, t_pulse = _short_pulse_spec(
            eps, omega_max, n_modes, coupling_scale, seed
        )
        grid = np.linspace(0.0, t_pulse, grid_points)
        traj = integrate_R(spec, grid, dt=t_pulse / 4000.0)
        ts, mus = _extracted_mu(traj, spec)
        max_12.append(float(np.max(np.abs(mus[:, 0, 1]))))
        max_21.append(float(np.max(np.abs(mus[:, 1, 0]))))
        max_gap.append(float(np.max(np.abs(mus[:, 0, 0] - mus[:, 1, 1]))))

        closed = mu_single_factor(spec.bath, t_pulse)
        rel_gap.append(
            abs(mus[-1, 0, 0] - closed.mu_pp) / abs(closed.mu_pp)
        )

        u, v, g, z = coupling_profiles(spec.bath)
        worst = 0.0
        for t in ts[:: max(1, len(ts) // 10)]:
            direct = mu_elements(u, v, g, z, float(t))
            single = mu_single_factor(spec.bath, float(t))
            worst = max(
                worst,
                abs(direct.mu_pp - single.mu_pp),
                abs(direct.mu_xx - single.mu_xx),
                abs(direct.mu_px), abs(direct.mu_xp),
            )
        quad_gap.append(worst)

    orders = [
        _fitted_order(ladder_arr, np.asarray(m))
        for m in (max_12, max_21, max_gap)
    ]

    # control: same coupling constants, but the four coefficient families
    # get two different pulse shapes, so the correction matrix must pick
    # up an off-diagonal part much larger than the factorized bound; run
    # at the largest rung where the integrals are biggest
    eps_c = float(ladder_arr[0])
    spec_c, t_pulse_c = _short_pulse_spec(
        eps_c, omega_max, n_modes, coupling_scale, seed
    )
    early = GaussianPulse(1.0, center=0.3 * t_pulse_c, width=0.1 * t_pulse_c)
    late = GaussianPulse(1.0, center=0.7 * t_pulse_c, width=0.1 * t_pulse_c)
    bath_c = spec_c.bath
    u_c = [Affine(early, scale=float(c)) for c in bath_c.U]
    v_c = [Affine(late, scale=float(c)) for c in bath_c.V]
    g_c = [Affine(early, scale=float(c)) for c in bath_c.G]
    z_c = [Affine(late, scale=float(c)) for c in bath_c.Z]
    control_offdiag = 0.0
    for t in np.linspace(0.2 * t_pulse_c, t_pulse_c, 9):
        m = mu_elements(u_c, v_c, g_c, z_c, float(t))
        control_offdiag = max(control_offdiag, abs(m.mu_px), abs(m.mu_xp))

    ratios = []
    for m in (max_12, max_21, max_gap):
        arr = np.asarray(m)
        ratios.extend(arr[:-1] / arr[1:])

    verdicts = [
        _check("asymmetry_gaps_monotone", np.min(ratios), 1.0, ">"),
        _check("asymmetry_order_at_least_linear", np.min(orders), order_floor, ">="),
        _check("closed_form_matches_quadrature", np.max(quad_gap), closed_form_tol, "<="),
        _check("extracted_diag_matches_closed_form", rel_gap[-1], diag_gap_limit, "<="),
        _check("control_offdiag_survives", control_offdiag, control_floor, ">="),
    ]

    tables = {
        "asymmetry": {
            "epsilon": list(map(float, ladder_arr)),
            "max_mu12": max_12,
            "max_mu21": max_21,
            "max_diag_gap": max_gap,
            "diag_rel_gap_vs_closed_form": list(map(float, rel_gap)),
            "quadrature_gap": list(map(float, quad_gap)),
        },
        "fitted_orders": {
            "order_mu12": [orders[0]],
            "order_mu21": [orders[1]],
            "order_diag_gap": [orders[2]],
        },
        "control": {
            "epsilon": [eps_c],
            "max_offdiag": [control_offdiag],
        },
    }
    return tables, verdicts, {
        "fitted_orders": dict(zip(("mu12", "mu21", "diag_gap"), orders))
    }


# ---------------------------------------------------------------------------
# excitation-exchange (rotating-wave) structure


_DEPTH_BOUND = _max_modulation_depth()


@_rule(f"number, |modulation_depth| <= {_DEPTH_BOUND:.6g}")
def _modulation_depth(value, args):
    if not abs(_real(value)) <= _DEPTH_BOUND:
        raise ValueError(
            f"must satisfy |modulation_depth| <= {_DEPTH_BOUND!r}, or the"
            f" frequency dip's tail moves omega(0) off omega0; got {value}"
        )
    return value


@scenario(
    "rwa-check",
    Param("params.rho_values", _amplitudes),
    Param("system.temperature", _NON_NEGATIVE),
    Param("system.omega0", _POSITIVE),
    Param("system.n_modes", _integer(1)),
    Param("params.epsilon", _POSITIVE),
    Param("system.omega_max", _number(BAND_LO)),
    Param("params.modulation_depth", _modulation_depth),
    Param("params.nu_bridge", _POSITIVE),
    Param("params.window", _numbers(
        2, exact=True, rule="positive and increasing",
        ok=lambda v: 0.0 < v[0] < v[1])),
    Param("tolerances.structure_tol", _NUMBER),
    Param("tolerances.cross_limit", _NUMBER),
    Param("tolerances.ratio_limit", _NUMBER),
    Param("tolerances.psd_tol", _NUMBER),
)
def run_rwa_check(
    rho_values: tuple[complex, ...] = (0.3 + 0.2j, 0.5j, -0.4 + 0.15j),
    *,
    temperature: float = 0.5,
    omega0: float = 1.0,
    n_modes: int = 16,
    epsilon: float = 0.05,
    omega_max: float = 3.0,
    modulation_depth: float = 0.01,
    nu_bridge: float = 0.08,
    window: tuple[float, float] = (20.0, 40.0),
    structure_tol: float = 1e-12,
    cross_limit: float = 0.05,
    ratio_limit: float = 0.10,
    psd_tol: float = 1e-12,
    seed: int = 0,
):
    """Structure of the diffusion matrix for excitation-exchange couplings.

    Closed form: the cross element vanishes and D_pp = omega0^2 D_xx for
    every amplitude set.  Extraction from the exact propagator reproduces
    the same structure for a short pulse, both with the oscillator
    frequency held constant and with a percent-level frequency dip that
    breaks the identity only mildly.  A long constant-coupling run checks
    that the time-averaged noise ratio chi_pp / (omega0^2 chi_xx) bridges
    to the minimal commutator-preserving set, whose kernel must be
    positive semidefinite at the configured noise factor.
    """
    omegas = uniform_bath_frequencies(
        n_modes, BAND_LO * omega0, omega_max * omega0
    )
    t_pulse = epsilon / (omega_max * omega0)
    nu_pulse = GaussianPulse(1.0, center=0.5 * t_pulse, width=t_pulse / 6.0)

    # closed form, per amplitude set
    rho_re, rho_im, cross_scaled, ratio_gap = [], [], [], []
    for rho in rho_values:
        bath = bath_from_rwa(
            np.full(n_modes, rho), omegas, nu_pulse, omega0, temperature
        )
        F = thermal_F(bath)
        d_pp, d_xx, d_px = np.array([
            D_closed_form(bath, F, float(t))
            for t in np.linspace(0.3 * t_pulse, t_pulse, 5)
        ]).T
        # np.max, not max(), so that a NaN reaches the verdicts
        scale = np.maximum(abs(d_pp), abs(d_xx))
        cross_scaled.append(float(np.max(abs(d_px) / scale)))
        ratio_gap.append(float(np.max(abs(d_pp / (omega0**2 * d_xx) - 1.0))))
        rho_re.append(float(np.real(rho)))
        rho_im.append(float(np.imag(rho)))

    # extraction from the exact propagator at the first amplitude set
    def extracted_cross(
        omega_profile: TimeProfile,
        nu: TimeProfile,
        horizon: float,
        dt: float,
    ) -> float:
        bath = bath_from_rwa(
            np.full(n_modes, rho_values[0]), omegas, nu, omega0, temperature
        )
        spec = SystemSpec(
            omega=omega_profile, bath=bath, omega0=omega0, t_max=1.1 * horizon
        )
        F = thermal_F(bath)
        grid = np.linspace(0.0, horizon, 61)
        traj = integrate_R(spec, grid, dt=dt)
        stack = extract_reduced(traj, spec, F).D
        norms = np.linalg.norm(stack, axis=(1, 2))
        k = int(np.argmax(norms))
        return float(abs(stack[k, 0, 1]) / norms[k])

    # short pulse at constant frequency: identity holds to roundoff
    cross_const = extracted_cross(
        Constant(omega0), nu_pulse, t_pulse, t_pulse / 4000.0
    )
    # moderate duration with a percent-level frequency dip: the identity
    # is only approximate, which is what gives the bound teeth
    t_mod = 6.0 / omega0
    dip = _frequency_dip(omega0)
    nu_mod = GaussianPulse(0.3, center=0.5 * t_mod, width=t_mod / 9.0)
    cross_mod = extracted_cross(
        Affine(dip, scale=-modulation_depth * omega0, offset=omega0),
        nu_mod, t_mod, None,
    )

    # long constant-coupling bridge to the minimal noise set
    bath_b = bath_from_rwa(
        np.full(n_modes, rho_values[0]), omegas, Constant(nu_bridge),
        omega0, temperature,
    )
    spec_b = SystemSpec(
        omega=Constant(omega0), bath=bath_b, omega0=omega0,
        t_max=window[1] * 1.05,
    )
    F_b = thermal_F(bath_b)
    grid_b = np.linspace(window[0], window[1], 81)
    traj_b = integrate_R(spec_b, np.concatenate(([0.0], grid_b)))
    reduced = extract_reduced(traj_b, spec_b, F_b)
    in_window = reduced.ts >= window[0]
    d_pp_avg = float(np.mean(reduced.D[in_window, 0, 0]))
    d_xx_avg = float(np.mean(reduced.D[in_window, 1, 1]))
    gamma_avg = float(np.mean(reduced.gamma[in_window]))
    gamma_std = float(np.std(reduced.gamma[in_window]))
    chi_ratio = float(np.divide(d_pp_avg, omega0**2 * d_xx_avg))

    # minimal commutator-preserving set at the bridged damping scale
    G = thermal_G(omega0, temperature)
    floor = min_noise_set(Constant(max(gamma_avg, 1e-6)), omega0, G)
    X = floor.noise(1.0)
    eigs = np.linalg.eigvalsh(X)
    psd_margin = float(eigs.min()) / float(max(eigs.max(), 1e-300))
    commutator = abs(floor.commutator_defect(1.0))

    verdicts = [
        _check("closed_form_cross_diffusion_zero", np.max(cross_scaled), structure_tol, "<="),
        _check("closed_form_diffusion_ratio_unit", np.max(ratio_gap), structure_tol, "<="),
        _check("extracted_cross_diffusion_small",
               np.max([cross_const, cross_mod]), cross_limit, "<="),
        _check("noise_ratio_bridges_to_floor", abs(chi_ratio - 1.0), ratio_limit, "<="),
        _check("floor_kernel_psd", psd_margin, -psd_tol, ">="),
        _check("floor_kernel_commutator", commutator, psd_tol, "<="),
    ]

    tables = {
        "structure": {
            "rho_real": rho_re,
            "rho_imag": rho_im,
            "max_cross_over_scale": cross_scaled,
            "max_ratio_gap": ratio_gap,
        },
        "extraction": {
            "modulation_depth": [0.0, modulation_depth],
            "cross_over_norm": [cross_const, cross_mod],
        },
        "bridge": {
            "gamma_mean": [gamma_avg],
            "gamma_std": [gamma_std],
            "chi_ratio": [chi_ratio],
            "noise_factor": [G],
        },
    }
    return tables, verdicts, {"window": list(window), "noise_factor": G}


# ---------------------------------------------------------------------------
# mirror-style pulse train


def _unit_pulse_train(
    period: float, count: int, onset: float, decay: float, rise: float
) -> TimeProfile:
    """Train of rise-then-decay pulses normalized to unit peak value."""
    c = rise * decay / (rise + decay)
    s_star = (c * decay / (decay - c)) * math.log(decay / c)
    peak = math.exp(-s_star / decay) - math.exp(-s_star / c)
    base = ExpPulse(1.0 / peak, center=onset, decay=decay, rise=rise)
    return PulseTrain(base, period=period, count=count)


def _mir_span(args: dict) -> float:
    """End of mir-pulse-train's profile evaluations: the last pulse, or the
    two pulses whose effective frequency it logs."""
    return args["onset"] + max(args["count"], 2) * float(args["period"])


@_rule("null or a profile mapping defined on [0, onset + max(count, 2) period]")
def _profile(value, args):
    if value is None:
        return None
    if not isinstance(value, TimeProfile):
        try:
            value = profile_from_dict(value)
        except (ValueError, TypeError, OverflowError, RecursionError) as exc:
            raise ValueError(f"is not a valid profile: {exc}") from exc
    lo, hi = value.domain
    end = _mir_span(args)
    if not (lo <= 0.0 and end <= hi):
        raise ValueError(
            f"must be defined on [0, {end!r}], where the run evaluates it;"
            f" its domain is [{lo!r}, {hi!r}]"
        )
    return value


@_rule(f"{_profile.rule}, non-negative there, continuous unless every y is 0")
def _damping(value, args):
    gamma = _profile(value, args)
    if gamma is not None:
        end = _mir_span(args)
        if np.any(gamma.values(np.linspace(0.0, end, 41)) < 0.0):
            raise ValueError(f"must be non-negative on [0, {end!r}]")
        for y in args["y_values"]:   # the model's own checks, as the run meets them
            LangevinModel(
                omega=Constant(args["omega0"]), gamma=gamma, y=y,
                omega0=args["omega0"], G=args["noise_scale"],
            )
    return gamma


@scenario(
    "mir-pulse-train",
    Param("system.omega0", _POSITIVE),
    Param("model.y", _numbers(
        2, rule="within [-1, 1]", ok=lambda v: all(abs(y) <= 1.0 for y in v)),
        "y_values"),
    Param("model.G", _number(1.0, inclusive=True), "noise_scale"),
    Param("grid.dt", _POSITIVE),
    Param("params.period", _or_derived(
        _POSITIVE, "pi / omega0", lambda a: math.pi / a["omega0"])),
    Param("params.count", _integer(1)),
    Param("params.onset", _or_derived(
        _POSITIVE, "period / 2", lambda a: 0.5 * a["period"])),
    Param("params.depth", _NUMBER),
    Param("params.gamma_max", _or_derived(
        _NON_NEGATIVE, "depth / 2", lambda a: 0.5 * a["depth"])),
    Param("params.decay", _POSITIVE),
    Param("params.rise", _or_derived(
        _POSITIVE, "decay / 6", lambda a: a["decay"] / 6.0)),
    Param("tolerances.asym_floor", _NUMBER),
    Param("tolerances.constancy_tol", _NUMBER),
    Param("model.omega", _profile, "omega_profile"),
    Param("model.gamma", _damping, "gamma_profile"),
)
def run_mir_pulse_train(
    y_values: tuple[float, ...] = (0.0, 0.5),
    *,
    omega0: float = 1.0,
    period: float | None = None,
    count: int = 50,
    onset: float | None = None,
    depth: float = 1e-2,
    gamma_max: float | None = None,
    decay: float = 2.0 * math.pi * 30.0 / 400.0,
    rise: float | None = None,
    noise_scale: float = 1.0,
    dt: float = 4e-3,
    asym_floor: float = 1e-7,
    constancy_tol: float = 1e-10,
    omega_profile: TimeProfile | None = None,
    gamma_profile: TimeProfile | None = None,
    seed: int = 0,
):
    """Photon pumping by a train of brief frequency dips.

    The dip train runs at half the oscillator period (parametric
    resonance) with a sharp rise and an exponential recovery whose
    duration matches carrier recombination in a semiconductor mirror:
    with the oscillator at 2.5 GHz (400 ps period) a 30 ps recovery is
    0.47 time units.  The scenario tabulates photon number at each pulse
    boundary for every damping split y, logs the effective-frequency
    decomposition, and grades three properties: undamped growth is
    monotone, the final fundamental-solution amplitude depends on y by
    more than ten times the integration tolerance, and switching the
    drive off freezes the photon number.  A null period, onset, gamma_max
    or rise is derived as its parameter table says.
    """
    train = _unit_pulse_train(period, count, onset, decay, rise)
    omega = omega_profile or Affine(train, scale=-depth * omega0, offset=omega0)
    gamma = gamma_profile or Affine(train, scale=gamma_max)
    t_final = onset + count * period
    boundaries = onset + period * np.arange(count + 1)
    grid = np.concatenate(([0.0], boundaries))
    vacuum = CentralGaussian.vacuum()

    photon_columns: dict[str, list[float]] = {
        "pulse_index": list(map(float, range(count + 1))),
        "time": list(map(float, boundaries)),
    }
    eps_final, wronskians = [], []
    for y in y_values:
        model = LangevinModel(
            omega=omega, gamma=gamma, y=y, omega0=omega0, G=noise_scale
        )
        moments = evolve_moments(model, vacuum, grid, dt=dt)
        photon_columns[f"photons_y={y:g}"] = [
            float(p) for p in moments.photons[1:]
        ]
        sol = epsilon_solver(model, np.array([0.0, t_final]), dt=dt)
        eps_final.append(float(abs(sol.eps[-1])))
        wronskians.append(float(sol.wronskian_drift))

    # undamped train: growth at parametric resonance is monotone
    undamped = LangevinModel(omega=omega, gamma=Constant(0.0), omega0=omega0)
    growth = evolve_moments(undamped, vacuum, grid, dt=dt).photons[1:]
    min_step = float(np.min(np.diff(growth)))

    # drive off: photon number frozen even for a stretched initial state
    still = LangevinModel(
        omega=Constant(omega0), gamma=Constant(0.0), omega0=omega0
    )
    stretched = CentralGaussian(
        np.zeros(2), np.array([[0.8 * omega0**2, 0.0], [0.0, 0.35]])
    )
    idle = evolve_moments(still, stretched, grid, dt=dt).photons
    idle_spread = float(idle.max() - idle.min())

    # effective-frequency decomposition over the first two pulses
    y_log = max(y_values, key=abs)
    model_log = LangevinModel(
        omega=omega, gamma=gamma, y=y_log, omega0=omega0, G=noise_scale
    )
    ts_eff = np.linspace(0.0, onset + 2.0 * period, 161)
    omega_sq, delta_dot, delta_sq = effective_frequency_terms(model_log, ts_eff)

    asym_gap = abs(eps_final[1] - eps_final[0])
    verdicts = [
        _check("undamped_photon_growth_monotone", min_step, 0.0, ">"),
        _check("asymmetry_changes_amplitude", asym_gap, asym_floor, ">="),
        _check("no_drive_photons_constant", idle_spread, constancy_tol, "<="),
        _check("fundamental_solution_wronskian", max(wronskians), 1e-8, "<="),
    ]

    time_unit_ps = 400.0 / (2.0 * math.pi * omega0)
    tables = {
        "photons": photon_columns,
        "asymmetry": {
            "y": list(map(float, y_values)),
            "eps_final_abs": eps_final,
            "wronskian_drift": wronskians,
        },
        "effective_frequency": {
            "time": list(map(float, ts_eff)),
            "omega_sq": omega_sq.tolist(),
            "delta_dot": delta_dot.tolist(),
            "delta_sq": delta_sq.tolist(),
        },
    }
    metadata = {
        "physical_units": {
            "carrier_period_ps": 400.0,
            "time_unit_ps": time_unit_ps,
            "drive_period_ps": period * time_unit_ps,
            "recovery_time_ps": decay * time_unit_ps,
            "rise_time_ps": rise * time_unit_ps,
        },
        "resonance_detuning": period * omega0 / math.pi - 1.0,
        "final_time": t_final,
    }
    return tables, verdicts, metadata


# ---------------------------------------------------------------------------
# closure of the local moment equations


@scenario(
    "closure",
    Param("params.coupling_scales", _DESCENDING),
    Param("system.n_modes", _integer(1)),
    Param("system.temperature", _NON_NEGATIVE),
    Param("grid.t_max", _POSITIVE),
    Param("grid.steps", _integer(3, odd=True), "fine_points"),
    Param("tolerances.weak_tol", _NUMBER),
    Param("tolerances.zero_tol", _NUMBER),
    Param("tolerances.ratio_band", _PAIR),
)
def run_closure(
    coupling_scales: tuple[float, ...] = (0.1, 0.05, 0.025),
    *,
    n_modes: int = 4,
    temperature: float = 0.3,
    t_max: float = 5.0,
    fine_points: int = 801,
    seed: int = 9,
    weak_tol: float = 1e-6,
    zero_tol: float = 1e-10,
    ratio_band: tuple[float, float] = (2.0, 8.0),
):
    """Local moment equations against the exact joint propagation.

    The exact drift and diffusion tables are fed to the tabulated moment
    integrator and the resulting covariances are compared with direct
    propagation of the joint Gaussian.  The relative gap must vanish for
    zero coupling, stay below a weak-coupling tolerance at the smallest
    scale, and shrink roughly fourfold when the coupling scale halves
    (the neglected back-reaction enters at second order).
    """
    scales = np.asarray(coupling_scales, dtype=float)
    nu = GaussianPulse(1.0, center=0.3 * t_max, width=0.06 * t_max)
    omegas = uniform_bath_frequencies(n_modes, 0.5, 2.0)
    fine = np.linspace(0.0, t_max, fine_points)
    dt = (fine[1] - fine[0]) / 8.0
    vacuum = CentralGaussian.vacuum()

    def gap_for(scale: float) -> float:
        if scale == 0.0:
            U = V = G = Z = np.zeros(n_modes)
        else:
            U, V, G, Z = random_couplings(n_modes, scale=scale, seed=seed)
        bath = BathSpec(
            omegas=omegas, U=U, V=V, G=G, Z=Z, nu=nu, temperature=temperature
        )
        spec = SystemSpec(omega=Constant(1.0), bath=bath, t_max=t_max)
        F = thermal_F(bath)
        traj = integrate_R(spec, fine, dt=dt)
        red = extract_reduced(traj, spec, F)
        if len(red) < fine.size:
            t = float(np.setdiff1d(fine, red.ts)[0])
            raise IntegrationError(
                f"closure needs the drift at every fine point; R11 is"
                f" near-singular at t={t:.6g}",
                t=t,
            )
        tab = evolve_moments_tabulated(fine, red.A, red.D, vacuum)
        gaps = []
        for k in range(0, fine_points, 100):
            exact = evolve_gaussian(vacuum, traj[k], F)
            gaps.append(np.linalg.norm(
                tab.covs[k // 2] - exact.cov
            ) / np.linalg.norm(exact.cov))
        return float(np.max(gaps))   # keeps a NaN, which max() may drop

    gaps = [gap_for(float(s)) for s in scales]
    zero_gap = gap_for(0.0)
    ratios = np.divide(gaps[:-1], gaps[1:]).tolist()

    verdicts = [
        _check("weak_coupling_closure", gaps[-1], weak_tol, "<="),
        _check("uncoupled_closure_exact", zero_gap, zero_tol, "<="),
        _check("closure_gap_shrinks_quadratically", np.min(ratios), ratio_band[0], ">="),
        _check("closure_gap_ratio_bounded", np.max(ratios), ratio_band[1], "<="),
    ]
    tables = {
        "closure": {
            "coupling_scale": list(map(float, scales)),
            "max_rel_cov_gap": gaps,
        },
        "ratios": {
            "scale_from": list(map(float, scales[:-1])),
            "scale_to": list(map(float, scales[1:])),
            "gap_ratio": ratios,
        },
        "uncoupled": {
            "coupling_scale": [0.0],
            "max_rel_cov_gap": [zero_gap],
        },
    }
    return tables, verdicts, {
        "fine_step": float(fine[1] - fine[0]), "sub_step": dt
    }
