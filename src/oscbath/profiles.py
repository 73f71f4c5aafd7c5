"""Parametric time profiles for the driven oscillator and its couplings.

Profiles are immutable scalar functions of time with exact antiderivatives,
so cumulative quantities (pulse areas, damping memories) carry no quadrature
noise.  Times are measured in units of the inverse reference frequency of
the central oscillator; amplitudes are dimensionless.

Every kind implements

``value(t)``
    pointwise evaluation,
``integral(t0, t1)``
    the definite integral in closed form (a reversed interval yields the
    negated value, since each integral is an antiderivative difference),
``derivative(t)``
    the pointwise time derivative, used by the effective-frequency
    machinery.

and ``values(ts)`` / ``derivatives(ts)`` on arrays of times.  The defaults
loop over the scalar methods; the Gaussian and rise/decay pulses, trains
and affine maps override them with closed forms that repeat the scalar
arithmetic element by element, so the integrators can tabulate a profile
on a whole block of stage nodes in one call.

``lambda_factor`` builds the memory factor nu(t) * int_0^t nu that controls
every short-time damping and diffusion coefficient downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from .errors import ProfileDomainError

__all__ = [
    "TimeProfile",
    "Constant",
    "GaussianPulse",
    "ExpPulse",
    "PulseTrain",
    "PiecewiseLinear",
    "Affine",
    "lambda_factor",
    "tabulate",
    "profile_from_dict",
    "profile_to_dict",
]

_INF = float("inf")
_SQRT2 = math.sqrt(2.0)
_SQRT_HALF_PI = math.sqrt(0.5 * math.pi)


class TimeProfile:
    """Common interface for all profile kinds."""

    kind: ClassVar[str] = "abstract"

    # (lo, hi) window outside which the profile is declared invalid.
    @property
    def domain(self) -> tuple[float, float]:
        return (-_INF, _INF)

    # (lo, hi) window outside which the value is negligible; used to prune
    # pulse-train sums.  Infinite for profiles without compact support.
    def support(self) -> tuple[float, float]:
        return (-_INF, _INF)

    # True when the profile has no jump discontinuities.
    @property
    def is_continuous(self) -> bool:
        return True

    # Characteristic variation time, or None when there is none (constants).
    def timescale(self) -> float | None:
        return None

    def value(self, t: float) -> float:
        raise NotImplementedError

    def integral(self, t0: float, t1: float) -> float:
        raise NotImplementedError

    def derivative(self, t: float) -> float:
        raise NotImplementedError

    def cumulative(self, t: float) -> float:
        """Integral from time zero, the memory entering lambda_factor."""
        return self.integral(0.0, t)

    def values(self, ts: Sequence[float]) -> np.ndarray:
        return np.array([self.value(float(t)) for t in ts], dtype=float)

    def derivatives(self, ts: Sequence[float]) -> np.ndarray:
        return np.array([self.derivative(float(t)) for t in ts], dtype=float)

    def _check_domain(self, t: float) -> None:
        lo, hi = self.domain
        if t < lo or t > hi:
            raise ProfileDomainError(
                f"time {t!r} outside profile domain [{lo!r}, {hi!r}]"
            )


@dataclass(frozen=True)
class Constant(TimeProfile):
    """Time-independent value."""

    value_const: float = 0.0
    kind: ClassVar[str] = "constant"

    def value(self, t: float) -> float:
        return self.value_const

    def integral(self, t0: float, t1: float) -> float:
        return self.value_const * (t1 - t0)

    def derivative(self, t: float) -> float:
        return 0.0

    def support(self) -> tuple[float, float]:
        if self.value_const == 0.0:
            return (0.0, 0.0)
        return (-_INF, _INF)


@dataclass(frozen=True)
class GaussianPulse(TimeProfile):
    """Smooth bump ``amplitude * exp(-(t-center)^2 / (2 width^2))``.

    The closed-form integral uses the error function.  Useful when a
    continuously differentiable drive is required, e.g. smooth-limit
    convergence studies.
    """

    amplitude: float
    center: float
    width: float
    kind: ClassVar[str] = "gaussian-pulse"

    def __post_init__(self):
        if not self.width > 0.0:
            raise ValueError(f"gaussian-pulse width must be > 0, got {self.width}")

    def value(self, t: float) -> float:
        u = (t - self.center) / self.width
        return self.amplitude * math.exp(-0.5 * u * u)

    def integral(self, t0: float, t1: float) -> float:
        w = self.width
        a = (t0 - self.center) / (_SQRT2 * w)
        b = (t1 - self.center) / (_SQRT2 * w)
        return self.amplitude * w * _SQRT_HALF_PI * (math.erf(b) - math.erf(a))

    def derivative(self, t: float) -> float:
        u = (t - self.center) / self.width
        return -self.amplitude * u / self.width * math.exp(-0.5 * u * u)

    def values(self, ts: Sequence[float]) -> np.ndarray:
        u = (np.asarray(ts, dtype=float) - self.center) / self.width
        return self.amplitude * np.exp(-0.5 * u * u)

    def derivatives(self, ts: Sequence[float]) -> np.ndarray:
        u = (np.asarray(ts, dtype=float) - self.center) / self.width
        return -self.amplitude * u / self.width * np.exp(-0.5 * u * u)

    def support(self) -> tuple[float, float]:
        # exp(-800) underflows to zero; 40 widths is conservative.
        return (self.center - 40.0 * self.width, self.center + 40.0 * self.width)

    def timescale(self) -> float | None:
        return self.width


@dataclass(frozen=True)
class ExpPulse(TimeProfile):
    """One-sided pulse with optional finite rise and exponential decay.

    Zero before ``center``.  For ``rise == 0`` the pulse switches on
    instantaneously, ``amplitude * exp(-(t-center)/decay)``, which models a
    carrier population created by a laser kick and lost by recombination.
    For ``rise > 0`` the shape is
    ``amplitude * (1 - exp(-s/rise)) * exp(-s/decay)`` with ``s = t-center``;
    the value is then continuous (peak below ``amplitude``).
    """

    amplitude: float
    center: float = 0.0
    decay: float = 1.0
    rise: float = 0.0
    kind: ClassVar[str] = "exp-rise-decay-pulse"

    def __post_init__(self):
        if not self.decay > 0.0:
            raise ValueError(f"exp pulse decay must be > 0, got {self.decay}")
        if self.rise < 0.0:
            raise ValueError(f"exp pulse rise must be >= 0, got {self.rise}")

    def value(self, t: float) -> float:
        s = t - self.center
        if s < 0.0:
            return 0.0
        out = self.amplitude * math.exp(-s / self.decay)
        if self.rise > 0.0:
            out *= -math.expm1(-s / self.rise)
        return out

    def _cumulative_from_onset(self, s: float) -> float:
        # Antiderivative of the shape on s >= 0, zero at the onset.
        if s <= 0.0:
            return 0.0
        d = self.decay
        out = d * (1.0 - math.exp(-s / d))
        if self.rise > 0.0:
            c = self.rise * d / (self.rise + d)
            out -= c * (1.0 - math.exp(-s / c))
        return self.amplitude * out

    def integral(self, t0: float, t1: float) -> float:
        return self._cumulative_from_onset(t1 - self.center) - self._cumulative_from_onset(
            t0 - self.center
        )

    def derivative(self, t: float) -> float:
        s = t - self.center
        if s < 0.0:
            return 0.0
        d = self.decay
        if self.rise == 0.0:
            # Right derivative at the onset; the jump itself makes the
            # profile discontinuous there.
            return -self.amplitude / d * math.exp(-s / d)
        r = self.rise
        e_d = math.exp(-s / d)
        e_r = math.exp(-s / r)
        return self.amplitude * (e_r / r * e_d - (1.0 - e_r) / d * e_d)

    def _onset_split(self, ts: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
        # Times since the onset, clamped at zero so that pre-onset times
        # never reach exp with a large positive argument, and the mask of
        # times at or after the onset.
        s = np.asarray(ts, dtype=float) - self.center
        on = s >= 0.0
        return np.where(on, s, 0.0), on

    def values(self, ts: Sequence[float]) -> np.ndarray:
        s, on = self._onset_split(ts)
        out = self.amplitude * np.exp(-s / self.decay)
        if self.rise > 0.0:
            out *= -np.expm1(-s / self.rise)
        return np.where(on, out, 0.0)

    def derivatives(self, ts: Sequence[float]) -> np.ndarray:
        s, on = self._onset_split(ts)
        d = self.decay
        if self.rise == 0.0:
            out = -self.amplitude / d * np.exp(-s / d)
        else:
            r = self.rise
            e_d = np.exp(-s / d)
            e_r = np.exp(-s / r)
            out = self.amplitude * (e_r / r * e_d - (1.0 - e_r) / d * e_d)
        return np.where(on, out, 0.0)

    @property
    def is_continuous(self) -> bool:
        return self.rise > 0.0

    def support(self) -> tuple[float, float]:
        return (self.center, self.center + 60.0 * self.decay)

    def timescale(self) -> float | None:
        if self.rise > 0.0:
            return min(self.rise, self.decay)
        return self.decay


@dataclass(frozen=True)
class PulseTrain(TimeProfile):
    """``count`` copies of a base pulse repeated with a fixed period.

    The k-th pulse is the base shifted by ``k * period``; the base profile's
    own center fixes the first pulse.  Values and integrals sum the base
    closed forms over the pulses whose support overlaps the request, so a
    train of well separated pulses reproduces the base at ``t mod period``.
    """

    base: TimeProfile
    period: float
    count: int
    kind: ClassVar[str] = "pulse-train"

    def __post_init__(self):
        if not self.period > 0.0:
            raise ValueError(f"pulse-train period must be > 0, got {self.period}")
        if self.count < 1:
            raise ValueError(f"pulse-train count must be >= 1, got {self.count}")

    def _pulse_range(self, lo: float, hi: float) -> range:
        s_lo, s_hi = self.base.support()
        if not (math.isfinite(s_lo) and math.isfinite(s_hi)):
            return range(self.count)
        k_lo = max(0, math.ceil((lo - s_hi) / self.period))
        k_hi = min(self.count - 1, math.floor((hi - s_lo) / self.period))
        return range(k_lo, k_hi + 1)

    def value(self, t: float) -> float:
        out = 0.0
        for k in self._pulse_range(t, t):
            out += self.base.value(t - k * self.period)
        return out

    def integral(self, t0: float, t1: float) -> float:
        lo, hi = (t0, t1) if t0 <= t1 else (t1, t0)
        out = 0.0
        for k in self._pulse_range(lo, hi):
            out += self.base.integral(t0 - k * self.period, t1 - k * self.period)
        return out

    def derivative(self, t: float) -> float:
        out = 0.0
        for k in self._pulse_range(t, t):
            out += self.base.derivative(t - k * self.period)
        return out

    def _sum_pulses(self, ts: Sequence[float], evaluate) -> np.ndarray:
        # The pulse ranges of _pulse_range, per time, summed in the same
        # pulse order as the scalar methods.
        ts = np.asarray(ts, dtype=float)
        out = np.zeros(ts.shape)
        if ts.size == 0:
            return out
        s_lo, s_hi = self.base.support()
        if math.isfinite(s_lo) and math.isfinite(s_hi):
            k_lo = np.maximum(0.0, np.ceil((ts - s_hi) / self.period))
            k_hi = np.minimum(self.count - 1.0, np.floor((ts - s_lo) / self.period))
        else:
            k_lo = np.zeros(ts.shape)
            k_hi = np.full(ts.shape, self.count - 1.0)
        for k in range(int(k_lo.min()), int(k_hi.max()) + 1):
            hit = (k_lo <= k) & (k <= k_hi)
            if hit.any():
                out[hit] += evaluate(ts[hit] - k * self.period)
        return out

    def values(self, ts: Sequence[float]) -> np.ndarray:
        return self._sum_pulses(ts, self.base.values)

    def derivatives(self, ts: Sequence[float]) -> np.ndarray:
        return self._sum_pulses(ts, self.base.derivatives)

    @property
    def is_continuous(self) -> bool:
        return self.base.is_continuous

    def support(self) -> tuple[float, float]:
        s_lo, s_hi = self.base.support()
        return (s_lo, s_hi + (self.count - 1) * self.period)

    def timescale(self) -> float | None:
        return self.base.timescale()


@dataclass(frozen=True)
class PiecewiseLinear(TimeProfile):
    """Linear interpolation through knots; exact trapezoid integrals.

    Only evaluable inside ``[times[0], times[-1]]``; requests outside raise
    :class:`ProfileDomainError`.
    """

    times: tuple[float, ...]
    knot_values: tuple[float, ...]
    kind: ClassVar[str] = "piecewise-linear"

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        vals = tuple(float(v) for v in self.knot_values)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "knot_values", vals)
        if len(times) < 2:
            raise ValueError("piecewise-linear profile needs at least two knots")
        if len(times) != len(vals):
            raise ValueError(
                f"knot count mismatch: {len(times)} times vs {len(vals)} values"
            )
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("piecewise-linear knot times must be strictly increasing")
        # Cumulative trapezoid areas at the knots, for exact integrals.
        areas = [0.0]
        for (ta, tb), (va, vb) in zip(
            zip(times, times[1:]), zip(vals, vals[1:])
        ):
            areas.append(areas[-1] + 0.5 * (va + vb) * (tb - ta))
        object.__setattr__(self, "_areas", tuple(areas))

    @property
    def domain(self) -> tuple[float, float]:
        return (self.times[0], self.times[-1])

    def _segment(self, t: float) -> int:
        i = int(np.searchsorted(self.times, t, side="right")) - 1
        return min(max(i, 0), len(self.times) - 2)

    def value(self, t: float) -> float:
        self._check_domain(t)
        i = self._segment(t)
        ta, tb = self.times[i], self.times[i + 1]
        va, vb = self.knot_values[i], self.knot_values[i + 1]
        return va + (vb - va) * (t - ta) / (tb - ta)

    def _cumulative_from_start(self, t: float) -> float:
        i = self._segment(t)
        ta = self.times[i]
        va = self.value(t)  # domain checked here
        return self._areas[i] + 0.5 * (self.knot_values[i] + va) * (t - ta)

    def integral(self, t0: float, t1: float) -> float:
        return self._cumulative_from_start(t1) - self._cumulative_from_start(t0)

    def derivative(self, t: float) -> float:
        self._check_domain(t)
        i = self._segment(t)
        ta, tb = self.times[i], self.times[i + 1]
        return (self.knot_values[i + 1] - self.knot_values[i]) / (tb - ta)

    def support(self) -> tuple[float, float]:
        return self.domain

    def timescale(self) -> float | None:
        return min(b - a for a, b in zip(self.times, self.times[1:]))


@dataclass(frozen=True)
class Affine(TimeProfile):
    """``offset + scale * base(t)``; composition helper for derived drives.

    Used internally to express e.g. a carrier-induced frequency dip
    ``omega0 * (1 - depth * train(t))`` or a coupling coefficient
    ``U_k * nu(t)`` while keeping closed-form integrals.
    """

    base: TimeProfile
    scale: float = 1.0
    offset: float = 0.0
    kind: ClassVar[str] = "affine"

    @property
    def domain(self) -> tuple[float, float]:
        return self.base.domain

    def value(self, t: float) -> float:
        return self.offset + self.scale * self.base.value(t)

    def integral(self, t0: float, t1: float) -> float:
        return self.offset * (t1 - t0) + self.scale * self.base.integral(t0, t1)

    def derivative(self, t: float) -> float:
        return self.scale * self.base.derivative(t)

    def values(self, ts: Sequence[float]) -> np.ndarray:
        return self.offset + self.scale * self.base.values(ts)

    def derivatives(self, ts: Sequence[float]) -> np.ndarray:
        return self.scale * self.base.derivatives(ts)

    @property
    def is_continuous(self) -> bool:
        return self.base.is_continuous

    def support(self) -> tuple[float, float]:
        if self.offset != 0.0:
            return (-_INF, _INF)
        return self.base.support()

    def timescale(self) -> float | None:
        return self.base.timescale()


def tabulate(profiles: Sequence[TimeProfile], ts: np.ndarray) -> list:
    """``values(ts)`` of each profile.  Each distinct profile (by identity)
    is evaluated once, and an :class:`Affine` is formed from its base's
    table as ``offset + scale * base``, the arithmetic of its ``values``:
    profiles derived from one pulse train share one evaluation of it."""
    tables: dict[int, np.ndarray] = {}

    def table(p: TimeProfile) -> np.ndarray:
        if id(p) not in tables:
            tables[id(p)] = p.values(ts)
        return tables[id(p)]

    return [p.offset + p.scale * table(p.base) if isinstance(p, Affine)
            else table(p) for p in profiles]


def lambda_factor(nu: TimeProfile, t: float) -> float:
    """Memory factor ``nu(t) * int_0^t nu(tau) dtau``.

    This single scalar multiplies every short-time damping and diffusion
    coefficient produced by a coupling whose time dependence is shared by
    all bath modes.  It vanishes identically for ``nu == 0`` and is
    non-negative whenever ``nu >= 0``.
    """
    return nu.value(t) * nu.integral(0.0, t)


_KINDS: dict[str, type] = {
    "constant": Constant,
    "gaussian-pulse": GaussianPulse,
    "exp-rise-decay-pulse": ExpPulse,
    "pulse-train": PulseTrain,
    "piecewise-linear": PiecewiseLinear,
}

# Field names per kind, used both to build and to echo configurations.
_FIELDS: dict[str, tuple[str, ...]] = {
    "constant": ("value",),
    "gaussian-pulse": ("amplitude", "center", "width"),
    "exp-rise-decay-pulse": ("amplitude", "center", "decay", "rise"),
    "pulse-train": ("base", "period", "count"),
    "piecewise-linear": ("times", "values"),
}


def profile_from_dict(d: dict) -> TimeProfile:
    """Build a profile from a tagged mapping, e.g. from a config file."""
    if not isinstance(d, dict) or "kind" not in d:
        raise ValueError(f"profile spec must be a mapping with a 'kind' tag, got {d!r}")
    kind = str(d["kind"]).replace("_", "-")
    if kind not in _KINDS:
        raise ValueError(
            f"unknown profile kind {kind!r}; expected one of {sorted(_KINDS)}"
        )
    params = {k: v for k, v in d.items() if k != "kind"}
    allowed = set(_FIELDS[kind])
    unknown = set(params) - allowed
    if unknown:
        raise ValueError(
            f"unknown parameter(s) {sorted(unknown)} for profile kind {kind!r};"
            f" expected from {sorted(allowed)}"
        )

    def finite(key: str, value) -> float:
        x = float(value)
        if not math.isfinite(x):
            raise ValueError(f"profile field {key!r} must be finite, got {x}")
        return x

    def number(key: str, default: float | None = None) -> float:
        if default is None and key not in params:
            raise ValueError(f"profile kind {kind!r} needs field {key!r}")
        return finite(key, params.get(key, default))

    if kind == "constant":
        return Constant(value_const=number("value", 0.0))
    if kind == "gaussian-pulse":
        return GaussianPulse(
            amplitude=number("amplitude"),
            center=number("center", 0.0),
            width=number("width"),
        )
    if kind == "exp-rise-decay-pulse":
        return ExpPulse(
            amplitude=number("amplitude"),
            center=number("center", 0.0),
            decay=number("decay", 1.0),
            rise=number("rise", 0.0),
        )
    if kind == "pulse-train":
        if "base" not in params:
            raise ValueError(f"profile kind {kind!r} needs field 'base'")
        count = number("count")
        if not count.is_integer():
            raise ValueError(f"profile field 'count' must be an integer, got {count}")
        return PulseTrain(
            base=profile_from_dict(params["base"]),
            period=number("period"),
            count=int(count),
        )
    for key in ("times", "values"):
        if key not in params:
            raise ValueError(f"profile kind {kind!r} needs field {key!r}")
    return PiecewiseLinear(
        times=tuple(finite("times", t) for t in params["times"]),
        knot_values=tuple(finite("values", v) for v in params["values"]),
    )


def profile_to_dict(p: TimeProfile) -> dict:
    """Inverse of :func:`profile_from_dict`, used for config echoes."""
    if isinstance(p, Constant):
        return {"kind": "constant", "value": p.value_const}
    if isinstance(p, GaussianPulse):
        return {
            "kind": "gaussian-pulse",
            "amplitude": p.amplitude,
            "center": p.center,
            "width": p.width,
        }
    if isinstance(p, ExpPulse):
        return {
            "kind": "exp-rise-decay-pulse",
            "amplitude": p.amplitude,
            "center": p.center,
            "decay": p.decay,
            "rise": p.rise,
        }
    if isinstance(p, PulseTrain):
        return {
            "kind": "pulse-train",
            "base": profile_to_dict(p.base),
            "period": p.period,
            "count": p.count,
        }
    if isinstance(p, PiecewiseLinear):
        return {
            "kind": "piecewise-linear",
            "times": list(p.times),
            "values": list(p.knot_values),
        }
    if isinstance(p, Affine):
        return {
            "kind": "affine",
            "base": profile_to_dict(p.base),
            "scale": p.scale,
            "offset": p.offset,
        }
    raise TypeError(f"cannot serialize profile of type {type(p).__name__}")
