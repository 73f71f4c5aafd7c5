"""Parametric time profiles for the driven oscillator and its couplings.

Profiles are immutable scalar functions of time with exact antiderivatives,
so cumulative quantities (pulse areas, damping memories) carry no quadrature
noise.  Times are measured in units of the inverse reference frequency of
the central oscillator; amplitudes are dimensionless.

Every kind implements ``values(ts)`` and ``derivatives(ts)`` on arrays of
times, so the integrators tabulate a profile on a whole block of stage
nodes in one call, and ``integral(t0, t1)`` in closed form (an
antiderivative difference, so a reversed interval negates it).  The scalar
``value(t)`` and ``derivative(t)`` are their one-element forms, defined
once on :class:`TimeProfile`, so a time gives the same number whichever
form asks.  ``Constant`` alone keeps a scalar ``value``, which its
``values`` calls once per time; ``tabulate`` fills an exact ``Constant``
with its value instead.

``lambda_factor`` builds the memory factor nu(t) * int_0^t nu that controls
every short-time damping and diffusion coefficient downstream.

``PROFILE_KINDS`` declares each kind's config fields once (key, attribute,
default or required, reader) for ``profile_from_dict``, ``profile_to_dict``
(which echoes ``affine`` too, no config kind) and the scenario docs.  A pulse
train's base must have finite support: not a non-zero constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Sequence

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
    "PROFILE_KINDS",
    "lambda_factor",
    "tabulate",
    "profile_from_dict",
    "profile_to_dict",
]

_INF = float("inf")
_SQRT2 = math.sqrt(2.0)
_SQRT_HALF_PI = math.sqrt(0.5 * math.pi)
_DOUBLE_DECAYS = 53.0 * math.log(2.0)


class TimeProfile:
    """Common interface for all profile kinds."""

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

    def values(self, ts: Sequence[float]) -> np.ndarray:
        raise NotImplementedError

    def derivatives(self, ts: Sequence[float]) -> np.ndarray:
        raise NotImplementedError

    def integral(self, t0: float, t1: float) -> float:
        raise NotImplementedError

    def value(self, t: float) -> float:
        return float(self.values(np.array([float(t)]))[0])

    def derivative(self, t: float) -> float:
        return float(self.derivatives(np.array([float(t)]))[0])


@dataclass(frozen=True)
class Constant(TimeProfile):
    """Time-independent value."""

    value_const: float = 0.0

    # A scalar value that values calls once per time: the benchmark's step
    # counts count those calls on a Constant subclass.
    def value(self, t: float) -> float:
        return self.value_const

    def values(self, ts: Sequence[float]) -> np.ndarray:
        return np.array([self.value(float(t)) for t in ts], dtype=float)

    def derivatives(self, ts: Sequence[float]) -> np.ndarray:
        return np.zeros(np.shape(ts))

    def integral(self, t0: float, t1: float) -> float:
        return self.value_const * (t1 - t0)

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

    def __post_init__(self):
        if not self.width > 0.0:
            raise ValueError(f"gaussian-pulse width must be > 0, got {self.width}")

    def integral(self, t0: float, t1: float) -> float:
        w = self.width
        a = (t0 - self.center) / (_SQRT2 * w)
        b = (t1 - self.center) / (_SQRT2 * w)
        return self.amplitude * w * _SQRT_HALF_PI * (math.erf(b) - math.erf(a))

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

    def __post_init__(self):
        if not self.decay > 0.0:
            raise ValueError(f"exp pulse decay must be > 0, got {self.decay}")
        if self.rise < 0.0:
            raise ValueError(f"exp pulse rise must be >= 0, got {self.rise}")

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
            # Right derivative at the onset; the jump itself makes the
            # profile discontinuous there.
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
        # amplitude * exp(-s / decay) bounds the pulse for any rise; past
        # 53 ln 2 decays it is below 2**-53 of the amplitude.
        return (self.center, self.center + _DOUBLE_DECAYS * self.decay)

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

    def __post_init__(self):
        if not self.period > 0.0:
            raise ValueError(f"pulse-train period must be > 0, got {self.period}")
        if self.count < 1:
            raise ValueError(f"pulse-train count must be >= 1, got {self.count}")
        if not all(map(math.isfinite, self.base.support())):
            raise ValueError("pulse-train base must have finite support, got"
                             f" {self.base!r} on {self.base.support()}")

    def _pulse_bounds(self, lo, hi):
        # First and last pulse whose base support meets [lo, hi], as floats.
        s_lo, s_hi = self.base.support()
        return (np.maximum(0.0, np.ceil((lo - s_hi) / self.period)),
                np.minimum(self.count - 1.0, np.floor((hi - s_lo) / self.period)))

    def integral(self, t0: float, t1: float) -> float:
        k_lo, k_hi = self._pulse_bounds(min(t0, t1), max(t0, t1))
        out = 0.0
        for k in range(int(k_lo), int(k_hi) + 1):
            out += self.base.integral(t0 - k * self.period, t1 - k * self.period)
        return out

    def _sum_pulses(self, ts: Sequence[float], evaluate) -> np.ndarray:
        # Per time, the pulses k_lo..k_hi whose support holds it, summed in
        # increasing k: pass j adds pulse k_lo + j, so a block costs as many
        # passes as its widest range, not as the pulses between its ends.
        ts = np.asarray(ts, dtype=float)
        out = np.zeros(ts.shape)
        if ts.size == 0:
            return out
        k_lo, k_hi = self._pulse_bounds(ts, ts)
        for j in range(int(np.max(k_hi - k_lo)) + 1):
            k = k_lo + j
            hit = k <= k_hi
            if hit.any():
                out[hit] += evaluate(ts[hit] - k[hit] * self.period)
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

    def _segments(self, ts: Sequence[float]) -> tuple[np.ndarray, ...]:
        # The times, checked against the domain, the index i of the segment
        # [times[i], times[i + 1]] that holds each (the last knot closes the
        # last segment), and the knot times and values as arrays.
        ts = np.asarray(ts, dtype=float)
        lo, hi = self.domain
        outside = (ts < lo) | (ts > hi)
        if outside.any():
            raise ProfileDomainError(f"time {float(ts[outside][0])!r} outside"
                                     f" profile domain [{lo!r}, {hi!r}]")
        i = np.searchsorted(self.times, ts, side="right") - 1
        return (ts, np.clip(i, 0, len(self.times) - 2), np.array(self.times),
                np.array(self.knot_values))

    def values(self, ts: Sequence[float]) -> np.ndarray:
        ts, i, t, v = self._segments(ts)
        return v[i] + (v[i + 1] - v[i]) * (ts - t[i]) / (t[i + 1] - t[i])

    def derivatives(self, ts: Sequence[float]) -> np.ndarray:
        ts, i, t, v = self._segments(ts)
        return (v[i + 1] - v[i]) / (t[i + 1] - t[i])

    def integral(self, t0: float, t1: float) -> float:
        # Trapezoid area from the first knot to t1, minus that to t0.
        ts, i, t, v = self._segments([t0, t1])
        area = np.array(self._areas)[i] + 0.5 * (v[i] + self.values(ts)) * (ts - t[i])
        return float(area[1] - area[0])

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

    @property
    def domain(self) -> tuple[float, float]:
        return self.base.domain

    def integral(self, t0: float, t1: float) -> float:
        return self.offset * (t1 - t0) + self.scale * self.base.integral(t0, t1)

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


def is_exact_constant(p: TimeProfile) -> bool:
    """True when p is a :class:`Constant` itself: a subclass may override
    ``value``, as the benchmark's counting profile does, so only the exact
    type may be read as its ``value_const`` without being evaluated."""
    return type(p) is Constant


def tabulate(profiles: Sequence[TimeProfile], ts: np.ndarray) -> list:
    """``values(ts)`` of each profile.  Each distinct profile (by identity)
    is evaluated once, and an :class:`Affine` is formed from its base's
    table as ``offset + scale * base``, the arithmetic of its ``values``:
    profiles derived from one pulse train share one evaluation of it.  An
    exact :class:`Constant` is filled with its value, not evaluated."""
    tables: dict[int, np.ndarray] = {}

    def table(p: TimeProfile) -> np.ndarray:
        if id(p) not in tables:
            tables[id(p)] = (
                np.full(np.shape(ts), p.value_const, dtype=float)
                if is_exact_constant(p) else p.values(ts))
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


# ---------------------------------------------------------------------------
# config mappings


def _finite(key: str, value) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"profile field {key!r} must be finite, got {x}")
    return x


def _count(key: str, value) -> int:
    x = _finite(key, value)
    if not x.is_integer():
        raise ValueError(f"profile field {key!r} must be an integer, got {x}")
    return int(x)


def _knots(key: str, value) -> tuple[float, ...]:
    return tuple(_finite(key, v) for v in value)


def _base(key: str, value) -> TimeProfile:
    return profile_from_dict(value)


# Each field reader, read(key, value), with what it accepts as the docs say.
READERS = {_finite: "number", _count: "integer", _knots: "list of numbers",
           _base: "profile mapping of finite support (not a non-zero constant)"}


class ProfileField(NamedTuple):
    """One config field of a profile kind: its ``key``, its ``default``
    (None when required), its reader and the class attribute it sets,
    ``attr`` where that is not the key."""

    key: str
    default: float | None = None
    read: Callable[[str, Any], Any] = _finite
    attr: str | None = None


class ProfileKind(NamedTuple):
    """A profile class and its config fields in echo order; a kind that
    does not ``parse`` is echoed but is no config kind."""

    cls: type
    fields: tuple[ProfileField, ...]
    parses: bool = True


_F = ProfileField
# Kind name -> its class and config fields, which profile_from_dict reads,
# profile_to_dict writes and the docs list.
PROFILE_KINDS: dict[str, ProfileKind] = {
    "constant": ProfileKind(Constant, (_F("value", 0.0, attr="value_const"),)),
    "gaussian-pulse": ProfileKind(
        GaussianPulse, (_F("amplitude"), _F("center", 0.0), _F("width"))),
    "exp-rise-decay-pulse": ProfileKind(ExpPulse, (
        _F("amplitude"), _F("center", 0.0), _F("decay", 1.0), _F("rise", 0.0))),
    "pulse-train": ProfileKind(PulseTrain, (
        _F("base", read=_base), _F("count", read=_count), _F("period"))),
    "piecewise-linear": ProfileKind(PiecewiseLinear, (
        _F("times", read=_knots), _F("values", read=_knots, attr="knot_values"))),
    "affine": ProfileKind(Affine, (
        _F("base", read=_base), _F("scale", 1.0), _F("offset", 0.0)), parses=False),
}


def profile_from_dict(d: dict) -> TimeProfile:
    """Build a profile from a tagged mapping, e.g. from a config file."""
    if not isinstance(d, dict) or "kind" not in d:
        raise ValueError(f"profile spec must be a mapping with a 'kind' tag, got {d!r}")
    kind = str(d["kind"]).replace("_", "-")
    kinds = sorted(k for k, entry in PROFILE_KINDS.items() if entry.parses)
    if kind not in kinds:
        raise ValueError(f"unknown profile kind {kind!r}; expected one of {kinds}")
    fields = PROFILE_KINDS[kind].fields
    unknown = set(d) - {"kind"} - {f.key for f in fields}
    if unknown:
        raise ValueError(f"unknown parameter(s) {sorted(unknown)} for profile kind"
                         f" {kind!r}; expected from {sorted(f.key for f in fields)}")
    args = {}
    for f in fields:   # a loop, not a comprehension: one frame less per level
        if f.default is None and f.key not in d:
            raise ValueError(f"profile kind {kind!r} needs field {f.key!r}")
        args[f.attr or f.key] = f.read(f.key, d.get(f.key, f.default))
    return PROFILE_KINDS[kind].cls(**args)


def profile_to_dict(p: TimeProfile) -> dict:
    """Tagged mapping of a profile, for config echoes: the inverse of
    :func:`profile_from_dict` for every kind that parses."""
    for kind, entry in PROFILE_KINDS.items():
        if isinstance(p, entry.cls):
            out = {"kind": kind}
            for f in entry.fields:
                v = getattr(p, f.attr or f.key)
                out[f.key] = (profile_to_dict(v) if isinstance(v, TimeProfile)
                              else list(v) if isinstance(v, tuple) else v)
            return out
    raise TypeError(f"cannot serialize profile of type {type(p).__name__}")
