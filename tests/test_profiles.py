"""Closed-form profile values, integrals and derivatives against quadrature."""

from __future__ import annotations

import bisect
import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from oscbath import (
    Affine,
    Constant,
    ExpPulse,
    GaussianPulse,
    PiecewiseLinear,
    ProfileDomainError,
    PulseTrain,
    lambda_factor,
    profile_from_dict,
    profile_to_dict,
)
from oscbath import profiles
from oscbath.profiles import PROFILE_KINDS, TimeProfile


def _quad(f, a, b, points=None):
    val, _ = quad(f, a, b, points=points, epsabs=1e-13, epsrel=1e-13, limit=200)
    return val


# ---------------------------------------------------------------------------
# constant


def test_constant_basics():
    c = Constant(2.5)
    assert c.value(0.0) == 2.5
    assert c.value(-3.0) == 2.5
    assert c.integral(1.0, 4.0) == pytest.approx(7.5, abs=0.0)
    assert c.derivatives([0.3])[0] == 0.0
    assert c.is_continuous


def test_zero_constant_has_empty_support():
    lo, hi = Constant(0.0).support()
    assert lo >= hi


# ---------------------------------------------------------------------------
# gaussian pulse


def test_gaussian_value_closed_form():
    g = GaussianPulse(1.2, 2.0, 0.5)
    # one width from the center: amplitude * exp(-1/2)
    assert g.value(2.5) == pytest.approx(1.2 * math.exp(-0.5), rel=1e-15)
    assert g.value(2.0) == pytest.approx(1.2, rel=1e-15)


def test_gaussian_integral_matches_quadrature():
    g = GaussianPulse(1.2, 2.0, 0.5)
    for a, b in [(0.0, 4.0), (1.5, 2.5), (-1.0, 1.0), (2.0, 30.0)]:
        assert g.integral(a, b) == pytest.approx(_quad(g.value, a, b), abs=1e-12)


def test_gaussian_integral_frozen():
    g = GaussianPulse(1.2, 2.0, 0.5)
    # scipy.integrate.quad gives 1.5038816991422748 for the same interval
    assert g.integral(0.0, 4.0) == pytest.approx(1.5038816991422743, rel=1e-13)


def test_gaussian_requires_positive_width():
    with pytest.raises(ValueError):
        GaussianPulse(1.0, 0.0, -0.2)


# ---------------------------------------------------------------------------
# exponential rise/decay pulse


def test_exp_pulse_value_and_integral_frozen():
    e = ExpPulse(2.0, center=0.0, decay=1.0, rise=0.0)
    assert e.value(1.0) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-15)
    assert e.value(-0.5) == 0.0
    # 2 * (1 - exp(-10))
    assert e.integral(0.0, 10.0) == pytest.approx(1.999909200140475, rel=1e-14)


def test_exp_pulse_with_rise_frozen():
    e = ExpPulse(1.0, center=0.0, decay=1.0, rise=0.2)
    # difference of exponentials with the rise folded into the second rate
    assert e.value(0.5) == pytest.approx(
        math.exp(-0.5) - math.exp(-3.0), rel=1e-14
    )
    assert e.integral(0.0, 5.0) == pytest.approx(0.8265953863342634, rel=1e-13)
    assert e.is_continuous
    assert not ExpPulse(1.0, 0.0, 1.0, 0.0).is_continuous


def test_exp_pulse_integral_matches_quadrature():
    for rise in (0.0, 0.3):
        e = ExpPulse(1.7, center=1.0, decay=0.8, rise=rise)
        for a, b in [(0.0, 3.0), (1.0, 2.0), (0.5, 40.0)]:
            assert e.integral(a, b) == pytest.approx(
                _quad(e.value, a, b, points=[1.0]), abs=1e-11
            )


# ---------------------------------------------------------------------------
# pulse train


def test_pulse_train_is_sum_of_shifted_pulses():
    base = GaussianPulse(0.7, 0.0, 0.05)
    tr = PulseTrain(base, period=1.0, count=5)
    for t in np.linspace(-0.5, 5.5, 41):
        want = sum(base.value(t - k * 1.0) for k in range(5))
        assert tr.value(float(t)) == pytest.approx(want, abs=1e-15)
    assert tr.value(2.0) == pytest.approx(0.7, rel=1e-13)


def test_pulse_train_integral_matches_shifted_sum():
    base = GaussianPulse(0.7, 0.0, 0.05)
    tr = PulseTrain(base, period=1.0, count=5)
    want = sum(base.integral(-k, 4.5 - k) for k in range(5))
    assert tr.integral(0.0, 4.5) == pytest.approx(want, abs=1e-14)
    assert tr.integral(0.0, 4.5) == pytest.approx(0.39479395325438255, rel=1e-13)


def test_pulse_train_support_spans_all_pulses():
    base = ExpPulse(1.0, center=0.5, decay=0.2)
    tr = PulseTrain(base, period=2.0, count=4)
    lo, hi = tr.support()
    assert lo <= 0.5
    assert hi >= 0.5 + 3 * 2.0


# ---------------------------------------------------------------------------
# piecewise linear


def test_piecewise_linear_values_and_integrals():
    pl = PiecewiseLinear((0.0, 1.0, 3.0), (0.0, 2.0, 1.0))
    assert pl.value(2.0) == pytest.approx(1.5, abs=0.0)
    assert pl.value(0.5) == pytest.approx(1.0, abs=0.0)
    assert pl.integral(0.0, 3.0) == pytest.approx(4.0, abs=1e-14)
    assert pl.integral(0.5, 2.5) == pytest.approx(3.1875, abs=1e-14)
    assert pl.derivatives([0.5])[0] == pytest.approx(2.0, abs=0.0)
    assert pl.derivatives([2.0])[0] == pytest.approx(-0.5, abs=1e-15)


def test_piecewise_linear_outside_domain_raises():
    pl = PiecewiseLinear((0.0, 1.0), (1.0, 1.0))
    with pytest.raises(ProfileDomainError):
        pl.value(1.5)
    with pytest.raises(ProfileDomainError):
        pl.integral(0.0, 2.0)
    with pytest.raises(ProfileDomainError):
        pl.derivatives([-0.1])


def test_piecewise_linear_values_match_interp():
    pl = PiecewiseLinear((0.0, 1.0, 3.0, 6.0), (0.0, 2.0, 1.0, 1.5))
    ts = np.concatenate([np.linspace(0.0, 6.0, 97), pl.times])
    np.testing.assert_allclose(pl.values(ts), np.interp(ts, pl.times, pl.knot_values),
                               rtol=0.0, atol=1e-15)


def test_piecewise_linear_array_outside_domain_names_first_bad_time():
    pl = PiecewiseLinear((0.0, 1.0), (1.0, 1.0))
    for evaluate in (pl.values, pl.derivatives):
        with pytest.raises(ProfileDomainError) as err:
            evaluate(np.array([0.5, 1.5, -0.2, 2.0]))
        assert str(err.value) == "time 1.5 outside profile domain [0.0, 1.0]"


def test_piecewise_linear_validation():
    with pytest.raises(ValueError):
        PiecewiseLinear((0.0,), (1.0,))
    with pytest.raises(ValueError):
        PiecewiseLinear((0.0, 0.0), (1.0, 2.0))
    with pytest.raises(ValueError):
        PiecewiseLinear((0.0, 1.0, 2.0), (1.0, 2.0))


# ---------------------------------------------------------------------------
# shared algebraic properties


_PROFILES = [
    Constant(0.7),
    GaussianPulse(1.2, 2.0, 0.5),
    ExpPulse(1.7, center=1.0, decay=0.8, rise=0.3),
    PulseTrain(GaussianPulse(0.7, 0.2, 0.05), period=0.9, count=4),
    PiecewiseLinear((0.0, 1.0, 3.0, 6.0), (0.0, 2.0, 1.0, 1.5)),
    Affine(GaussianPulse(1.0, 2.0, 0.4), scale=-0.3, offset=1.0),
]


def test_integral_additivity_and_reversal():
    rng = np.random.default_rng(11)
    for p in _PROFILES:
        lo, hi = p.domain
        lo, hi = max(lo, 0.0), min(hi, 6.0)
        for _ in range(20):
            a, b, c = np.sort(rng.uniform(lo, hi, size=3))
            whole = p.integral(a, c)
            split = p.integral(a, b) + p.integral(b, c)
            assert split == pytest.approx(whole, abs=1e-12 * max(1.0, abs(whole)))
            assert p.integral(c, a) == pytest.approx(
                -whole, abs=1e-12 * max(1.0, abs(whole))
            )


def test_derivative_matches_central_difference():
    h = 1e-6
    rng = np.random.default_rng(3)
    for p in _PROFILES:
        if not p.is_continuous:
            continue
        lo, hi = p.domain
        lo, hi = max(lo, 0.1), min(hi, 5.9)
        for _ in range(10):
            t = float(rng.uniform(lo, hi))
            if isinstance(p, PiecewiseLinear):
                # stay clear of the kinks where the slope jumps
                if min(abs(t - k) for k in p.times) < 1e-3:
                    continue
            fd = (p.value(t + h) - p.value(t - h)) / (2.0 * h)
            assert p.derivatives([t])[0] == pytest.approx(fd, abs=5e-6)


def _closed_form(p, t: float) -> tuple[float, float]:
    """(value, derivative) of p at t from its formulas, written with math."""
    if isinstance(p, Constant):
        return p.value_const, 0.0
    if isinstance(p, GaussianPulse):
        u = (t - p.center) / p.width
        return (p.amplitude * math.exp(-0.5 * u * u),
                -p.amplitude * u / p.width * math.exp(-0.5 * u * u))
    if isinstance(p, ExpPulse):
        s = t - p.center
        if s < 0.0:
            return 0.0, 0.0
        e_d = math.exp(-s / p.decay)
        if p.rise == 0.0:
            return p.amplitude * e_d, -p.amplitude / p.decay * e_d
        e_r = math.exp(-s / p.rise)
        return (p.amplitude * e_d * -math.expm1(-s / p.rise),
                p.amplitude * (e_r / p.rise * e_d - (1.0 - e_r) / p.decay * e_d))
    if isinstance(p, PulseTrain):
        # the shifted bases whose support holds t, in pulse order
        lo, hi = p.base.support()
        shifted = [_closed_form(p.base, t - k * p.period) for k in range(p.count)
                   if lo <= t - k * p.period <= hi]
        return sum(v for v, _ in shifted), sum(d for _, d in shifted)
    if isinstance(p, PiecewiseLinear):
        i = min(max(bisect.bisect_right(p.times, t) - 1, 0), len(p.times) - 2)
        (ta, tb), (va, vb) = p.times[i:i + 2], p.knot_values[i:i + 2]
        return va + (vb - va) * (t - ta) / (tb - ta), (vb - va) / (tb - ta)
    if isinstance(p, Affine):
        v, d = _closed_form(p.base, t)
        return p.offset + p.scale * v, p.scale * d
    raise TypeError(type(p).__name__)


def test_values_matches_scalar_loop():
    # The array forms against the closed forms evaluated one time at a
    # time with math; only numpy's exp may round differently in the last bit.
    kick = ExpPulse(1.7, center=1.0, decay=0.8)
    rise_decay = ExpPulse(1.7, center=1.0, decay=0.8, rise=0.3)
    # the base support ends at 0.5 + 53 ln 2 * 0.05 (about 2.34), the third
    # pulse's at about 4.34
    train = PulseTrain(
        ExpPulse(0.9, center=0.5, decay=0.05, rise=0.01), period=1.0, count=3
    )
    around_onset = 1.0 + np.array([-1e3, -1.0, -0.25, 0.0, 0.25, 1.0])
    cases = [(p, np.linspace(0.0, 5.0, 17)) for p in _PROFILES] + [
        (kick, around_onset),
        (rise_decay, around_onset),
        (train, np.array([-1.0, 0.75, 2.75, 3.6, 4.3, 4.4, 5.25, 5.6, 40.0, 1e3])),
        (Affine(train, scale=-0.2, offset=1.0), np.linspace(-1.0, 8.0, 37)),
    ]
    with np.errstate(over="raise", invalid="raise"):
        for p, ts in cases:
            want = np.array([_closed_form(p, float(t)) for t in ts])
            np.testing.assert_allclose(p.values(ts), want[:, 0], rtol=1e-14, atol=0.0)
            np.testing.assert_allclose(
                p.derivatives(ts), want[:, 1], rtol=1e-14, atol=0.0
            )
    # Just after the onset the rise factor is small; both forms compute it
    # without cancellation, so they agree to an ulp or two.
    post_onset = 1.0 + np.geomspace(1e-12, 1.0, 2001)
    np.testing.assert_allclose(
        rise_decay.values(post_onset),
        [_closed_form(rise_decay, float(t))[0] for t in post_onset],
        rtol=1e-15, atol=0.0,
    )


def test_scalar_forms_are_one_element_arrays():
    train = PulseTrain(GaussianPulse(0.7, 0.2, 0.05), period=0.9, count=4)
    kinds = _PROFILES + [
        PulseTrain(train, period=4.0, count=2),
        Affine(train, scale=-0.2, offset=1.0),
        ExpPulse(1.7, center=1.0, decay=0.8),
    ]
    for p in kinds:
        for t in np.linspace(0.0, 6.0, 49):
            t = float(t)
            assert p.value(t) == p.values([t])[0]


def test_only_the_base_and_constant_define_scalar_forms():
    kinds = [c for c in vars(profiles).values() if isinstance(c, type)
             and issubclass(c, TimeProfile) and c.__module__ == profiles.__name__]
    assert {entry.cls for entry in PROFILE_KINDS.values()} < set(kinds)
    for cls in kinds:
        if cls not in (TimeProfile, Constant):
            assert "value" not in cls.__dict__, cls


def test_pulse_train_block_evaluates_each_pulse_offset_once():
    class Counting(GaussianPulse):
        calls = 0

        def values(self, ts):
            type(self).calls += 1
            return super().values(ts)

    # 40 widths either side: each time meets at most 9 of the pulses
    train = PulseTrain(Counting(1.0e-4, 0.0, 1.0e-5), period=1.0e-4, count=100_000_000)
    ts = np.linspace(0.0, 1.0, 768)
    out = train.values(ts)
    assert Counting.calls <= 9
    assert out[-1] == pytest.approx(1.0e-4, rel=1e-12)


# ---------------------------------------------------------------------------
# memory factor


def test_lambda_factor_frozen_values():
    assert lambda_factor(Constant(1.0), 3.0) == pytest.approx(3.0, abs=0.0)
    assert lambda_factor(ExpPulse(1.0, 0.0, 1.0, 0.0), 1.0) == pytest.approx(
        0.23254415793482963, rel=1e-14
    )
    assert lambda_factor(Constant(0.0), 5.0) == 0.0


def test_lambda_factor_nonnegative_for_nonnegative_drive():
    nu = GaussianPulse(0.5, 1.0, 0.3)
    for t in np.linspace(0.0, 4.0, 21):
        assert lambda_factor(nu, float(t)) >= 0.0


# ---------------------------------------------------------------------------
# config mapping round trips


def test_profile_config_round_trip():
    for p in _PROFILES[:-1]:  # the affine combinator is not a config kind
        d = profile_to_dict(p)
        q = profile_from_dict(d)
        ts = np.linspace(0.1, 4.9, 7)
        np.testing.assert_allclose(q.values(ts), p.values(ts), atol=0.0)


def test_profile_config_accepts_underscores():
    p = profile_from_dict({"kind": "gaussian_pulse", "amplitude": 1.0, "width": 0.5})
    assert isinstance(p, GaussianPulse)


def test_profile_config_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown profile kind"):
        profile_from_dict({"kind": "sawtooth", "amplitude": 1.0})


def test_profile_config_rejects_unknown_parameter():
    with pytest.raises(ValueError, match="sigma"):
        profile_from_dict({"kind": "gaussian-pulse", "amplitude": 1.0, "sigma": 0.5})


def test_each_dataclass_field_has_one_table_entry():
    for entry in PROFILE_KINDS.values():
        defaults = {d.name: d.default for d in dataclasses.fields(entry.cls)}
        attrs = [f.attr or f.key for f in entry.fields]
        assert sorted(attrs) == sorted(defaults)
        assert len({f.key for f in entry.fields}) == len(entry.fields)
        for f, attr in zip(entry.fields, attrs):
            # where the class has a default, the config shares it
            if defaults[attr] is not dataclasses.MISSING:
                assert f.default == defaults[attr]


def test_every_kind_round_trips_through_its_mapping():
    samples = [
        Constant(0.7),
        GaussianPulse(1.2, 2.0, 0.5),
        ExpPulse(1.7, center=1.0, decay=0.8, rise=0.3),
        PulseTrain(GaussianPulse(0.7, 0.2, 0.05), period=0.9, count=4),
        PiecewiseLinear((0.0, 1.0, 3.0, 6.0), (0.0, 2.0, 1.0, 1.5)),
        PulseTrain(PiecewiseLinear((0.0, 0.5), (1.0, 0.0)), period=1.0, count=3),
    ]
    assert {profile_to_dict(p)["kind"] for p in samples} == {
        k for k, entry in PROFILE_KINDS.items() if entry.parses
    }
    for p in samples:
        assert profile_from_dict(profile_to_dict(p)) == p


def test_affine_echoes_but_is_no_config_kind():
    p = Affine(GaussianPulse(1.0, 2.0, 0.4), scale=-0.3, offset=1.0)
    d = profile_to_dict(p)
    assert d == {"kind": "affine", "base": profile_to_dict(p.base),
                 "scale": -0.3, "offset": 1.0}
    with pytest.raises(ValueError, match="unknown profile kind 'affine'"):
        profile_from_dict(d)


def test_pulse_train_base_needs_finite_support():
    for base in (Constant(1.0e-4), Affine(GaussianPulse(1.0, 0.0, 0.1), offset=0.5)):
        with pytest.raises(ValueError, match="finite support"):
            PulseTrain(base, period=1.0, count=10_000)
    assert PulseTrain(Constant(0.0), period=1.0, count=3).value(1.0) == 0.0


def test_nested_train_round_trip():
    tr = PulseTrain(ExpPulse(0.01, 0.0, 0.47, 0.08), period=math.pi, count=50)
    d = profile_to_dict(tr)
    q = profile_from_dict(d)
    assert isinstance(q, PulseTrain)
    assert q.integral(0.0, 100.0) == pytest.approx(tr.integral(0.0, 100.0), rel=1e-15)


def test_tabulate_fills_an_exact_constant_without_evaluating_it(monkeypatch):
    # An exact Constant is filled with its value; a subclass, which may
    # override value as the benchmark's counting profile does, is still
    # evaluated once per time.
    class Subclass(Constant):
        pass

    calls = []
    scalar = Constant.value
    monkeypatch.setattr(
        Constant, "value", lambda self, t: calls.append(t) or scalar(self, t))
    ts = np.linspace(0.0, 1.0, 7)
    exact = Constant(-0.3)
    got = profiles.tabulate(
        (exact, Subclass(-0.3), Affine(exact, scale=2.0)), ts)
    assert len(calls) == ts.size
    want = np.array([-0.3] * ts.size)
    for table, ref in zip(got, (want, want, 2.0 * want)):
        assert table.dtype == float and table.tolist() == ref.tolist()


class _Counting(GaussianPulse):
    """A pulse that counts its evaluations, and raises on the first one
    when ``fail_first`` is set."""

    calls = 0
    fail_first = False

    def values(self, ts):
        type(self).calls += 1
        if type(self).fail_first and type(self).calls == 1:
            raise FloatingPointError("overflow")
        return super().values(ts)


def test_shared_tables_evaluate_once_per_node_set():
    p, q = _Counting(1.0, 0.5, 0.2), _Counting(1.0, 0.5, 0.2)
    _Counting.calls = 0
    ts = np.linspace(0.0, 1.0, 9)
    with profiles.shared_tables() as store:
        (a,) = profiles.tabulate((p,), ts)
        # equal node values in another array, and an Affine of p: kept
        (b, c) = profiles.tabulate((p, Affine(p, scale=2.0)), ts.copy())
        assert b is a and c.tolist() == (2.0 * a).tolist()
        assert _Counting.calls == 1
        # another profile, even an equal one, or other nodes: evaluated
        profiles.tabulate((q,), ts)
        profiles.tabulate((p,), ts[:-1])
        profiles.tabulate((p,), -ts)
        assert _Counting.calls == 4
        assert store.used == 4 * a.nbytes + 3 * ts.nbytes - 2 * 8
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
    # outside a scope every request is evaluated, into a fresh array
    (d,) = profiles.tabulate((p,), ts)
    assert _Counting.calls == 5 and d is not a and d.flags.writeable
    assert d.tolist() == a.tolist()


def test_shared_tables_keep_nothing_past_the_cap(monkeypatch):
    p = _Counting(1.0, 0.5, 0.2)
    _Counting.calls = 0
    ts = np.linspace(0.0, 1.0, 9)
    want = p.values(ts)
    # room for the node key and one table, not for a second table
    monkeypatch.setattr(profiles, "_SHARED_BYTES", 2 * ts.nbytes)
    with profiles.shared_tables() as store:
        profiles.tabulate((p,), ts)
        (q,) = profiles.tabulate((_Counting(2.0, 0.5, 0.2),), ts)
        assert q.flags.writeable and store.used == 2 * ts.nbytes
    monkeypatch.setattr(profiles, "_SHARED_BYTES", 0)
    _Counting.calls = 0
    with profiles.shared_tables() as store:
        got = [profiles.tabulate((p,), ts)[0] for _ in range(3)]
        assert _Counting.calls == 3 and store.used == 0 and not store.tables
    assert all(g.tolist() == want.tolist() and g.flags.writeable for g in got)


def test_shared_tables_keep_no_failed_evaluation():
    p = _Counting(1.0, 0.5, 0.2)
    _Counting.calls, _Counting.fail_first = 0, True
    ts = np.linspace(0.0, 1.0, 9)
    try:
        with profiles.shared_tables() as store:
            with pytest.raises(FloatingPointError):
                profiles.tabulate((p,), ts)
            assert store.used == 0 and not store.tables
            (a,) = profiles.tabulate((p,), ts)
            (b,) = profiles.tabulate((p,), ts)
            assert _Counting.calls == 2 and b is a
    finally:
        _Counting.fail_first = False
