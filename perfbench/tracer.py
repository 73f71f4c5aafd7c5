"""Outside-in tracer: wraps oscbath's public functions where callers bind them.

Nothing in ``src/oscbath`` is edited.  ``Tracer.install`` replaces, for the
life of the traced phase, every function one oscbath module imports from
another (``oscbath.scenarios.integrate_R``, ``oscbath.reduced.build_A11``,
...), the CLI's own ``parse_config`` / ``write_report_files`` /
``write_metadata`` globals, the scenario table ``SCENARIOS``,
``NoiseSet.diffusion`` and the ``value`` / ``values`` methods of every
``TimeProfile`` class.
``Tracer.uninstall`` puts the originals back.

Each wrapped call pushes a frame.  A frame's self time is its duration
minus the time of the wrapped calls made inside it.  Frames of the coarse
layers are also kept as spans (name, start, end, parent span, iteration)
in memory and written out when the benchmark ends.  Fine-grained calls
(system builders, ``NoiseSet.diffusion``) are frames without spans.
Profile evaluation is counted, not framed: only the outermost ``value`` /
``values`` call is timed, nested evaluations (an ``Affine`` calling its
base, a ``PulseTrain`` summing its pulses) only bump ``inner_calls``.

Step, flop and byte counts are computed from call arguments with the
rules in ``counts.py``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import weakref
from collections import defaultdict
from time import perf_counter

import counts

# Modules whose cross-module imports are wrapped, and the layer each
# defining module belongs to.
LAYER_MODULES = ("system", "propagate", "reduced", "perturb", "langevin",
                 "scenarios", "cli")
# Layers whose calls are too many to keep one span each.
_NO_SPAN_LAYERS = frozenset({"system"})
# Extraction entry points: each visits every point of the trajectory it gets.
_EXTRACTORS = frozenset({"drift_exact", "diffusion_exact", "extract_reduced"})
# Runge-Kutta entry points of the local model.
_RK_FUNCS = frozenset({"evolve_moments", "epsilon_solver",
                       "evolve_moments_tabulated"})


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


class Tracer:
    """Spans, per-layer self times and computed counts for traced calls."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[list] = []
        self.iteration = -1
        self._next_span = 0
        self._undo: list[tuple] = []
        self.pdepth = 0
        self.begin_counts()

    # -- counters ---------------------------------------------------------

    def begin_counts(self) -> None:
        self.calls = defaultdict(int)
        self.fn_calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.fn_self_s = defaultdict(float)
        self.n = defaultdict(float)
        self.p_calls = 0
        self.p_points = 0
        self.p_inner = 0
        self.p_time = 0.0
        self.max_defect = 0.0
        self.max_wronskian = 0.0
        self._seen_traj = weakref.WeakSet()

    def begin_iteration(self) -> None:
        """Open the iteration's root span; its self time is the CLI's own."""
        self.iteration += 1
        self.begin_counts()
        self._push("cli", "iteration", True)

    def end_iteration(self) -> dict:
        """Close the iteration's root span and return its layer metrics."""
        frame = self.stack[-1]
        self._pop(frame, perf_counter())
        if self.stack:
            raise RuntimeError("unbalanced trace frames")
        return self.metrics()

    # -- frames -----------------------------------------------------------

    def _push(self, layer: str, name: str, record: bool) -> list:
        parent_sid = self.stack[-1][4] if self.stack else None
        if record:
            sid = self._next_span
            self._next_span += 1
        else:
            sid = parent_sid
        frame = [layer, name, perf_counter(), 0.0, sid, record, parent_sid]
        self.stack.append(frame)
        return frame

    def _pop(self, frame: list, t1: float) -> None:
        self.stack.pop()
        layer, name, t0, child, sid, record, parent_sid = frame
        dur = t1 - t0
        self.self_s[layer] += dur - child
        self.fn_self_s[name] += dur - child
        self.calls[layer] += 1
        self.fn_calls[name] += 1
        if self.stack:
            self.stack[-1][3] += dur
        if record:
            self.spans.append((sid, parent_sid, self.iteration, name, t0, t1))

    def _wrap_call(self, fn, layer: str, name: str, record: bool):
        tracer = self
        hook = _HOOKS.get(fn.__name__)
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._push(layer, name, record)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._pop(frame, perf_counter())
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(tracer, bound.arguments, result)
            return result

        return traced

    def _wrap_profile(self, fn, vectorized: bool):
        tracer = self

        @functools.wraps(fn)
        def traced(profile, t):
            if tracer.pdepth:
                tracer.p_inner += 1
                return fn(profile, t)
            tracer.pdepth = 1
            t0 = perf_counter()
            try:
                out = fn(profile, t)
            finally:
                dur = perf_counter() - t0
                tracer.pdepth = 0
                tracer.p_time += dur
                tracer.p_calls += 1
                if tracer.stack:
                    tracer.stack[-1][3] += dur
            tracer.p_points += len(out) if vectorized else 1
            return out

        return traced

    @contextlib.contextmanager
    def paused(self):
        """Evaluate profiles without counting them."""
        saved = (self.pdepth, self.p_inner)
        self.pdepth = 1
        try:
            yield
        finally:
            self.pdepth, self.p_inner = saved

    # -- installation -----------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, attr, owner[attr]))
            owner[attr] = new
        else:
            self._undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

    def install(self) -> None:
        mods = {
            name: importlib.import_module(f"oscbath.{name}")
            for name in LAYER_MODULES
        }
        by_module = {m.__name__: name for name, m in mods.items()}
        for caller in mods.values():
            for attr, obj in list(vars(caller).items()):
                if not inspect.isfunction(obj):
                    continue
                layer = by_module.get(obj.__module__)
                if layer is None or obj.__module__ == caller.__name__:
                    continue
                self._replace(caller, attr, self._wrap_call(
                    obj, layer, attr, layer not in _NO_SPAN_LAYERS))

        cli = mods["cli"]
        for attr in ("parse_config", "write_report_files", "write_metadata"):
            self._replace(cli, attr, self._wrap_call(
                getattr(cli, attr), "cli", attr, True))
        table = mods["scenarios"].SCENARIOS
        for key, fn in list(table.items()):
            self._replace(table, key, self._wrap_call(
                fn, "scenarios", fn.__name__, True))
        noise_set = mods["perturb"].NoiseSet
        self._replace(noise_set, "diffusion", self._wrap_call(
            noise_set.diffusion, "perturb", "NoiseSet.diffusion", False))

        profiles = importlib.import_module("oscbath.profiles")
        pending = [profiles.TimeProfile]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if not cls.__module__.startswith("oscbath."):
                continue
            for attr, vectorized in (("value", False), ("values", True)):
                if attr in cls.__dict__:
                    self._replace(cls, attr, self._wrap_profile(
                        cls.__dict__[attr], vectorized))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of the iteration just ended."""
        n, calls, self_s, fn_s = self.n, self.calls, self.self_s, self.fn_self_s
        rk_s = sum(fn_s[f] for f in _RK_FUNCS)
        extract_s = sum(fn_s[f] for f in _EXTRACTORS)
        noise_calls = self.fn_calls["NoiseSet.diffusion"]
        return {
            "profiles.calls": self.p_calls,
            "profiles.points": self.p_points,
            "profiles.inner_calls": self.p_inner,
            "profiles.self_s": self.p_time,
            "profiles.ns_per_point": _ratio(self.p_time, self.p_points, 1e9),
            "system.calls": calls["system"],
            "system.self_s": self_s["system"],
            "propagate.calls": calls["propagate"],
            "propagate.steps": n["propagate.steps"],
            "propagate.self_s": self_s["propagate"],
            "propagate.us_per_step": _ratio(
                fn_s["integrate_R"], n["propagate.steps"], 1e6),
            "propagate.gflop": n["propagate.flops"] * 1e-9,
            "propagate.gflop_per_s": _ratio(
                n["propagate.flops"] * 1e-9, fn_s["integrate_R"]),
            "propagate.max_defect": self.max_defect,
            "propagate.traj_mb": n["propagate.traj_bytes"] / 2**20,
            "reduced.calls": calls["reduced"],
            "reduced.points": n["reduced.points"],
            "reduced.visits_per_point": _ratio(
                n["reduced.points"], n["reduced.distinct_points"]),
            "reduced.skipped": n["reduced.skipped"],
            "reduced.self_s": self_s["reduced"],
            "reduced.us_per_point": _ratio(
                extract_s, n["reduced.points"], 1e6),
            "perturb.calls": calls["perturb"] - noise_calls,
            "perturb.noise_calls": noise_calls,
            "perturb.self_s": self_s["perturb"],
            "langevin.calls": calls["langevin"],
            "langevin.steps": n["langevin.steps"],
            "langevin.self_s": self_s["langevin"],
            "langevin.us_per_step": _ratio(rk_s, n["langevin.steps"], 1e6),
            "langevin.max_wronskian_drift": self.max_wronskian,
            "scenarios.self_s": self_s["scenarios"],
            "cli.parse_s": fn_s["parse_config"],
            "cli.write_s": fn_s["write_report_files"] + fn_s["write_metadata"],
            "cli.bytes_written": n["cli.bytes_written"],
            "cli.files_written": n["cli.files_written"],
        }

    def write(self, path, extra: dict) -> None:
        doc = dict(extra)
        doc["span_fields"] = ["id", "parent", "iteration", "name", "start",
                              "end"]
        doc["spans"] = self.spans
        with open(path, "w") as fh:
            json.dump(doc, fh)


# -- computed counts per entry point ---------------------------------------


def _integrate_R(tr: Tracer, a: dict, traj) -> None:
    spec, dt = a["spec"], a["dt"]
    if dt is None:
        from oscbath.propagate import default_time_step

        with tr.paused():
            dt = default_time_step(spec)
    steps = counts.rk4_steps(a["grid"], dt)
    dim = counts.propagator_dim(spec.bath.n)
    tr.n["propagate.steps"] += steps
    tr.n["propagate.flops"] += counts.propagator_flops(steps, dim)
    tr.n["propagate.traj_bytes"] += counts.trajectory_bytes(len(a["grid"]), dim)
    tr.max_defect = max(tr.max_defect, float(traj.max_defect))


def _extract(tr: Tracer, a: dict, result) -> None:
    traj = a["traj"]
    visited = len(traj)
    kept = len(result[0]) if isinstance(result, tuple) else len(result)
    tr.n["reduced.points"] += visited
    tr.n["reduced.skipped"] += visited - kept
    try:
        first_visit = traj not in tr._seen_traj
        if first_visit:
            tr._seen_traj.add(traj)
    except TypeError:  # not weakly referenceable: count every visit
        first_visit = True
    if first_visit:
        tr.n["reduced.distinct_points"] += visited


def _model_step(tr: Tracer, a: dict) -> float:
    if a["dt"] is not None:
        return a["dt"]
    from oscbath.langevin import _default_model_step

    with tr.paused():
        return _default_model_step(a["model"], a["grid"])


def _evolve_moments(tr: Tracer, a: dict, result) -> None:
    tr.n["langevin.steps"] += counts.rk4_steps(a["grid"], _model_step(tr, a))


def _epsilon_solver(tr: Tracer, a: dict, sol) -> None:
    _evolve_moments(tr, a, sol)
    tr.max_wronskian = max(tr.max_wronskian, float(sol.wronskian_drift))


def _evolve_tabulated(tr: Tracer, a: dict, result) -> None:
    tr.n["langevin.steps"] += (len(a["ts_fine"]) - 1) // 2


def _written(tr: Tracer, paths) -> None:
    import os

    for p in paths:
        tr.n["cli.files_written"] += 1
        tr.n["cli.bytes_written"] += os.path.getsize(p)


def _write_files(tr: Tracer, a: dict, paths) -> None:
    _written(tr, paths)


def _write_meta(tr: Tracer, a: dict, path) -> None:
    _written(tr, [path])


_HOOKS = {
    "integrate_R": _integrate_R,
    "drift_exact": _extract,
    "diffusion_exact": _extract,
    "extract_reduced": _extract,
    "evolve_moments": _evolve_moments,
    "epsilon_solver": _epsilon_solver,
    "evolve_moments_tabulated": _evolve_tabulated,
    "write_report_files": _write_files,
    "write_metadata": _write_meta,
}
