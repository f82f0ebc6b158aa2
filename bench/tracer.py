"""Per-layer tracing of tubeint from outside the package.

``Tracer.installed()`` wraps the public functions of every tubeint module and
rebinds each wrapper under every name that holds the original in any tubeint
module (``cli``, ``invariant`` and ``resonance`` import functions by name), so
calls between modules go through the wrappers too.  The closures returned by
``perturb.g_series`` are wrapped as they are made.  Leaving the context
restores every name.

Each wrapped function belongs to a group.  A call opens a span unless the
innermost open span already belongs to the same group (or to a group that
absorbs it); then its time stays with that span.  A span's self time is its
duration minus the spans opened inside it, so the group self times add up to
the traced wall time without double counting.

Two costs cannot be split out this way: ``cli.cmd_fourier`` calls the private
``resonance._window_project`` (that time lands in ``cli.main``), and the inline
cos/sin and ``y**-2.5`` of the integrators stay in the integrator spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import pkgutil
import time
from pathlib import Path

import numpy as np

import tubeint

# Groups for the public functions; any other public function becomes a span
# of "<module>.other", so its time is never charged to its caller.
GROUPS = {
    "cli.main": "cli.main",
    "cli.write_csv": "cli.write_csv",
    "integrate.integrate_y": "integrate.y",
    "integrate.integrate_z": "integrate.z",
    "integrate.integrate_coupled": "integrate.coupled",
    "integrate.rk4_solve": "integrate.generic",
    "perturb.g_of_t": "perturb.g",
    "ermakov.integrate_ermakov": "ermakov.integrate",
    "ermakov.build_driver": "ermakov.build_driver",
    "ermakov.logistic_sequence": "ermakov.build_driver",
    "ermakov.lewis_invariant": "ermakov.lewis",
}
MODULE_GROUPS = {
    "cli": "cli.main",          # the cmd_* bodies and parser are main's self time
    "invariant": "invariant.eval",
    "resonance": "resonance",
}
SERIES = {"rho1", "rho2", "rho3", "drho1", "drho2", "drho3", "rho_sum", "y_composite",
          "alpha2_derivatives", "volterra_series", "evaluate_series", "equation_residual"}
INTEGRATORS = ("integrate.y", "integrate.z", "integrate.coupled", "integrate.generic")
# g_of_t evaluates the composite series; that work is part of perturb.g.
ABSORBS = {"perturb.g": frozenset({"perturb.series"})}


class Stats:
    __slots__ = ("calls", "seconds", "points", "steps", "failures", "rows", "bytes")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.points = 0
        self.steps = 0
        self.failures = 0
        self.rows = 0
        self.bytes = 0


def _group(module: str, name: str) -> str:
    key = f"{module}.{name}"
    if key in GROUPS:
        return GROUPS[key]
    if module == "perturb" and name in SERIES:
        return "perturb.series"
    return MODULE_GROUPS.get(module, f"{module}.other")


def _points(result) -> int:
    if isinstance(result, list):
        return sum(len(f.t) for f in result)
    if isinstance(result, tuple):
        return _points(result[0])
    data = getattr(result, "data", None)
    return len(data) if data is not None else int(np.size(result))


def _count_integration(st: Stats, args, result) -> None:
    st.steps += result.meta["config"].plan()[0]
    if result.meta.get("escaped"):
        st.failures += 1


def _count_points(st: Stats, args, result) -> None:
    st.points += _points(result)


def _count_csv(st: Stats, args, result) -> None:
    path, meta = args[0], args[1]
    if path != "-":
        data = Path(path).read_bytes()
        st.bytes += len(data)
        st.rows += data.count(b"\n") - len(meta) - 1


COUNTERS = {
    "integrate.y": _count_integration,
    "integrate.z": _count_integration,
    "integrate.coupled": _count_integration,
    "integrate.generic": _count_integration,
    "ermakov.integrate": _count_integration,
    "perturb.series": _count_points,
    "perturb.g": _count_points,
    "ermakov.spline_eval": _count_points,
    "ermakov.lewis": _count_points,
    "invariant.eval": _count_points,
    "cli.write_csv": _count_csv,
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stats] = {}
        self._stack = [[0.0, 0.0, None]]   # frames: [start, child seconds, group]

    def _stats(self, group: str) -> Stats:
        return self.stats.setdefault(group, Stats())

    def span(self, fn, group: str):
        stack = self._stack
        clock = time.perf_counter
        st = self._stats(group)
        count = COUNTERS.get(group)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = stack[-1][2]
            if outer == group or group in ABSORBS.get(outer, ()):
                return fn(*args, **kwargs)
            frame = [clock(), 0.0, group]
            stack.append(frame)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                duration = clock() - frame[0]
                stack.pop()
                stack[-1][1] += duration
                st.calls += 1
                st.seconds += duration - frame[1]
                st.failures += not ok
            if count is not None:
                count(st, args, result)
            return result

        return wrapper

    def leaf(self, fn, group: str):
        """Lean span for scalar hot paths that call nothing traced (one point)."""
        stack = self._stack
        clock = time.perf_counter
        st = self._stats(group)

        def wrapper(*args):
            start = clock()
            result = fn(*args)
            duration = clock() - start
            st.calls += 1
            st.points += 1
            st.seconds += duration
            stack[-1][1] += duration
            return result

        return wrapper

    def counter(self, fn, group: str):
        st = self._stats(group)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def g_factory(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.leaf(fn(*args, **kwargs), "perturb.g")

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        modules = [tubeint] + [
            importlib.import_module(f"tubeint.{m.name}")
            for m in pkgutil.iter_modules(tubeint.__path__)
        ]
        patches = []   # (owner, name, original)
        for mod in modules[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                if short == "perturb" and name == "g_series":
                    wrapper = self.g_factory(fn)
                elif short == "model" and name == "validate_params":
                    wrapper = self.counter(fn, "model.validate_params")
                else:
                    wrapper = self.span(fn, _group(short, name))
                for holder in modules:
                    for alias, value in list(vars(holder).items()):
                        if value is fn:
                            patches.append((holder, alias, fn))
                            setattr(holder, alias, wrapper)
        spline = tubeint.ermakov.CubicSpline
        for name, make in (("eval_scalar", self.leaf), ("__call__", self.span)):
            original = spline.__dict__[name]
            patches.append((spline, name, original))
            setattr(spline, name, make(original, "ermakov.spline_eval"))
        try:
            yield self
        finally:
            for owner, name, original in reversed(patches):
                setattr(owner, name, original)

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass layer metrics; 0 where the workload bypasses a layer."""
        s = {g: self.stats.get(g, Stats()) for g in (
            "integrate.y", "integrate.z", "integrate.coupled", "perturb.g",
            "perturb.series", "ermakov.spline_eval", "ermakov.integrate",
            "ermakov.build_driver", "ermakov.lewis", "invariant.eval", "resonance",
            "cli.write_csv", "cli.main", "model.validate_params")}
        integrators = [self.stats.get(g, Stats()) for g in INTEGRATORS]

        def per(x):
            return x / passes

        def micro(seconds, n):
            return 1e6 * seconds / n if n else 0.0

        return {
            "integrate.y.steps": per(s["integrate.y"].steps),
            "integrate.y.us_per_step": micro(s["integrate.y"].seconds, s["integrate.y"].steps),
            "integrate.z.steps": per(s["integrate.z"].steps),
            "integrate.z.self_us_per_step": micro(s["integrate.z"].seconds,
                                                  s["integrate.z"].steps),
            "integrate.coupled.steps": per(s["integrate.coupled"].steps),
            "integrate.coupled.us_per_step": micro(s["integrate.coupled"].seconds,
                                                   s["integrate.coupled"].steps),
            "integrate.calls": per(sum(st.calls for st in integrators)),
            "integrate.failures": per(sum(st.failures for st in integrators)),
            "perturb.g.calls": per(s["perturb.g"].calls),
            "perturb.g.points": per(s["perturb.g"].points),
            "perturb.g.us_per_point": micro(s["perturb.g"].seconds, s["perturb.g"].points),
            "perturb.g.s": per(s["perturb.g"].seconds),
            "perturb.series.points": per(s["perturb.series"].points),
            "perturb.series.s": per(s["perturb.series"].seconds),
            "ermakov.spline_eval.calls": per(s["ermakov.spline_eval"].calls),
            "ermakov.spline_eval.points": per(s["ermakov.spline_eval"].points),
            "ermakov.spline_eval.us_per_point": micro(s["ermakov.spline_eval"].seconds,
                                                      s["ermakov.spline_eval"].points),
            "ermakov.integrate.steps": per(s["ermakov.integrate"].steps),
            "ermakov.integrate.self_us_per_step": micro(s["ermakov.integrate"].seconds,
                                                        s["ermakov.integrate"].steps),
            "ermakov.build_driver.s": per(s["ermakov.build_driver"].seconds),
            "ermakov.lewis.s": per(s["ermakov.lewis"].seconds),
            "invariant.eval.points": per(s["invariant.eval"].points),
            "invariant.eval.s": per(s["invariant.eval"].seconds),
            "resonance.calls": per(s["resonance"].calls),
            "resonance.s": per(s["resonance"].seconds),
            "cli.write_csv.rows": per(s["cli.write_csv"].rows),
            "cli.write_csv.bytes": per(s["cli.write_csv"].bytes),
            "cli.write_csv.us_per_row": micro(s["cli.write_csv"].seconds,
                                              s["cli.write_csv"].rows),
            "cli.write_csv.s": per(s["cli.write_csv"].seconds),
            "cli.main.self_s": per(s["cli.main"].seconds),
            "model.validate_params.calls": per(s["model.validate_params"].calls),
        }
