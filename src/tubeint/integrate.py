"""Deterministic fixed-step classical RK4 integration.

One driver, ``_drive``, runs the three integrators here, the Ermakov pair in
``ermakov`` and the tube filaments of ``invariant``, over three systems, each
named in ``_SYSTEMS``: a plain-float vector field, the component that must
stay positive and the first one tested for escape past ``_ESCAPE_Z``.  The
coupled system carries N oscillators (z, p) behind one coefficient block, so
that one run steps a whole grid of filaments; ``integrate_coupled`` is its
N = 1 case and ``integrate_y`` its N = 0 case at omega = 1, where physical
and rescaled time coincide.  The driver's caller supplies a vectorised time-only coefficient
(the unit forcing profile, g(t) or the spline driver).  The driver evaluates
that coefficient once per chunk of steps on the half-step grid t = (h/2) * i
and hands each step its values at t, t + h/2 and t + h, so no coefficient is
evaluated per stage in Python.  A 500-unit run at h = 1e-3 is half a million
steps; identical inputs produce bit-identical trajectories, whatever the
chunk size.  There is no adaptivity and no interpolation.

Each system is the same field in C, in ``_rk4.c`` (built on first use, see
``_rk4``), and in Python, here, under one RK4 each.  When the compiled
library loads, the driver runs the compiled RK4 on each chunk, with
bit-identical results and the same errors; otherwise the Python RK4 runs.
``Trajectory.meta["kernel"]`` records "c" or "python".

A run of more than one chunk builds its coefficient tables ahead of the
stepping on ``_table_helpers()`` threads: one per spare core when the
compiled library loads, none on the Python RK4, which holds the GIL.  The
helpers claim the tables of the next few chunks in ascending order, while
the caller steps; when the caller needs a table that is not built yet, it
builds the next unclaimed one itself, and waits only when every table of the
window is claimed.  Each table is the same function of the same times
wherever it is built, so the bits do not depend on the helpers, and an error
raised while building a table is raised when the stepping reaches that
chunk, as in a run without helpers.  A tube grid of ``invariant`` runs on the
same pipeline: the parts are the pipeline's tables, one lockstep run each,
and each part's run, which takes a core, starts no helper of its own.

Positivity of the coefficient solution is enforced at every RK4 stage: true
solutions are strictly positive, so a nonpositive stage value signals a step
too large or parameters outside the usable regime, and raises rather than
clamps.  Escape of the oscillator is checked every step and raises Escape
with its time; a NaN oscillator coordinate counts as escaped.  A float
overflow inside a step raises NonFinite with the time of that step; other
non-finite states are caught at the next record point.  Every trajectory
takes its sample times from the driver, so a time column and
``Trajectory.times`` are the same numbers.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import numbers
import os
import threading
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import Escape, InvalidInput, NonFinite, NonPositive, PositivityViolation
from .model import SystemParams, Trajectory

__all__ = [
    "IntegrationConfig",
    "integrate_y",
    "integrate_z",
    "integrate_coupled",
    "convergence_order",
]

#: Steps per coefficient table.  It bounds the table memory of long runs;
#: results do not depend on it.
_CHUNK = 4096

#: How many chunks past the one being stepped the table helpers may build, at
#: least: the window of ``_tables`` is max(_AHEAD, helpers).
_AHEAD = 3


@dataclass(frozen=True)
class IntegrationConfig:
    """Fixed-step integration settings.

    The run takes round(t_end / h) steps, at least one (fewer is
    InvalidInput), rounded up to a whole number of recorded intervals, so it
    ends in [t_end - h/2, t_end + (record_every - 1/2) * h].
    """

    t_end: float
    h: float = 1e-3
    record_every: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.h) and self.h > 0.0):
            raise InvalidInput(f"h must be finite and > 0, got {self.h!r}")
        if not (math.isfinite(self.t_end) and self.t_end > 0.0):
            raise InvalidInput(f"t_end must be finite and > 0, got {self.t_end!r}")
        if not math.isfinite(self.t_end / self.h):
            raise InvalidInput(f"t_end / h overflows: {self.t_end!r} / {self.h!r}")
        if round(self.t_end / self.h) == 0:
            raise InvalidInput(f"t_end / h rounds to 0 steps: {self.t_end!r} / {self.h!r}")
        if not (isinstance(self.record_every, numbers.Integral) and self.record_every >= 1):
            raise InvalidInput(f"record_every must be an integer >= 1, got {self.record_every!r}")

    def plan(self) -> tuple[int, int]:
        """(total steps, recorded intervals); steps are a multiple of record_every."""
        n = round(self.t_end / self.h)
        intervals = -(-n // self.record_every)
        return intervals * self.record_every, intervals


# The vector fields of the three systems, as in ``_rk4.c``: each maps the
# constants (eps, omega) to ``field(x, c)``, the derivative of the state x at
# coefficient value c, written with the C field's expressions in the same
# order and association.  The positivity test is the step's, not the field's.


def _field_z(eps, om):
    """(z, p) of z'' + omega^2 z + g(t) z^2 = 0; c is g."""
    om2 = om * om

    def field(x, c):
        z, p = x
        return p, -om2 * z - c * z * z

    return field


def _field_coupled(eps, om):
    """(y, y', y'', J) in physical time, then N >= 0 pairs (z, p), each driven
    by g = y^(-5/2), one pow for all of them; c is the forcing profile.  At
    omega = 1 every ``om *`` is exact, so with N = 0 this is the coefficient
    system in rescaled time, bit for bit."""
    om2 = om * om

    def field(x, c):
        y, dy, ddy = x[0], x[1], x[2]
        pw = y**-2.5
        k = [om * dy, om * ddy, om * (eps * c * pw - 4.0 * dy), om * pw * c]
        for j in range(4, len(x), 2):
            z = x[j]
            k += x[j + 1], -om2 * z - pw * z * z
        return k

    return field


def _field_ermakov(eps, om):
    """(z, p, w, w') of z'' = -f z and w'' = -f w + w^-3; c is f."""

    def field(x, c):
        z, p, w, dw = x
        return p, -c * z, dw, -c * w + w**-3

    return field


class _System(NamedTuple):
    field: Callable  # (eps, omega) -> field(x, c)
    positive: tuple[int, str] | None  # (index, name) of the component kept > 0
    escape: int | None  # first component tested against _ESCAPE_Z, then every second one


#: The systems of ``_drive``, each with the compiled field of the same name in
#: ``_rk4.c``, which fixes the same positive and escape components.  A run's
#: dimension is that of its initial state: 2 for z, 4 for Ermakov and 4 + 2N
#: for the coupled system with N oscillators.
_SYSTEMS = {
    "z": _System(_field_z, None, 0),
    "coupled": _System(_field_coupled, (0, "y"), 4),
    "ermakov": _System(_field_ermakov, (2, "w"), None),
}

#: The magnitude past which an escape component (each z) has escaped.
_ESCAPE_Z = 1e6


def _rk4_step(field, h: float, positive: tuple[int, str] | None):
    """``step(t, x, c0, cm, c1)``: one RK4 step of ``field`` from t, as ``rk4()`` in ``_rk4.c``.

    c0, cm and c1 are the coefficient at t, t + h/2 and t + h.  Before each of
    the four field calls the positive component of the stage state is tested,
    and a value <= 0 raises PositivityViolation with that stage's time: t,
    t + h/2, t + h/2 or t + h.
    """
    half = 0.5 * h
    sixth = h / 6.0
    i, name = positive or (None, None)

    def stage(xs, c, t):
        if i is not None and xs[i] <= 0.0:
            raise PositivityViolation(t, xs[i], name)
        return field(xs, c)

    def step(t, x, c0, cm, c1):
        k1 = stage(x, c0, t)
        k2 = stage([a + half * b for a, b in zip(x, k1)], cm, t + half)
        k3 = stage([a + half * b for a, b in zip(x, k2)], cm, t + half)
        k4 = stage([a + h * b for a, b in zip(x, k3)], c1, t + h)
        return [a + sixth * (b1 + 2.0 * (b2 + b3) + b4)
                for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]

    return step


def _cores() -> int:
    """The cores this process may run on (``os.cpu_count()`` where the
    platform has no affinity mask)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _table_helpers() -> int:
    """The helper threads beside a working one: one per spare core when the
    compiled library loads, since it releases the GIL, and none otherwise.  It
    sets ``_drive``'s table helpers, ``cli.write_csv``'s block helpers and the
    tube parts (1 + helpers), and loads the library before any thread starts."""
    from . import _rk4
    return _cores() - 1 if _rk4.library() is not None else 0


def _tables(table, chunks: int, helpers: int):
    """Yield ``table(k)`` for k = 0 .. chunks-1, built ahead by up to ``helpers`` threads.

    It serves ``_drive``'s chunk coefficient tables, ``cli.write_csv``'s
    formatted CSV blocks and ``invariant.tube_surface_samples``' parts;
    helpers gain only where ``table`` releases the GIL.  The helpers start
    before any table is built, in copies of the caller's context (so under
    its numpy error state).  Every thread, the caller included, claims the
    next table in ascending order, up to max(``_AHEAD``, helpers) past the
    one the caller has reached, so that all 1 + helpers threads can build at
    once.  When the caller needs a table that is not built yet, it builds the
    next unclaimed table of the window, or waits only when every one is
    claimed.  Any thread may build table 0: each caller loads the compiled
    library first, and the first-use caches a table can fill
    (``perturb._tables`` and ``_packed``, ``_rk4._pow10_table``) are pure
    functions, so two threads filling one store the same value.  An
    exception raised while building a table is raised when the caller
    reaches that table.  Closing the generator, or any raise, stops and
    joins every helper.
    """
    cond = threading.Condition()
    built = {}  # chunk -> its table, or the exception that building it raised
    claimed = 0  # chunks 0 .. claimed-1 are taken
    reached = 0  # the chunk whose table the caller asked for last
    window = max(_AHEAD, helpers)
    stop = False

    def claim():
        """The next chunk to build, or None when the window is full (under cond)."""
        nonlocal claimed
        if claimed >= chunks or claimed > reached + window:
            return None
        claimed += 1
        return claimed - 1

    def build(k, errors=Exception):
        try:
            result = table(k)
        except errors as exc:  # raised on the caller when it reaches chunk k
            result = exc
        with cond:
            built[k] = result
            cond.notify_all()

    def helper():
        while True:
            with cond:
                cond.wait_for(lambda: stop or claimed >= chunks or claimed <= reached + window)
                k = None if stop else claim()
            if k is None:
                return
            build(k, BaseException)  # a helper always leaves its table's outcome

    threads = [threading.Thread(target=contextvars.copy_context().run, args=(helper,))
               for _ in range(min(helpers, chunks - 1))]
    try:
        for thread in threads:
            thread.start()
        for k in range(chunks):
            with cond:
                reached = k
                cond.notify_all()  # the window moved on
            while True:
                with cond:
                    mine = None if k in built else claim()
                    if mine is None:
                        cond.wait_for(lambda: k in built)
                        result = built.pop(k)
                        break
                build(mine)
            if isinstance(result, BaseException):
                raise result
            yield result
    finally:
        with cond:
            stop = True
            cond.notify_all()
        for thread in threads:
            if thread.ident is not None:  # started
                thread.join()


def _drive(system: str, coef, x0, config: IntegrationConfig, eps: float = 0.0,
           omega: float = 0.0, helpers: int | None = None, lead: int = 0):
    """Run RK4 of ``system`` over ``config.plan()`` and record every record_every steps.

    ``system`` names an entry of ``_SYSTEMS``, whose field runs with the
    constants eps and omega (a field ignores the ones it does not use).
    ``coef`` maps an array of times to coefficient values (a scalar
    broadcasts).  For a system with an escape component, the run raises
    Escape at the first step where the magnitude of that component, or of
    every second one after it (each z of a coupled run), exceeds
    ``_ESCAPE_Z`` or is NaN.  A plan too large to allocate raises
    InvalidInput.

    The same field is written in C, in ``_rk4.c``, and in Python, above, each
    under one RK4.  When the compiled RK4 can be built and loaded it runs each
    chunk, with the same results to the bit and the same errors; otherwise the
    Python one does.  ``helpers`` threads (by default ``_table_helpers()``)
    build the chunk tables ahead of the stepping; the bits and errors do not
    depend on their number, and every helper is joined before the driver
    returns or raises.

    The run records into one table, the trajectory's own: ``lead`` leading
    columns, left unset for the caller to fill in place (the time, and f(t)
    for the Ermakov pair), then the state, which either RK4 writes straight
    into its row (the compiled one through the table's row stride).
    Returns (recorded times, that table, the path that ran: "c" or
    "python"); sample i is at (i*record_every)*h.
    """
    from . import _rk4  # on first use: starting the command line does not need it

    spec = _SYSTEMS[system]
    x = tuple(float(v) for v in x0)
    if not all(map(math.isfinite, x)):
        raise InvalidInput(f"initial state must be finite, got {x!r}")
    h = config.h
    rec = config.record_every
    escape = None if spec.escape is None else slice(spec.escape, None, 2)
    n_steps, n_intervals = config.plan()
    try:
        data = np.empty((n_intervals + 1, lead + len(x)))
    except (MemoryError, ValueError) as exc:
        raise InvalidInput(
            f"cannot allocate {float(n_intervals + 1):.6g} recorded samples ({exc})"
        ) from exc
    out = data[:, lead:]
    out[0] = x
    rows = 1
    run = _rk4.kernel(system, (h, eps, omega), x, out, _ESCAPE_Z, rec)
    if run is None:
        step = _rk4_step(spec.field(eps, omega), h, spec.positive)
    if helpers is None:
        helpers = _table_helpers()
    starts = range(0, n_steps, _CHUNK)

    def table(k):  # chunk k's coefficient on its half-step grid
        times = 0.5 * h * np.arange(2 * starts[k], 2 * min(starts[k] + _CHUNK, n_steps) + 1)
        return np.ascontiguousarray(np.broadcast_to(np.asarray(coef(times), dtype=float),
                                                    times.shape))

    with contextlib.closing(_tables(table, len(starts), helpers)) as tables:
        for start, c in zip(starts, tables):
            stop = min(start + _CHUNK, n_steps)
            if run is not None:
                status, at, value = run(c, start, stop)
                t = at * h
                if status == _rk4.ESCAPE:
                    raise Escape(t)
                if status == _rk4.NONFINITE:
                    raise NonFinite(t)
                if status != _rk4.OK:  # at stage t, t + h/2 or t + h of step at
                    stage = (t, t + 0.5 * h, t + h)[status - _rk4.NONPOSITIVE]
                    raise PositivityViolation(stage, value, spec.positive[1])
                continue
            c = c.tolist()
            try:
                for k, c0, cm, c1 in zip(range(start, stop), c[0::2], c[1::2], c[2::2]):
                    x = step(k * h, x, c0, cm, c1)
                    kk = k + 1
                    # Written so that a NaN coordinate escapes too.
                    if escape is not None and not all(abs(v) <= _ESCAPE_Z for v in x[escape]):
                        raise Escape(kk * h)
                    if kk % rec == 0:
                        if not all(map(math.isfinite, x)):
                            raise NonFinite(kk * h)
                        out[rows] = x
                        rows += 1
            except OverflowError as exc:
                raise NonFinite(k * h) from exc
    times = np.arange(n_intervals + 1, dtype=float)  # (i * rec) * h, in place: exact products
    times *= rec
    times *= h
    return times, data, "python" if run is None else "c"


def _profile(params: SystemParams) -> Callable[[np.ndarray], np.ndarray]:
    """Unit forcing profile w(tau); the forcing in rescaled time is eps * w(tau).

    w is (c1 cos + c2 sin) / hypot(c1, c2), and cos(tau) when unforced.  For
    (a, b) = (1, 0), canonical or unforced, w is np.cos itself, with the same
    bits: 1.0 x = x, and cos(tau) + (+-0.0) = cos(tau) because the cosine of a
    finite double is never 0.
    """
    r = math.hypot(params.c1, params.c2)
    a, b = (params.c1 / r, params.c2 / r) if r else (1.0, 0.0)
    if (a, b) == (1.0, 0.0):
        return np.cos
    return lambda tau: a * np.cos(tau) + b * np.sin(tau)


def integrate_y(params: SystemParams, config: IntegrationConfig) -> Trajectory:
    """Integrate the coefficient subsystem (y, y', y'', J) in rescaled time.

    The Volterra integral J' = y^(-5/2) * w(tau) (w the unit forcing profile,
    cos(tau) in the canonical orientation) is carried as a fourth state
    component so it shares the integrator's O(h^4) accuracy.  config.t_end is
    the final rescaled time.  This is the coupled system with no oscillators
    at omega = 1, where physical time is rescaled time.
    """
    x0 = (params.y0, params.yp0, params.ypp0, 0.0)
    tau, data, path = _drive("coupled", _profile(params), x0, config, eps=params.epsilon,
                             omega=1.0, lead=1)
    data[:, 0] = tau
    return Trajectory(
        times=tau,
        columns=("tau", "y", "dy", "ddy", "J"),
        data=data,
        meta={"system": "y", "params": params, "config": config, "kernel": path},
    )


def integrate_z(
    g: Callable[[np.ndarray], np.ndarray],
    z0: float,
    p0: float,
    omega: float,
    config: IntegrationConfig,
) -> Trajectory:
    """Integrate the driven oscillator z'' + omega^2 z + g(t) z^2 = 0.

    g is vectorised: it maps an array of times to coefficient values, and a
    constant (``lambda t: 0.0``) broadcasts.  It must be a pure function of
    its times: on the compiled RK4 it may be called from a helper thread,
    for several chunks at once, ahead of the steps that use its values.
    Raises Escape at the step where |z| exceeds ``_ESCAPE_Z`` = 1e6 (the
    cubic potential is unbounded; detect rather than overflow).  Raises
    NonPositive unless omega is finite and > 0.
    """
    if not (math.isfinite(omega) and omega > 0.0):
        raise NonPositive("omega", omega)
    t, states, path = _drive("z", g, (z0, p0), config, omega=omega)
    return Trajectory(
        times=t,
        columns=("z", "p"),
        data=states,
        meta={"system": "z", "omega": omega, "config": config, "kernel": path},
    )


def integrate_coupled(
    params: SystemParams,
    z0: float,
    p0: float,
    config: IntegrationConfig,
) -> Trajectory:
    """Lockstep RK4 of the six-dimensional system (y, y', y'', J, z, p).

    The coefficient subsystem advances in rescaled time tau = omega*t inside
    the same stages as (z, p) with g(t) = y(omega*t)^(-5/2), so the exact
    invariant can be evaluated from simultaneous state with no interpolation.
    Times are physical; the tau column stores omega*t.  Raises Escape at the
    step where |z| exceeds ``_ESCAPE_Z`` = 1e6.
    """
    t, data, path = _coupled(params, [(z0, p0)], config, lead=1)
    np.multiply(params.omega, t, out=data[:, 0])
    return Trajectory(
        times=t,
        columns=("tau", "y", "dy", "ddy", "J", "z", "p"),
        data=data,
        meta={"system": "coupled", "params": params, "config": config, "kernel": path},
    )


def _coupled(params: SystemParams, pairs, config: IntegrationConfig,
             helpers: int | None = None, lead: int = 0):
    """Lockstep RK4 of one coefficient block and one oscillator per (z0, p0) of pairs.

    All oscillators share the block's stages, so each oscillator's columns
    equal the ``integrate_coupled`` run of its pair to the bit.  Returns
    ``_drive``'s (physical times, table, RK4 path); behind the table's lead
    unset columns come (y, y', y'', J), then (z, p) of each pair in the order
    of pairs.  helpers is ``_drive``'s table helper count.
    """
    om = params.omega
    profile = _profile(params)
    x0 = (params.y0, params.yp0, params.ypp0, 0.0, *(v for pair in pairs for v in pair))
    return _drive("coupled", lambda t: profile(om * t), x0, config, eps=params.epsilon, omega=om,
                  helpers=helpers, lead=lead)


def convergence_order(
    system: str,
    params: SystemParams,
    h: float,
    t_end: float,
    g: Callable[[np.ndarray], np.ndarray] | None = None,
) -> float:
    """Richardson order estimate at t_end from runs at h, h/2, h/4.

    The oscillator starts at z0 = 0.2, p0 = 0.  Compares final states in the
    max norm over the dynamical components and returns
    log2(|x_h - x_{h/2}| / |x_{h/2} - x_{h/4}|).  Returns +inf when
    both differences are below 1e-13 (the solution is exact on this grid,
    e.g. the unforced constant case).
    """
    if system not in ("y", "z", "coupled"):
        raise InvalidInput(f"unknown system {system!r}")
    z0, p0 = 0.2, 0.0

    def final_state(step: float) -> np.ndarray:
        cfg = IntegrationConfig(t_end=t_end, h=step, record_every=1)
        if system == "z":
            g_fn = g if g is not None else (lambda t: 0.0)
            return integrate_z(g_fn, z0, p0, params.omega, cfg).data[-1]
        if system == "y":
            traj = integrate_y(params, cfg)
        else:
            traj = integrate_coupled(params, z0, p0, cfg)
        return traj.data[-1, 1:]  # without the tau column

    x1 = final_state(h)
    x2 = final_state(h / 2.0)
    x4 = final_state(h / 4.0)
    d1 = float(np.max(np.abs(x1 - x2)))
    d2 = float(np.max(np.abs(x2 - x4)))
    if d1 < 1e-13 and d2 < 1e-13:
        return math.inf
    if d2 == 0.0:
        return math.inf
    return math.log2(d1 / d2)
