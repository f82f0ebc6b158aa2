"""Deterministic fixed-step classical RK4 integration.

One driver, ``_drive``, runs the three integrators here and the Ermakov pair
in ``ermakov``.  Each system is named in ``_SYSTEMS``: a plain-float vector
field, its dimension, the component that must stay positive and the one
tested for escape.  Its caller supplies a vectorised time-only coefficient
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

import math
import numbers
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


@dataclass(frozen=True)
class IntegrationConfig:
    """Fixed-step integration settings.

    The number of steps is rounded up to a whole number of recorded intervals,
    so the integration may extend up to (record_every - 1) * h beyond t_end;
    the recorded trajectory always covers [0, t_end].
    """

    t_end: float
    h: float = 1e-3
    escape_z: float = 1e6
    record_every: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.h) and self.h > 0.0):
            raise InvalidInput(f"h must be finite and > 0, got {self.h!r}")
        if not (math.isfinite(self.t_end) and self.t_end > 0.0):
            raise InvalidInput(f"t_end must be finite and > 0, got {self.t_end!r}")
        if not math.isfinite(self.t_end / self.h):
            raise InvalidInput(f"t_end / h overflows: {self.t_end!r} / {self.h!r}")
        if not (isinstance(self.record_every, numbers.Integral) and self.record_every >= 1):
            raise InvalidInput(f"record_every must be an integer >= 1, got {self.record_every!r}")
        if not self.escape_z > 0.0:
            raise InvalidInput(f"escape_z must be > 0, got {self.escape_z!r}")

    def plan(self) -> tuple[int, int]:
        """(total steps, recorded intervals); steps are a multiple of record_every."""
        n = max(1, round(self.t_end / self.h))
        intervals = -(-n // self.record_every)
        return intervals * self.record_every, intervals


# The vector fields of the four systems, as in ``_rk4.c``: each maps the
# constants (eps, omega) to ``field(x, c)``, the derivative of the state x at
# coefficient value c, written with the C field's expressions in the same
# order and association.  The positivity test is the step's, not the field's.


def _field_y(eps, om):
    """(y, y', y'', J) in rescaled time; c is the unit forcing profile."""

    def field(x, c):
        y, dy, ddy, _ = x
        pw = y**-2.5
        return dy, ddy, eps * c * pw - 4.0 * dy, pw * c

    return field


def _field_z(eps, om):
    """(z, p) of z'' + omega^2 z + g(t) z^2 = 0; c is g."""
    om2 = om * om

    def field(x, c):
        z, p = x
        return p, -om2 * z - c * z * z

    return field


def _field_coupled(eps, om):
    """(y, y', y'', J, z, p) in physical time, g = y^(-5/2); c is the forcing profile."""
    om2 = om * om

    def field(x, c):
        y, dy, ddy, _, z, p = x
        pw = y**-2.5
        return (om * dy, om * ddy, om * (eps * c * pw - 4.0 * dy), om * pw * c,
                p, -om2 * z - pw * z * z)

    return field


def _field_ermakov(eps, om):
    """(z, p, w, w') of z'' = -f z and w'' = -f w + w^-3; c is f."""

    def field(x, c):
        z, p, w, dw = x
        return p, -c * z, dw, -c * w + w**-3

    return field


class _System(NamedTuple):
    field: Callable  # (eps, omega) -> field(x, c)
    dim: int
    positive: tuple[int, str] | None  # (index, name) of the component kept > 0
    escape: int | None  # index of the component tested against escape_z


#: The systems of ``_drive``, each with the compiled field of the same name in
#: ``_rk4.c``.
_SYSTEMS = {
    "y": _System(_field_y, 4, (0, "y"), None),
    "z": _System(_field_z, 2, None, 0),
    "coupled": _System(_field_coupled, 6, (0, "y"), 4),
    "ermakov": _System(_field_ermakov, 4, (2, "w"), None),
}


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


def _drive(system: str, coef, x0, config: IntegrationConfig, eps: float = 0.0,
           omega: float = 0.0):
    """Run RK4 of ``system`` over ``config.plan()`` and record every record_every steps.

    ``system`` names an entry of ``_SYSTEMS``, whose field runs with the
    constants eps and omega (a field ignores the ones it does not use).
    ``coef`` maps an array of times to coefficient values (a scalar
    broadcasts).  For a system with an escape component, the run raises
    Escape at the first step where that component's magnitude exceeds
    config.escape_z or is NaN.  A plan too large to allocate raises
    InvalidInput.

    The same field is written in C, in ``_rk4.c``, and in Python, above, each
    under one RK4.  When the compiled RK4 can be built and loaded it runs each
    chunk, with the same results to the bit and the same errors; otherwise the
    Python one does.

    Returns (recorded times, recorded states, the path that ran: "c" or
    "python"); sample i is at (i*record_every)*h.
    """
    from . import _rk4  # on first use: starting the command line does not need it

    spec = _SYSTEMS[system]
    x = tuple(float(v) for v in x0)
    if not all(map(math.isfinite, x)):
        raise InvalidInput(f"initial state must be finite, got {x!r}")
    h = config.h
    rec = config.record_every
    limit = config.escape_z
    escape = spec.escape
    n_steps, n_intervals = config.plan()
    try:
        out = np.empty((n_intervals + 1, len(x)))
    except (MemoryError, ValueError) as exc:
        raise InvalidInput(f"cannot allocate {n_intervals + 1} recorded samples ({exc})") from exc
    out[0] = x
    rows = 1
    run = _rk4.kernel(system, (h, eps, omega), x, out, escape, limit, rec)
    if run is None:
        step = _rk4_step(spec.field(eps, omega), h, spec.positive)
    for start in range(0, n_steps, _CHUNK):
        stop = min(start + _CHUNK, n_steps)
        times = 0.5 * h * np.arange(2 * start, 2 * stop + 1)
        c = np.broadcast_to(np.asarray(coef(times), dtype=float), times.shape)
        if run is not None:
            status, at, value = run(np.ascontiguousarray(c), start, stop)
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
                if escape is not None and not abs(x[escape]) <= limit:
                    raise Escape(kk * h)
                if kk % rec == 0:
                    if not all(map(math.isfinite, x)):
                        raise NonFinite(kk * h)
                    out[rows] = x
                    rows += 1
        except OverflowError as exc:
            raise NonFinite(k * h) from exc
    return np.arange(n_intervals + 1) * rec * h, out, "python" if run is None else "c"


def _profile(params: SystemParams) -> Callable[[np.ndarray], np.ndarray]:
    """Unit forcing profile w(tau); the forcing in rescaled time is eps * w(tau).

    w is (c1 cos + c2 sin) / hypot(c1, c2), and cos(tau) when unforced.
    """
    r = math.hypot(params.c1, params.c2)
    a, b = (params.c1 / r, params.c2 / r) if r else (1.0, 0.0)
    return lambda tau: a * np.cos(tau) + b * np.sin(tau)


def integrate_y(params: SystemParams, config: IntegrationConfig) -> Trajectory:
    """Integrate the coefficient subsystem (y, y', y'', J) in rescaled time.

    The Volterra integral J' = y^(-5/2) * w(tau) (w the unit forcing profile,
    cos(tau) in the canonical orientation) is carried as a fourth state
    component so it shares the integrator's O(h^4) accuracy.  config.t_end is
    the final rescaled time.
    """
    x0 = (params.y0, params.yp0, params.ypp0, 0.0)
    tau, states, path = _drive("y", _profile(params), x0, config, eps=params.epsilon)
    return Trajectory(
        times=tau,
        columns=("tau", "y", "dy", "ddy", "J"),
        data=np.column_stack([tau, states]),
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
    constant (``lambda t: 0.0``) broadcasts.  Raises Escape at the step where
    |z| exceeds config.escape_z (the cubic potential is unbounded; detect
    rather than overflow).  Raises NonPositive unless omega is finite and > 0.
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
    step where |z| exceeds config.escape_z.
    """
    om = params.omega
    profile = _profile(params)
    x0 = (params.y0, params.yp0, params.ypp0, 0.0, z0, p0)
    t, states, path = _drive("coupled", lambda t: profile(om * t), x0, config,
                             eps=params.epsilon, omega=om)
    return Trajectory(
        times=t,
        columns=("tau", "y", "dy", "ddy", "J", "z", "p"),
        data=np.column_stack([om * t, states]),
        meta={"system": "coupled", "params": params, "config": config, "kernel": path},
    )


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
    dim = _SYSTEMS[system].dim
    z0, p0 = 0.2, 0.0

    def final_state(step: float) -> np.ndarray:
        cfg = IntegrationConfig(t_end=t_end, h=step, record_every=1)
        if system == "y":
            traj = integrate_y(params, cfg)
        elif system == "z":
            g_fn = g if g is not None else (lambda t: 0.0)
            traj = integrate_z(g_fn, z0, p0, params.omega, cfg)
        else:
            traj = integrate_coupled(params, z0, p0, cfg)
        return traj.data[-1, -dim:]

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
