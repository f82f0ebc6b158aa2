"""Deterministic fixed-step classical RK4 integration.

One driver, ``_drive``, runs the three integrators here and the Ermakov pair
in ``ermakov``.  Each system supplies a plain-float ``step`` that writes out
its four RK4 stages, plus a vectorised time-only coefficient (the unit
forcing profile, g(t) or the spline driver).  The driver evaluates that
coefficient once per chunk of steps on the half-step grid t = (h/2) * i and
hands each step its values at t, t + h/2 and t + h, so no coefficient is
evaluated per stage in Python.  A 500-unit run at h = 1e-3 is half a million
steps; identical inputs produce bit-identical trajectories, whatever the
chunk size.  There is no adaptivity and no interpolation.

Each system also has a compiled vector field in ``_rk4.c``, evaluated in the
same order as the stages of its Python step under one C RK4 stage routine and
built on first use (see ``_rk4``).  When it loads, the driver runs the
compiled RK4 on each chunk instead of the Python step, with bit-identical
results and the same errors; otherwise the Python step runs.
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
from typing import Callable

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


def _drive(step, coef, x0, config: IntegrationConfig, escape_index: int | None = None,
           kernel: tuple[str, tuple] | None = None):
    """Run ``step`` over ``config.plan()`` and record every record_every steps.

    ``step(t, x, c0, cm, c1)`` advances the state tuple x by one RK4 step from
    t, given the coefficient at t, t + h/2 and t + h.  ``coef`` maps an array
    of times to coefficient values (a scalar broadcasts).  With escape_index
    set, the run raises Escape at the first step where |x[escape_index]|
    exceeds config.escape_z or is NaN.  A plan too large to allocate raises
    InvalidInput.

    ``kernel`` is (system, (h, eps, omega)): the system whose field in
    ``_rk4.c`` matches ``step``, and the constants of the compiled RK4 (0.0
    for one the field does not use).  When the compiled RK4 can be built and
    loaded it runs each chunk, with the same results to the bit and the same
    errors; otherwise the Python ``step`` does.

    Returns (recorded times, recorded states, the path that ran: "c" or
    "python"); sample i is at (i*record_every)*h.
    """
    from . import _rk4  # on first use: starting the command line does not need it

    x = tuple(float(v) for v in x0)
    if not all(map(math.isfinite, x)):
        raise InvalidInput(f"initial state must be finite, got {x!r}")
    h = config.h
    rec = config.record_every
    limit = config.escape_z
    n_steps, n_intervals = config.plan()
    try:
        out = np.empty((n_intervals + 1, len(x)))
    except (MemoryError, ValueError) as exc:
        raise InvalidInput(f"cannot allocate {n_intervals + 1} recorded samples ({exc})") from exc
    out[0] = x
    rows = 1
    run = None if kernel is None else _rk4.kernel(*kernel, x, out, escape_index, limit, rec)
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
                raise PositivityViolation(stage, value, _rk4.KERNELS[kernel[0]][1])
            continue
        c = c.tolist()
        try:
            for k, c0, cm, c1 in zip(range(start, stop), c[0::2], c[1::2], c[2::2]):
                x = step(k * h, x, c0, cm, c1)
                kk = k + 1
                # Written so that a NaN coordinate escapes too.
                if escape_index is not None and not abs(x[escape_index]) <= limit:
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
    eps = params.epsilon
    h = config.h
    half = 0.5 * h
    sixth = h / 6.0

    def step(tau, x, c0, cm, c1):
        y, dy, ddy, J = x

        if y <= 0.0:
            raise PositivityViolation(tau, y)
        pw = y**-2.5
        a1_y, a1_dy, a1_ddy = dy, ddy, eps * c0 * pw - 4.0 * dy
        a1_J = pw * c0

        y2 = y + half * a1_y
        if y2 <= 0.0:
            raise PositivityViolation(tau + half, y2)
        pw = y2**-2.5
        force = eps * cm
        a2_y = dy + half * a1_dy
        a2_dy = ddy + half * a1_ddy
        a2_ddy = force * pw - 4.0 * a2_y
        a2_J = pw * cm

        y3 = y + half * a2_y
        if y3 <= 0.0:
            raise PositivityViolation(tau + half, y3)
        pw = y3**-2.5
        a3_y = dy + half * a2_dy
        a3_dy = ddy + half * a2_ddy
        a3_ddy = force * pw - 4.0 * a3_y
        a3_J = pw * cm

        y4 = y + h * a3_y
        if y4 <= 0.0:
            raise PositivityViolation(tau + h, y4)
        pw = y4**-2.5
        a4_y = dy + h * a3_dy
        a4_dy = ddy + h * a3_ddy
        a4_ddy = eps * c1 * pw - 4.0 * a4_y
        a4_J = pw * c1

        return (
            y + sixth * (a1_y + 2.0 * (a2_y + a3_y) + a4_y),
            dy + sixth * (a1_dy + 2.0 * (a2_dy + a3_dy) + a4_dy),
            ddy + sixth * (a1_ddy + 2.0 * (a2_ddy + a3_ddy) + a4_ddy),
            J + sixth * (a1_J + 2.0 * (a2_J + a3_J) + a4_J),
        )

    x0 = (params.y0, params.yp0, params.ypp0, 0.0)
    tau, states, path = _drive(step, _profile(params), x0, config, kernel=("y", (h, eps, 0.0)))
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
    h = config.h
    half = 0.5 * h
    sixth = h / 6.0
    om2 = omega * omega

    def step(t, x, g0, gm, g1):
        z, p = x

        a1_z = p
        a1_p = -om2 * z - g0 * z * z

        z2 = z + half * a1_z
        a2_z = p + half * a1_p
        a2_p = -om2 * z2 - gm * z2 * z2

        z3 = z + half * a2_z
        a3_z = p + half * a2_p
        a3_p = -om2 * z3 - gm * z3 * z3

        z4 = z + h * a3_z
        a4_z = p + h * a3_p
        a4_p = -om2 * z4 - g1 * z4 * z4

        return (
            z + sixth * (a1_z + 2.0 * (a2_z + a3_z) + a4_z),
            p + sixth * (a1_p + 2.0 * (a2_p + a3_p) + a4_p),
        )

    t, states, path = _drive(step, g, (z0, p0), config, escape_index=0,
                             kernel=("z", (h, 0.0, omega)))
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
    eps = params.epsilon
    om = params.omega
    om2 = om * om
    h = config.h
    half = 0.5 * h
    sixth = h / 6.0
    profile = _profile(params)

    def step(t, x, c0, cm, c1):
        y, dy, ddy, J, z, p = x

        if y <= 0.0:
            raise PositivityViolation(t, y)
        pw = y**-2.5
        a1_y = om * dy
        a1_dy = om * ddy
        a1_ddy = om * (eps * c0 * pw - 4.0 * dy)
        a1_J = om * pw * c0
        a1_z = p
        a1_p = -om2 * z - pw * z * z

        y2 = y + half * a1_y
        if y2 <= 0.0:
            raise PositivityViolation(t + half, y2)
        pw = y2**-2.5
        force = eps * cm
        dy2 = dy + half * a1_dy
        ddy2 = ddy + half * a1_ddy
        z2 = z + half * a1_z
        a2_y = om * dy2
        a2_dy = om * ddy2
        a2_ddy = om * (force * pw - 4.0 * dy2)
        a2_J = om * pw * cm
        a2_z = p + half * a1_p
        a2_p = -om2 * z2 - pw * z2 * z2

        y3 = y + half * a2_y
        if y3 <= 0.0:
            raise PositivityViolation(t + half, y3)
        pw = y3**-2.5
        dy3 = dy + half * a2_dy
        ddy3 = ddy + half * a2_ddy
        z3 = z + half * a2_z
        a3_y = om * dy3
        a3_dy = om * ddy3
        a3_ddy = om * (force * pw - 4.0 * dy3)
        a3_J = om * pw * cm
        a3_z = p + half * a2_p
        a3_p = -om2 * z3 - pw * z3 * z3

        y4 = y + h * a3_y
        if y4 <= 0.0:
            raise PositivityViolation(t + h, y4)
        pw = y4**-2.5
        dy4 = dy + h * a3_dy
        ddy4 = ddy + h * a3_ddy
        z4 = z + h * a3_z
        a4_y = om * dy4
        a4_dy = om * ddy4
        a4_ddy = om * (eps * c1 * pw - 4.0 * dy4)
        a4_J = om * pw * c1
        a4_z = p + h * a3_p
        a4_p = -om2 * z4 - pw * z4 * z4

        return (
            y + sixth * (a1_y + 2.0 * (a2_y + a3_y) + a4_y),
            dy + sixth * (a1_dy + 2.0 * (a2_dy + a3_dy) + a4_dy),
            ddy + sixth * (a1_ddy + 2.0 * (a2_ddy + a3_ddy) + a4_ddy),
            J + sixth * (a1_J + 2.0 * (a2_J + a3_J) + a4_J),
            z + sixth * (a1_z + 2.0 * (a2_z + a3_z) + a4_z),
            p + sixth * (a1_p + 2.0 * (a2_p + a3_p) + a4_p),
        )

    x0 = (params.y0, params.yp0, params.ypp0, 0.0, z0, p0)
    t, states, path = _drive(step, lambda t: profile(om * t), x0, config, escape_index=4,
                             kernel=("coupled", (h, eps, om)))
    return Trajectory(
        times=t,
        columns=("tau", "y", "dy", "ddy", "J", "z", "p"),
        data=np.column_stack([om * t, states]),
        meta={"system": "coupled", "params": params, "config": config, "kernel": path},
    )


_STATE_COLUMNS = {
    "y": ("y", "dy", "ddy", "J"),
    "z": ("z", "p"),
    "coupled": ("y", "dy", "ddy", "J", "z", "p"),
}


def convergence_order(
    system: str,
    params: SystemParams,
    h: float,
    t_end: float,
    z0: float = 0.2,
    p0: float = 0.0,
    g: Callable[[np.ndarray], np.ndarray] | None = None,
) -> float:
    """Richardson order estimate at t_end from runs at h, h/2, h/4.

    Compares final states in the max norm over the dynamical components and
    returns log2(|x_h - x_{h/2}| / |x_{h/2} - x_{h/4}|).  Returns +inf when
    both differences are below 1e-13 (the solution is exact on this grid,
    e.g. the unforced constant case).
    """
    if system not in _STATE_COLUMNS:
        raise InvalidInput(f"unknown system {system!r}")

    def final_state(step: float) -> np.ndarray:
        cfg = IntegrationConfig(t_end=t_end, h=step, record_every=1)
        if system == "y":
            traj = integrate_y(params, cfg)
        elif system == "z":
            g_fn = g if g is not None else (lambda t: 0.0)
            traj = integrate_z(g_fn, z0, p0, params.omega, cfg)
        else:
            traj = integrate_coupled(params, z0, p0, cfg)
        return np.array([traj.column(c)[-1] for c in _STATE_COLUMNS[system]])

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
