"""Chaotically driven linear oscillator with its exactly conserved invariant.

A logistic-map sequence sampled every ts time units is interpolated by a
natural cubic spline into a smooth aperiodic coefficient f(t); the linear
oscillator z'' + f z = 0 and the auxiliary amplitude equation
w'' + f w = 1/w^3 are integrated in lockstep, and the conserved combination
((z/w)^2 + (w p - w' z)^2)/2 stays constant to integrator accuracy even
though the driver never repeats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NonPositive, NonPositiveF, OutOfRange
from .integrate import IntegrationConfig, _drive
from .model import Trajectory

__all__ = [
    "LogisticDriver",
    "CubicSpline",
    "logistic_sequence",
    "build_driver",
    "integrate_ermakov",
    "lewis_invariant",
]


def logistic_sequence(l0: float, n: int) -> np.ndarray:
    """First n iterates (seed included) of the fully chaotic logistic map."""
    if not 0.0 <= l0 <= 1.0:
        raise OutOfRange(l0)
    if n < 1:
        raise InvalidInput(f"n must be >= 1, got {n!r}")
    seq = np.empty(n)
    x = float(l0)
    for i in range(n):
        seq[i] = x
        x = 4.0 * x * (1.0 - x)
    return seq


@dataclass(frozen=True)
class LogisticDriver:
    """Chaotic driver parameters: knot values are f0 + df * (2 l_n - 1)."""

    l0: float = 0.37
    ts: float = 1.0
    f0: float = 1.0
    df: float = 0.3

    def __post_init__(self):
        if not 0.0 <= self.l0 <= 1.0:
            raise OutOfRange(self.l0)
        for name in ("ts", "f0"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise InvalidInput(f"{name} must be finite and > 0, got {value!r}")
        if not 0.0 <= self.df < self.f0:
            raise InvalidInput(f"df must lie in [0, f0), got {self.df!r}")

    def knots(self, n: int) -> np.ndarray:
        return self.f0 + self.df * (2.0 * logistic_sequence(self.l0, n) - 1.0)


class CubicSpline:
    """Natural cubic spline through the given knots (zero second derivative
    at both ends), with exact interpolation and C2 continuity.

    Evaluation accepts scalars or arrays; deriv selects the 0th, 1st or 2nd
    derivative.  Evaluation outside the knot range raises (no extrapolation).
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 1 or x.shape != y.shape or len(x) < 3:
            raise InvalidInput("need matching 1-D knot arrays with >= 3 points")
        if np.any(np.diff(x) <= 0.0):
            raise InvalidInput("knot abscissae must be strictly increasing")
        n = len(x)
        h = np.diff(x)
        # Thomas algorithm for the second derivatives M with M[0] = M[-1] = 0.
        M = np.zeros(n)
        cp = np.zeros(n - 1)
        dp = np.zeros(n - 1)
        for i in range(1, n - 1):
            rhs = 6.0 * ((y[i + 1] - y[i]) / h[i] - (y[i] - y[i - 1]) / h[i - 1])
            diag = 2.0 * (h[i - 1] + h[i])
            lower = h[i - 1]
            denom = diag - lower * cp[i - 1]
            cp[i] = h[i] / denom
            dp[i] = (rhs - lower * dp[i - 1]) / denom
        for i in range(n - 2, 0, -1):
            M[i] = dp[i] - cp[i] * M[i + 1]
        self.x = x
        self.y = y
        self.h = h
        self.M = M

    def _interval(self, t):
        return np.clip(np.searchsorted(self.x, t, side="right") - 1, 0, len(self.x) - 2)

    def __call__(self, t, deriv: int = 0):
        scalar = np.isscalar(t)
        t = np.asarray(t, dtype=float)
        if not np.all((t >= self.x[0] - 1e-12) & (t <= self.x[-1] + 1e-12)):
            raise InvalidInput("evaluation outside the knot range")
        i = self._interval(t)
        h = self.h[i]
        a = self.x[i + 1] - t
        b = t - self.x[i]
        Mi = self.M[i]
        Mj = self.M[i + 1]
        if deriv == 0:
            out = (
                (Mi * a**3 + Mj * b**3) / (6.0 * h)
                + (self.y[i] / h - Mi * h / 6.0) * a
                + (self.y[i + 1] / h - Mj * h / 6.0) * b
            )
        elif deriv == 1:
            out = (
                (-Mi * a**2 + Mj * b**2) / (2.0 * h)
                - self.y[i] / h
                + Mi * h / 6.0
                + self.y[i + 1] / h
                - Mj * h / 6.0
            )
        elif deriv == 2:
            out = (Mi * a + Mj * b) / h
        else:
            raise InvalidInput(f"deriv must be 0, 1 or 2, got {deriv!r}")
        return float(out) if scalar else out

    # self(t) under a second name, kept because bench/tracer.py wraps it by name
    eval_scalar = __call__

    def piecewise_minimum(self) -> tuple[float, float]:
        """(t_min, value) of the global minimum, exact per cubic piece.

        On piece i the slope that ``self(t, 1)`` evaluates, with a = h_i - b,
        is in b = t - x_i the quadratic q2 b^2 + q1 b + q0 with
        q2 = (M_i+1 - M_i) / (2 h_i), q1 = M_i and
        q0 = (y_i+1 - y_i) / h_i - h_i (2 M_i + M_i+1) / 6.  Its real roots
        strictly inside (0, h_i) and all knots are the candidates, evaluated
        in one call; a tie goes to the smallest t.
        """
        h, Mi, Mj = self.h, self.M[:-1], self.M[1:]
        q2 = (Mj - Mi) / (2.0 * h)
        q0 = np.diff(self.y) / h - h * (2.0 * Mi + Mj) / 6.0
        with np.errstate(divide="ignore", invalid="ignore"):
            # the root of larger magnitude from q, the other as q0 / q: no
            # cancellation, and q2 = 0 leaves only the linear root -q0 / q1
            q = -0.5 * (Mi + np.copysign(np.sqrt(Mi * Mi - 4.0 * q2 * q0), Mi))
            roots = np.stack([q / q2, q0 / q])
        inside = (roots > 0.0) & (roots < h)
        t = np.concatenate([self.x, (self.x[:-1] + roots)[inside]])
        v = self(t)
        k = np.lexsort((t, v))[0]
        return float(t[k]), float(v[k])


def build_driver(driver: LogisticDriver, t_max: float) -> CubicSpline:
    """Natural C2 spline through the logistic knots covering [0, t_max].

    One extra knot interval is added as margin.  Spline overshoot can leave
    the knot band, so positivity over the whole range is checked exactly per
    cubic piece rather than assumed; a nonpositive minimum raises
    NonPositiveF (the modulation depth is too large for this seed).
    """
    if not t_max > 0.0:
        raise InvalidInput(f"t_max must be > 0, got {t_max!r}")
    try:
        n_knots = int(math.ceil(t_max / driver.ts)) + 2
        times = driver.ts * np.arange(n_knots)
        knots = driver.knots(n_knots)
    except (MemoryError, ValueError, OverflowError) as exc:
        raise InvalidInput(
            f"cannot allocate {t_max / driver.ts + 2:.6g} spline knots ({exc})"
        ) from exc
    spline = CubicSpline(times, knots)
    t_min, v_min = spline.piecewise_minimum()
    if v_min <= 0.0:
        raise NonPositiveF(t_min, v_min)
    return spline


def integrate_ermakov(
    driver: LogisticDriver,
    z0: float = 0.2,
    p0: float = 0.0,
    w0: float | None = None,
    dw0: float = 0.0,
    config: IntegrationConfig | None = None,
) -> Trajectory:
    """Lockstep RK4 of z'' = -f z and w'' = -f w + 1/w^3.

    w0 defaults to the near-equilibrium choice f(0)^(-1/4) (for constant f
    that value is an exact fixed point), which avoids large transients.
    Positivity of w is enforced at every stage.
    """
    if config is None:
        config = IntegrationConfig(t_end=200.0)
    f = build_driver(driver, config.plan()[0] * config.h)

    if w0 is None:
        w0 = f(0.0) ** -0.25
    if not (math.isfinite(w0) and w0 > 0.0):
        raise NonPositive("w0", w0)

    t, states, path = _drive("ermakov", f, (z0, p0, w0, dw0), config)
    return Trajectory(
        times=t,
        columns=("t", "f", "z", "p", "w", "dw"),
        data=np.column_stack([t, f(t), states]),
        meta={"system": "ermakov", "driver": driver, "config": config, "w0": w0, "dw0": dw0,
              "kernel": path},
    )


def lewis_invariant(z, p, w, dw):
    """((z/w)^2 + (w p - w' z)^2) / 2; nonnegative, zero only at rest.

    Accepts scalars or arrays; w must be strictly positive.
    """
    w_arr = np.asarray(w, dtype=float)
    if np.any(w_arr <= 0.0):
        raise NonPositive("w", float(w_arr.min()))
    z = np.asarray(z, dtype=float)
    p = np.asarray(p, dtype=float)
    dw = np.asarray(dw, dtype=float)
    value = 0.5 * ((z / w_arr) ** 2 + (w_arr * p - dw * z) ** 2)
    return float(value) if value.ndim == 0 else value
