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
        if not self.ts > 0.0:
            raise InvalidInput(f"ts must be > 0, got {self.ts!r}")
        if not self.f0 > 0.0:
            raise InvalidInput(f"f0 must be > 0, got {self.f0!r}")
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
        self._uniform = bool(np.allclose(h, h[0], rtol=1e-12, atol=0.0))

    def _interval(self, t):
        return np.clip(np.searchsorted(self.x, t, side="right") - 1, 0, len(self.x) - 2)

    def __call__(self, t, deriv: int = 0):
        scalar = np.isscalar(t)
        t = np.asarray(t, dtype=float)
        if np.any(t < self.x[0] - 1e-12) or np.any(t > self.x[-1] + 1e-12):
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

    def eval_scalar(self, t: float) -> float:
        """Scalar value by a uniform-knot shortcut; same value as ``self(t)``.

        Not used by the integrator, which tabulates ``self`` over arrays of
        times; kept because ``bench/tracer.py`` wraps it by name.
        """
        x0 = self.x[0]
        if self._uniform:
            i = int((t - x0) / self.h[0])
            if i < 0:
                i = 0
            last = len(self.x) - 2
            if i > last:
                i = last
        else:
            i = int(self._interval(t))
        h = self.h[i]
        a = self.x[i + 1] - t
        b = t - self.x[i]
        return (
            (self.M[i] * a * a * a + self.M[i + 1] * b * b * b) / (6.0 * h)
            + (self.y[i] / h - self.M[i] * h / 6.0) * a
            + (self.y[i + 1] / h - self.M[i + 1] * h / 6.0) * b
        )

    def piecewise_minimum(self) -> tuple[float, float]:
        """(t_min, value) of the global minimum, exact per cubic piece."""
        best_t = self.x[0]
        best_v = float(self(self.x[0]))
        for i in range(len(self.x) - 1):
            candidates = [self.x[i], self.x[i + 1]]
            # stationary points: quadratic roots of the derivative on [x_i, x_{i+1}]
            c2 = (self.M[i + 1] - self.M[i]) / (2.0 * self.h[i])
            c1 = (self.M[i] * self.x[i + 1] - self.M[i + 1] * self.x[i]) / self.h[i]
            # derivative: c2*t^2 + c1*t + c0 in expanded form
            c0 = (
                (self.M[i + 1] * self.x[i] ** 2 - self.M[i] * self.x[i + 1] ** 2)
                / (2.0 * self.h[i])
                + (self.y[i + 1] - self.y[i]) / self.h[i]
                - (self.M[i + 1] - self.M[i]) * self.h[i] / 6.0
            )
            if c2 != 0.0:
                disc = c1 * c1 - 4.0 * c2 * c0
                if disc >= 0.0:
                    root = math.sqrt(disc)
                    for r in ((-c1 - root) / (2.0 * c2), (-c1 + root) / (2.0 * c2)):
                        if self.x[i] < r < self.x[i + 1]:
                            candidates.append(r)
            elif c1 != 0.0:
                r = -c0 / c1
                if self.x[i] < r < self.x[i + 1]:
                    candidates.append(r)
            for t in candidates:
                v = float(self(t))
                if v < best_v:
                    best_v = v
                    best_t = t
        return best_t, best_v


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
