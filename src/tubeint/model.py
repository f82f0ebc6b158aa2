"""Validated parameter and state records, and the sampled trajectory.

All records are frozen dataclasses: safe to share between threads, hashable
where the fields allow it, and compared by value so validation is idempotent.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import InconsistentEpsilon, NonPositive, NonPositiveY

#: Relative tolerance for the epsilon == sqrt(c1^2+c2^2)/omega^3 consistency check.
EPSILON_RTOL = 1e-12


@dataclass(frozen=True)
class SystemParams:
    """Model constants for z'' + omega^2 z + g(t) z^2 = 0 and its coefficient equation.

    ``c1``/``c2`` are the forcing coefficients of the third-order coefficient
    equation; ``epsilon`` is the reduced strength sqrt(c1^2+c2^2)/omega^3.
    Any of the three may be left ``None`` at construction; ``validate_params``
    resolves the missing ones and checks consistency.
    """

    omega: float = 1.0
    c1: float | None = None
    c2: float | None = None
    epsilon: float | None = None
    y0: float = 1.0
    yp0: float = 0.0
    ypp0: float = 0.0

    @property
    def forcing_amplitude(self) -> float:
        """C = sqrt(c1^2 + c2^2). Requires a resolved record."""
        return math.hypot(self.c1 or 0.0, self.c2 or 0.0)

    @property
    def eps_eff(self) -> float:
        """Effective expansion parameter epsilon * y0^(-7/2)."""
        if self.epsilon is None:
            raise ValueError("epsilon unresolved; call validate_params first")
        return self.epsilon * self.y0 ** -3.5

    @property
    def is_canonical(self) -> bool:
        """True when the forcing is the single-cosine form eps*cos(tau) (c2=0, c1>=0)."""
        return (self.c2 or 0.0) == 0.0 and (self.c1 or 0.0) >= 0.0


def validate_params(raw: SystemParams) -> SystemParams:
    """Resolve and validate a parameter record.

    epsilon is recomputed from (c1, c2, omega) when either forcing coefficient
    is given; when only epsilon is given, c1 is set to epsilon*omega^3 and
    c2 to 0.  Returns a fully resolved record; idempotent.

    Raises NonPositive for omega or y0, InconsistentEpsilon when both epsilon
    and (c1, c2) are supplied and disagree beyond ``EPSILON_RTOL`` relative.
    """
    omega = float(raw.omega)
    y0 = float(raw.y0)
    yp0 = float(raw.yp0)
    ypp0 = float(raw.ypp0)
    if not (math.isfinite(omega) and omega > 0.0):
        raise NonPositive("omega", omega)
    if not (math.isfinite(y0) and y0 > 0.0):
        raise NonPositive("y0", y0)
    if not (math.isfinite(yp0) and math.isfinite(ypp0)):
        raise ValueError(f"yp0/ypp0 must be finite, got {yp0!r}, {ypp0!r}")

    has_c = raw.c1 is not None or raw.c2 is not None
    if has_c:
        c1 = float(raw.c1) if raw.c1 is not None else 0.0
        c2 = float(raw.c2) if raw.c2 is not None else 0.0
        if not (math.isfinite(c1) and math.isfinite(c2)):
            raise ValueError(f"c1/c2 must be finite, got {c1!r}, {c2!r}")
        epsilon = math.hypot(c1, c2) / omega**3
        if raw.epsilon is not None:
            given = float(raw.epsilon)
            if abs(given - epsilon) > EPSILON_RTOL * max(abs(given), abs(epsilon)):
                raise InconsistentEpsilon(given, epsilon)
    elif raw.epsilon is not None:
        eps_signed = float(raw.epsilon)
        if not math.isfinite(eps_signed):
            raise ValueError(f"epsilon must be finite, got {eps_signed!r}")
        # The sign lives in c1; the stored epsilon is the amplitude C/omega^3 >= 0.
        c1 = eps_signed * omega**3
        c2 = 0.0
        epsilon = abs(eps_signed)
    else:
        c1 = c2 = 0.0
        epsilon = 0.0

    if yp0 != 0.0 or ypp0 != 0.0:
        warnings.warn(
            "nonzero yp0/ypp0 accepted, but the closed-form series assume "
            "y'(0) = y''(0) = 0; series-based results will not apply",
            stacklevel=2,
        )
    return SystemParams(omega=omega, c1=c1, c2=c2, epsilon=epsilon, y0=y0, yp0=yp0, ypp0=ypp0)


@dataclass(frozen=True)
class YState:
    """Coefficient-subsystem state at one rescaled time.

    ``volterra`` is the running history integral J(tau) of y^(-5/2) times the
    unit forcing profile, carried as a first-class state component.
    """

    tau: float
    y: float
    dy: float
    ddy: float
    volterra: float

    def __post_init__(self):
        if not (self.y > 0.0):
            raise NonPositiveY(f"y must be > 0, got {self.y!r} at tau={self.tau!r}")


@dataclass(frozen=True)
class ZState:
    """Oscillator state (z, p = z') at one physical time."""

    t: float
    z: float
    p: float

    def __post_init__(self):
        if not (math.isfinite(self.z) and math.isfinite(self.p)):
            raise ValueError(f"non-finite oscillator state at t={self.t!r}")


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled time series.

    ``data`` has one row per sample at t0 + k*h and one column per name in
    ``columns``.  The array is made read-only; ``meta`` carries run metadata
    (parameters, step size, flags) and never affects numerical content.
    """

    t0: float
    h: float
    columns: tuple[str, ...]
    data: np.ndarray
    meta: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if not self.h > 0.0:
            raise ValueError(f"sample spacing must be > 0, got {self.h!r}")
        if self.data.ndim != 2 or self.data.shape[1] != len(self.columns):
            raise ValueError("data shape does not match columns")
        if len(self.data) < 2:
            raise ValueError("a trajectory needs at least 2 samples")
        self.data.setflags(write=False)

    def __len__(self) -> int:
        return len(self.data)

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.h * np.arange(len(self.data))

    def column(self, name: str) -> np.ndarray:
        return self.data[:, self.columns.index(name)]

    def row(self, i: int) -> dict[str, float]:
        return dict(zip(self.columns, (float(v) for v in self.data[i])))
