"""Validated model parameters and the recorded trajectory.

Both are frozen dataclasses, safe to share between threads.  Parameters are
compared by value, so validation is idempotent.  A trajectory holds the
sample times exactly as the integrator produced them, next to its data.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import InconsistentEpsilon, InvalidInput, NonPositive

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
    def eps_eff(self) -> float:
        """Expansion parameter delta = epsilon * y0^(-7/2); 0 when unforced, inf on overflow."""
        if self.epsilon is None:
            raise InvalidInput("epsilon unresolved; call validate_params first")
        if self.epsilon == 0.0:
            return 0.0
        try:
            return self.epsilon * self.y0 ** -3.5
        except OverflowError:
            return math.inf

    @property
    def is_canonical(self) -> bool:
        """True when the forcing is the single-cosine form eps*cos(tau) (c2=0, c1>=0)."""
        return (self.c2 or 0.0) == 0.0 and (self.c1 or 0.0) >= 0.0


def validate_params(raw: SystemParams) -> SystemParams:
    """Resolve and validate a parameter record.

    epsilon is recomputed from (c1, c2, omega) when either forcing coefficient
    is given; when only epsilon is given, c1 is set to epsilon*omega^3 and
    c2 to 0.  Returns a fully resolved record; idempotent.

    Raises NonPositive for omega or y0, InvalidInput when omega^3 overflows
    or underflows to 0 or a derived c1 or epsilon is not finite, and
    InconsistentEpsilon when both epsilon and (c1, c2) are supplied and
    disagree beyond ``EPSILON_RTOL`` relative.
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
        raise InvalidInput(f"yp0/ypp0 must be finite, got {yp0!r}, {ypp0!r}")
    try:
        omega3 = omega**3
    except OverflowError:
        omega3 = math.inf
    if not (0.0 < omega3 < math.inf):
        raise InvalidInput(f"omega^3 must be > 0 and finite, got omega={omega!r}")

    has_c = raw.c1 is not None or raw.c2 is not None
    if has_c:
        c1 = float(raw.c1) if raw.c1 is not None else 0.0
        c2 = float(raw.c2) if raw.c2 is not None else 0.0
        if not (math.isfinite(c1) and math.isfinite(c2)):
            raise InvalidInput(f"c1/c2 must be finite, got {c1!r}, {c2!r}")
        epsilon = math.hypot(c1, c2) / omega3
        if not math.isfinite(epsilon):
            raise InvalidInput(f"derived epsilon=sqrt(c1^2+c2^2)/omega^3 is not finite, "
                               f"got c1={c1!r}, c2={c2!r}, omega={omega!r}")
        if raw.epsilon is not None:
            given = float(raw.epsilon)
            if abs(given - epsilon) > EPSILON_RTOL * max(abs(given), abs(epsilon)):
                raise InconsistentEpsilon(given, epsilon)
    elif raw.epsilon is not None:
        eps_signed = float(raw.epsilon)
        if not math.isfinite(eps_signed):
            raise InvalidInput(f"epsilon must be finite, got {eps_signed!r}")
        # The sign lives in c1; the stored epsilon is the amplitude C/omega^3 >= 0.
        c1 = eps_signed * omega3
        if not math.isfinite(c1):
            raise InvalidInput(f"derived c1=epsilon*omega^3 is not finite, "
                               f"got epsilon={eps_signed!r}, omega={omega!r}")
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
class Trajectory:
    """Time series recorded by an integrator.

    ``times`` holds the time of each sample (rescaled time for the
    coefficient system); ``data`` has one row per sample and one column per
    name in ``columns``.  Both arrays are made read-only; ``meta`` carries run
    metadata (parameters, configuration) and never affects numerical content.
    """

    times: np.ndarray
    columns: tuple[str, ...]
    data: np.ndarray
    meta: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.data.ndim != 2 or self.data.shape[1] != len(self.columns):
            raise InvalidInput("data shape does not match columns")
        if len(self.data) < 2:
            raise InvalidInput("a trajectory needs at least 2 samples")
        if self.times.shape != (len(self.data),):
            raise InvalidInput("times must be 1-D with one entry per sample")
        if not np.all(np.diff(self.times) > 0.0):
            raise InvalidInput("times must be strictly increasing")
        self.times.setflags(write=False)
        self.data.setflags(write=False)

    def __len__(self) -> int:
        return len(self.data)

    def column(self, name: str) -> np.ndarray:
        return self.data[:, self.columns.index(name)]
