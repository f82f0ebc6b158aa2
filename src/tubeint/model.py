"""Model parameters and the recorded trajectory.

Both are frozen dataclasses, safe to share between threads.  Parameters are
valid by construction: ``SystemParams`` resolves and checks its fields when it
is built, so every record that exists describes one system.  A trajectory
holds the sample times exactly as the integrator produced them, next to its
data.
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
    Any of the three may be left ``None``: construction resolves and checks
    them, so every record is valid.  Given c1 or c2 (a missing one is 0),
    epsilon is derived, and a given epsilon must agree within
    ``EPSILON_RTOL`` relative; it is then kept, so a record rebuilt from its
    own fields is equal.  Given only epsilon, c1 = epsilon*omega^3 carries
    its sign, c2 = 0 and epsilon is stored as |epsilon|.

    Raises NonPositive for omega or y0, InconsistentEpsilon, and InvalidInput
    for any other value the model cannot represent: a non-finite field, an
    omega^3 that overflows or underflows to 0, a derived c1 or epsilon that
    is not finite, a derived c1 that underflows to 0.  Nonzero yp0/ypp0 are
    accepted with a warning.
    """

    omega: float = 1.0
    c1: float | None = None
    c2: float | None = None
    epsilon: float | None = None
    y0: float = 1.0
    yp0: float = 0.0
    ypp0: float = 0.0

    def __post_init__(self):
        omega = float(self.omega)
        y0 = float(self.y0)
        yp0 = float(self.yp0)
        ypp0 = float(self.ypp0)
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
        given = None if self.epsilon is None else float(self.epsilon)
        if given is not None and not math.isfinite(given):
            raise InvalidInput(f"epsilon must be finite, got {given!r}")

        if self.c1 is not None or self.c2 is not None:
            c1 = 0.0 if self.c1 is None else float(self.c1)
            c2 = 0.0 if self.c2 is None else float(self.c2)
            if not (math.isfinite(c1) and math.isfinite(c2)):
                raise InvalidInput(f"c1/c2 must be finite, got {c1!r}, {c2!r}")
            epsilon = math.hypot(c1, c2) / omega3
            if not math.isfinite(epsilon):
                raise InvalidInput(f"derived epsilon=sqrt(c1^2+c2^2)/omega^3 is not finite, "
                                   f"got c1={c1!r}, c2={c2!r}, omega={omega!r}")
            if given is not None:
                if abs(given - epsilon) > EPSILON_RTOL * max(abs(given), abs(epsilon)):
                    raise InconsistentEpsilon(given, epsilon)
                epsilon = abs(given)
        elif given is not None:
            c1 = given * omega3
            if not math.isfinite(c1) or (c1 == 0.0) != (given == 0.0):
                raise InvalidInput(f"derived c1=epsilon*omega^3 is not finite or underflows to 0, "
                                   f"got epsilon={given!r}, omega={omega!r}")
            c2 = 0.0
            epsilon = abs(given)
        else:
            c1 = c2 = epsilon = 0.0

        if yp0 != 0.0 or ypp0 != 0.0:
            warnings.warn(
                "nonzero yp0/ypp0 accepted, but the closed-form series assume "
                "y'(0) = y''(0) = 0; series-based results will not apply",
                stacklevel=3,
            )
        for name, value in (("omega", omega), ("c1", c1), ("c2", c2), ("epsilon", epsilon),
                            ("y0", y0), ("yp0", yp0), ("ypp0", ypp0)):
            object.__setattr__(self, name, value)

    @property
    def eps_eff(self) -> float:
        """Expansion parameter delta = epsilon * y0^(-7/2); 0 when unforced, inf on overflow."""
        if self.epsilon == 0.0:
            return 0.0
        try:
            return self.epsilon * self.y0 ** -3.5
        except OverflowError:
            return math.inf

    @property
    def is_canonical(self) -> bool:
        """True when the forcing is the single-cosine form eps*cos(tau) (c2=0, c1>=0)."""
        return self.c2 == 0.0 and self.c1 >= 0.0


def validate_params(params: SystemParams) -> SystemParams:
    """``params`` itself: a ``SystemParams`` is validated when it is built."""
    return params


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
        if name not in self.columns:
            raise InvalidInput(f"no column {name!r}; the trajectory has {', '.join(self.columns)}")
        return self.data[:, self.columns.index(name)]
