"""Exception hierarchy shared by all modules, and the one place exit codes live.

A run fails in one of two ways: its inputs lie outside the model's domain
(``InvalidInput``, exit code 2; also a ``ValueError``, so callers that catch
``ValueError`` keep working), or the dynamics left the domain during the run
(every other ``TubeIntError``, exit code 3).  The command line exits with the
``exit_code`` of the error it caught.
"""

from __future__ import annotations


class TubeIntError(Exception):
    """Base class for all library errors; a numerical failure unless overridden."""

    exit_code = 3


class InvalidInput(TubeIntError, ValueError):
    """An argument, parameter or input file lies outside the accepted domain."""

    exit_code = 2


class NonPositive(InvalidInput):
    """A quantity that must be strictly positive is not."""

    def __init__(self, name: str, value: float):
        self.name = name
        self.value = value
        super().__init__(f"{name} must be > 0 and finite, got {value!r}")


class InconsistentEpsilon(InvalidInput):
    """epsilon and (c1, c2, omega) were both supplied and disagree."""

    def __init__(self, given: float, recomputed: float):
        self.given = given
        self.recomputed = recomputed
        super().__init__(
            f"epsilon={given!r} inconsistent with sqrt(c1^2+c2^2)/omega^3={recomputed!r}"
        )


class PositivityViolation(TubeIntError):
    """An integrator stage evaluated a positive solution component at <= 0.

    ``name`` is the component: the coefficient solution y or the auxiliary
    amplitude w.  True solutions are strictly positive; hitting this means the
    step is too large or the parameters left the usable regime.
    """

    def __init__(self, t: float, value: float, name: str = "y"):
        self.t = t
        self.value = value
        self.name = name
        super().__init__(f"{name} <= 0 at an integration stage (t={t!r}, {name}={value!r})")


class NonFinite(TubeIntError):
    """State overflowed or became NaN during integration."""

    def __init__(self, t: float):
        self.t = t
        super().__init__(f"non-finite state at t={t!r}")


class Escape(TubeIntError):
    """|z| exceeded the escape threshold of the cubic potential."""

    def __init__(self, t: float):
        self.t = t
        super().__init__(f"oscillator escaped the cubic potential at t={t!r}")


class NonPositiveF(TubeIntError):
    """Spline overshoot drove the driver coefficient f(t) to <= 0."""

    def __init__(self, t: float, value: float):
        self.t = t
        self.value = value
        super().__init__(
            f"driver coefficient f({t!r}) = {value!r} <= 0; reduce the modulation depth"
        )


class UnsupportedOmega(InvalidInput):
    """Perturbative invariant coefficients are only available for omega = 1."""

    def __init__(self, omega: float):
        self.omega = omega
        super().__init__(f"perturbative invariant coefficients require omega=1, got {omega!r}")


class InsufficientSamples(InvalidInput):
    """A trajectory does not cover the requested window densely enough."""


class InsufficientWindows(InvalidInput):
    """Too few complete windows for a secular fit."""


class OutOfRange(InvalidInput):
    """Logistic seed outside [0, 1]."""

    def __init__(self, value: float):
        self.value = value
        super().__init__(f"logistic seed must lie in [0, 1], got {value!r}")


class MissingInput(InvalidInput):
    """A required input file does not exist."""
