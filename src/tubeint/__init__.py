"""tubeint: simulation and invariant diagnostics for z'' + w^2 z + g(t) z^2 = 0.

The oscillator admits an exact quadratic invariant when g is built from a
solution of a forced third-order coefficient equation; this package
integrates the coupled system, evaluates the exact and third-order
perturbative invariants, and measures the resonance diagnostics that obstruct
periodic coefficients.

The package root holds the names of the README's library example; everything
else is imported from its module (``tubeint.model``, ``tubeint.perturb``, ...).
"""

__version__ = "0.1.0"

from .integrate import IntegrationConfig, integrate_coupled
from .invariant import invariant_exact_series
from .model import SystemParams
from .perturb import validity, y_composite
