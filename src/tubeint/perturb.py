"""Closed-form perturbation series for the coefficient function.

Everything here works in rescaled time and assumes the canonical single-cosine
forcing orientation (c2 = 0, c1 >= 0) with initial data y'(0) = y''(0) = 0;
records produced by ``validate_params`` from an epsilon-only input satisfy
both.  Truncation order is an explicit argument (1, 2 or 3) everywhere.

The composite keeps the exponential ansatz y = y0 * exp(rho), so it is
strictly positive by construction.  The second derivative is reconstructed
from the once-integrated (Volterra) form with a term-by-term closed-form
integral of the series-expanded integrand, never by differentiating truncated
expressions numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .model import SystemParams
from .integrate import _resolved

__all__ = [
    "rho1",
    "rho2",
    "rho3",
    "drho1",
    "drho2",
    "drho3",
    "rho_sum",
    "y_composite",
    "g_of_t",
    "alpha2_derivatives",
    "validity",
    "ValidityWindow",
    "equation_residual",
]


def _require_canonical(params: SystemParams) -> SystemParams:
    params = _resolved(params)
    if not params.is_canonical:
        raise InvalidInput(
            "series functions require the canonical forcing orientation (c2=0, c1>=0)"
        )
    return params


def rho1(tau, y0):
    """First-order term: y0^(-7/2) * (sin(tau)/3 - sin(2 tau)/6)."""
    tau = np.asarray(tau, dtype=float)
    return y0**-3.5 * (np.sin(tau) / 3.0 - np.sin(2.0 * tau) / 6.0)


def drho1(tau, y0):
    tau = np.asarray(tau, dtype=float)
    return y0**-3.5 * (np.cos(tau) - np.cos(2.0 * tau)) / 3.0


def rho2(tau, y0):
    """Second-order term; the tau*sin(2 tau) piece is the 2:1 secular response."""
    tau = np.asarray(tau, dtype=float)
    return y0**-7.0 * (
        -5.0 / 288.0
        - np.cos(tau) / 24.0
        + 19.0 / 288.0 * np.cos(2.0 * tau)
        - np.cos(3.0 * tau) / 72.0
        + np.cos(4.0 * tau) / 144.0
        + 5.0 / 96.0 * tau * np.sin(2.0 * tau)
    )


def drho2(tau, y0):
    tau = np.asarray(tau, dtype=float)
    return y0**-7.0 * (
        np.sin(tau) / 24.0
        - 23.0 / 288.0 * np.sin(2.0 * tau)
        + np.sin(3.0 * tau) / 24.0
        - np.sin(4.0 * tau) / 36.0
        + 5.0 / 48.0 * tau * np.cos(2.0 * tau)
    )


def rho3(tau, y0):
    """Third-order term: five secular tau-proportional terms plus six harmonics."""
    tau = np.asarray(tau, dtype=float)
    return (
        -11.25 * tau
        + 33.75 * tau * np.cos(tau)
        - 22.5 * tau * np.cos(2.0 * tau)
        + 11.25 * tau * np.cos(3.0 * tau)
        - 11.25 * tau * np.cos(4.0 * tau)
        + 79.5 * np.sin(tau)
        - 81.75 * np.sin(2.0 * tau)
        + 18.25 * np.sin(3.0 * tau)
        + 8.625 * np.sin(4.0 * tau)
        - 2.25 * np.sin(5.0 * tau)
        + np.sin(6.0 * tau)
    ) / (2592.0 * y0**10.5)


def drho3(tau, y0):
    tau = np.asarray(tau, dtype=float)
    return (
        -11.25
        + 113.25 * np.cos(tau)
        - 186.0 * np.cos(2.0 * tau)
        + 66.0 * np.cos(3.0 * tau)
        + 23.25 * np.cos(4.0 * tau)
        - 11.25 * np.cos(5.0 * tau)
        + 6.0 * np.cos(6.0 * tau)
        - 33.75 * tau * np.sin(tau)
        + 45.0 * tau * np.sin(2.0 * tau)
        - 33.75 * tau * np.sin(3.0 * tau)
        + 45.0 * tau * np.sin(4.0 * tau)
    ) / (2592.0 * y0**10.5)


def rho_sum(tau, y0: float, eps: float, order: int):
    """eps*rho1 + ... up to the requested truncation order."""
    if order not in (1, 2, 3):
        raise InvalidInput(f"order must be 1, 2 or 3, got {order!r}")
    r = eps * rho1(tau, y0)
    if order >= 2:
        r = r + eps**2 * rho2(tau, y0)
    if order >= 3:
        r = r + eps**3 * rho3(tau, y0)
    return r


def _drho_sum(tau, y0: float, eps: float, order: int):
    d = eps * drho1(tau, y0)
    if order >= 2:
        d = d + eps**2 * drho2(tau, y0)
    if order >= 3:
        d = d + eps**3 * drho3(tau, y0)
    return d


def y_composite(tau, params: SystemParams, order: int = 3):
    """Composite y0 * exp(sum eps^n rho_n), strictly positive by construction."""
    params = _require_canonical(params)
    return params.y0 * np.exp(rho_sum(tau, params.y0, params.epsilon, order))


def g_of_t(t, params: SystemParams, order: int = 3):
    """Coefficient g(t) = y(omega t)^(-5/2) built from the composite."""
    params = _require_canonical(params)
    return y_composite(params.omega * np.asarray(t, dtype=float), params, order) ** -2.5


# Closed-form pieces of the once-integrated forcing term: the integral over
# [0, tau] of the series-expanded y^(-5/2) times cos, by expansion level.
def _volterra_level1(tau, y0):
    # integral of (-5/2) rho1 * cos
    return (
        5.0 / 72.0
        - 5.0 / 24.0 * np.cos(tau)
        + 5.0 / 24.0 * np.cos(2.0 * tau)
        - 5.0 / 72.0 * np.cos(3.0 * tau)
    ) * y0**-3.5


def _volterra_level2(tau, y0):
    # integral of ((25/8) rho1^2 - (5/2) rho2) * cos
    return (
        25.0 / 384.0 * tau * np.cos(tau)
        + 25.0 / 1152.0 * tau * np.cos(3.0 * tau)
        - 5.0 / 144.0 * tau
        + 5.0 / 192.0 * np.sin(tau)
        + 5.0 / 144.0 * np.sin(2.0 * tau)
        - 85.0 / 1152.0 * np.sin(3.0 * tau)
        + 5.0 / 192.0 * np.sin(4.0 * tau)
        - 7.0 / 1152.0 * np.sin(5.0 * tau)
    ) * y0**-7.0


def volterra_series(tau, y0: float, eps: float, order: int):
    """Closed-form J(tau) = integral of the expanded y^(-5/2) cos, order-matched.

    The integrand is expanded through eps^(order-1) so that eps*J carries the
    full eps^order information of the second derivative.
    """
    tau = np.asarray(tau, dtype=float)
    J = np.sin(tau) + np.zeros_like(tau)
    if order >= 2:
        J = J + eps * _volterra_level1(tau, y0)
    if order >= 3:
        J = J + eps**2 * _volterra_level2(tau, y0)
    return y0**-2.5 * J


def alpha2_derivatives(tau, params: SystemParams, order: int = 3):
    """(alpha2', alpha2'') of the composite at rescaled time tau.

    alpha2' is the exact logarithmic derivative of the truncated composite;
    alpha2'' comes from the once-integrated form
    alpha2'' = 4 (y0 - alpha2) + eps * J with J in closed form, which avoids
    amplifying truncation error by repeated differentiation.
    """
    params = _require_canonical(params)
    y0 = params.y0
    eps = params.epsilon
    yc = y_composite(tau, params, order)
    d1 = yc * _drho_sum(tau, y0, eps, order)
    d2 = 4.0 * (y0 - yc) + eps * volterra_series(tau, y0, eps, order)
    return d1, d2


@dataclass(frozen=True)
class ValidityWindow:
    """Practical horizon of the truncated series and the true small parameter."""

    tau_star: float
    eps_eff: float


def validity(params: SystemParams) -> ValidityWindow:
    """tau* = 96 y0^6 / (5 eps^2) (infinite when unforced) and eps_eff = eps y0^(-7/2)."""
    params = _resolved(params)
    eps = params.epsilon
    y0 = params.y0
    eps2 = eps**2  # zero also when eps^2 underflows; tau* is then beyond any float
    tau_star = math.inf if eps2 == 0.0 else 96.0 * y0**6 / (5.0 * eps2)
    return ValidityWindow(tau_star=tau_star, eps_eff=eps * y0**-3.5)


def equation_residual(tau, params: SystemParams, order: int = 3, dtau: float = 2e-3):
    """Residual y''' + 4 y' - eps cos(tau) y^(-5/2) of the composite.

    Derivatives are taken by 5-point central differences so the check is
    independent of the closed-form derivative chain; the residual of the
    order-3 composite is O(eps^4).
    """
    params = _require_canonical(params)
    tau = np.asarray(tau, dtype=float)
    ym2 = y_composite(tau - 2.0 * dtau, params, order)
    ym1 = y_composite(tau - dtau, params, order)
    yc = y_composite(tau, params, order)
    yp1 = y_composite(tau + dtau, params, order)
    yp2 = y_composite(tau + 2.0 * dtau, params, order)
    d1 = (-yp2 + 8.0 * yp1 - 8.0 * ym1 + ym2) / (12.0 * dtau)
    d3 = (yp2 - 2.0 * yp1 + 2.0 * ym1 - ym2) / (2.0 * dtau**3)
    return d3 + 4.0 * d1 - params.epsilon * np.cos(tau) * yc**-2.5
