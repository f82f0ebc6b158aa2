"""The exact quadratic invariant and its third-order perturbative approximation.

The perturbative coefficient series below were re-derived symbolically from
A4 = -alpha2' and A3 = alpha2 + alpha2''/2 (with alpha2'' reconstructed from
the once-integrated form) and are used in that verified form; tests pin probe
values of every block.  The cross-check invariant_coeffs vs the composite
derivatives holds to O(eps^4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Escape, NonPositiveY, UnsupportedOmega
from .integrate import IntegrationConfig, integrate_coupled, integrate_z, _resolved
from .model import SystemParams, Trajectory, YState, ZState
from .perturb import g_of_t, rho_sum

__all__ = [
    "InvariantCoeffs",
    "TubeFilament",
    "invariant_exact",
    "invariant_exact_series",
    "invariant_coeffs",
    "invariant_value",
    "drift_experiment",
    "exact_drift_experiment",
    "drift_percent",
    "tube_surface_samples",
]

#: |I(0)| below this switches drift reporting to absolute deviations.
DRIFT_GUARD = 1e-12


@dataclass(frozen=True)
class InvariantCoeffs:
    """The six time-dependent coefficients of the quadratic invariant."""

    a1: float
    a2: float
    a3: float
    a4: float
    a5: float
    a6: float


def _alpha1(t, params: SystemParams):
    return 0.5 * (params.c1 * np.cos(params.omega * t) + params.c2 * np.sin(params.omega * t))


def _dalpha1(t, params: SystemParams):
    om = params.omega
    return 0.5 * om * (-params.c1 * np.sin(om * t) + params.c2 * np.cos(om * t))


def invariant_exact(ystate: YState, zstate: ZState, params: SystemParams) -> float:
    """Evaluate the exact invariant from co-integrated state at one time.

    Coefficient derivatives come from the integrated state via the chain rule
    (alpha2'(t) = omega * y'(tau), alpha2''(t) = omega^2 * y''(tau)); the two
    records must refer to the same instant.
    """
    params = _resolved(params)
    om = params.omega
    tau_expected = om * zstate.t
    if abs(ystate.tau - tau_expected) > 1e-9 * max(1.0, abs(tau_expected)):
        raise ValueError(
            f"state records disagree in time: tau={ystate.tau!r} vs omega*t={tau_expected!r}"
        )
    if not ystate.y > 0.0:
        raise NonPositiveY(f"y must be > 0, got {ystate.y!r}")
    y = ystate.y
    z = zstate.z
    p = zstate.p
    t = zstate.t
    a1 = float(_alpha1(t, params))
    da1 = float(_dalpha1(t, params))
    return (
        y * p * p
        - om * ystate.dy * z * p
        + a1 * p
        + om * om * (y + 0.5 * ystate.ddy) * z * z
        - da1 * z
        + (2.0 / 3.0) * y**-1.5 * z**3
    )


def invariant_exact_series(traj: Trajectory, params: SystemParams) -> np.ndarray:
    """Vectorized exact invariant along a coupled trajectory."""
    params = _resolved(params)
    om = params.omega
    t = traj.times
    y = traj.column("y")
    dy = traj.column("dy")
    ddy = traj.column("ddy")
    z = traj.column("z")
    p = traj.column("p")
    if np.any(y <= 0.0):
        raise NonPositiveY("trajectory contains y <= 0 samples")
    return (
        y * p * p
        - om * dy * z * p
        + _alpha1(t, params) * p
        + om * om * (y + 0.5 * ddy) * z * z
        - _dalpha1(t, params) * z
        + (2.0 / 3.0) * y**-1.5 * z**3
    )


def _a31(t, y0: float, eps: float, order: int):
    """Reconstruction series for alpha2''/2, orders eps..eps^order."""
    v = eps * (-np.sin(t) / 6.0 + np.sin(2.0 * t) / 3.0) * y0**-2.5
    if order >= 2:
        v = v + eps**2 * (
            -5.0 / 48.0 * t * np.sin(2.0 * t)
            + 5.0 / 144.0 * np.cos(t)
            + np.cos(2.0 * t) / 36.0
            - np.cos(3.0 * t) / 16.0
        ) * y0**-6.0
    if order >= 3:
        v = v + eps**3 * (
            -25.0 / 2304.0 * t * np.cos(t)
            + 5.0 / 288.0 * t * np.cos(2.0 * t)
            + 5.0 / 256.0 * t * np.cos(3.0 * t)
            - 115.0 / 3456.0 * np.sin(t)
            + 161.0 / 1728.0 * np.sin(2.0 * t)
            - 59.0 / 768.0 * np.sin(3.0 * t)
            + 5.0 / 288.0 * np.sin(4.0 * t)
            - 25.0 / 6912.0 * np.sin(5.0 * t)
        ) * y0**-9.5
    return v


def _a4(t, y0: float, eps: float, order: int):
    """Series for -alpha2', orders eps..eps^order."""
    v = eps * (np.cos(2.0 * t) - np.cos(t)) / 3.0 * y0**-2.5
    if order >= 2:
        v = v + eps**2 * (
            -5.0 / 48.0 * t * np.cos(2.0 * t)
            - 5.0 / 72.0 * np.sin(t)
            + 7.0 / 288.0 * np.sin(2.0 * t)
            + np.sin(3.0 * t) / 24.0
        ) * y0**-6.0
    if order >= 3:
        v = v + eps**3 * (
            25.0 / 1152.0 * t * np.sin(t)
            - 5.0 / 288.0 * t * np.sin(2.0 * t)
            - 5.0 / 384.0 * t * np.sin(3.0 * t)
            - 155.0 / 3456.0 * np.cos(t)
            + 73.0 / 864.0 * np.cos(2.0 * t)
            - np.cos(3.0 * t) / 18.0
            + 5.0 / 576.0 * np.cos(4.0 * t)
            - 5.0 / 3456.0 * np.cos(5.0 * t)
            + 5.0 / 576.0
        ) * y0**-9.5
    return v


def _coeff_arrays(t, params: SystemParams, order: int):
    """All six coefficient series at the given times (vectorized)."""
    params = _resolved(params)
    if params.omega != 1.0:
        raise UnsupportedOmega(params.omega)
    if not params.is_canonical:
        raise ValueError("perturbative invariant coefficients require c2=0, c1>=0")
    if order not in (1, 2, 3):
        raise ValueError(f"order must be 1, 2 or 3, got {order!r}")
    t = np.asarray(t, dtype=float)
    eps = params.epsilon
    y0 = params.y0
    a1 = 0.5 * eps * np.sin(t)
    a2 = 0.5 * eps * np.cos(t)
    a5 = y0 * np.exp(rho_sum(t, y0, eps, order))
    a3 = _a31(t, y0, eps, order) + a5
    a4 = _a4(t, y0, eps, order)
    a6 = (2.0 / 3.0) * a5**-1.5
    return a1, a2, a3, a4, a5, a6


def invariant_coeffs(t: float, params: SystemParams, order: int = 3) -> InvariantCoeffs:
    """Perturbative invariant coefficients at physical time t (omega = 1 only)."""
    a = _coeff_arrays(t, params, order)
    return InvariantCoeffs(*(float(v) for v in a))


def invariant_value(coeffs: InvariantCoeffs, z: float, p: float) -> float:
    """A1 z + A2 p + A3 z^2 + A4 z p + A5 p^2 + A6 z^3."""
    return (
        coeffs.a1 * z
        + coeffs.a2 * p
        + coeffs.a3 * z * z
        + coeffs.a4 * z * p
        + coeffs.a5 * p * p
        + coeffs.a6 * z**3
    )


def drift_percent(values: np.ndarray, guard: float = DRIFT_GUARD) -> tuple[np.ndarray, bool]:
    """Deviation-from-initial series; percent of |I(0)|, or absolute when tiny.

    Returns (drift, absolute_mode); absolute_mode=True means |I(0)| < guard
    and the series holds |I - I(0)| instead of percentages.
    """
    i0 = float(values[0])
    dev = np.abs(values - i0)
    if abs(i0) < guard:
        return dev, True
    return 100.0 * dev / abs(i0), False


def drift_experiment(
    params: SystemParams,
    z0: float = 0.2,
    p0: float = 0.0,
    t_end: float = 500.0,
    order: int = 3,
    h: float = 1e-3,
    record_every: int = 100,
) -> Trajectory:
    """Drift of the perturbative invariant along an oscillator integrated with
    the order-matched coefficient g(t).

    Returns a trajectory with columns (t, I, drift_pct); meta carries both the
    max and the final drift plus the absolute-mode flag for near-zero initial
    values.
    """
    params = _resolved(params)
    if params.omega != 1.0:
        raise UnsupportedOmega(params.omega)
    cfg = IntegrationConfig(t_end=t_end, h=h, record_every=record_every)
    ztraj = integrate_z(lambda t: g_of_t(t, params, order), z0, p0, params.omega, cfg)
    if ztraj.meta.get("escaped"):
        raise Escape(ztraj.meta["escape_t"])
    t = ztraj.times
    a1, a2, a3, a4, a5, a6 = _coeff_arrays(t, params, order)
    z = ztraj.column("z")
    p = ztraj.column("p")
    values = a1 * z + a2 * p + a3 * z * z + a4 * z * p + a5 * p * p + a6 * z**3
    drift, absolute = drift_percent(values)
    data = np.column_stack([t, values, drift])
    return Trajectory(
        t0=0.0,
        h=ztraj.h,
        columns=("t", "I", "drift_pct"),
        data=data,
        meta={
            "mode": "perturbative",
            "order": order,
            "params": params,
            "config": cfg,
            "max_drift_pct": float(np.max(drift)),
            "final_drift_pct": float(drift[-1]),
            "absolute_mode": absolute,
        },
    )


def exact_drift_experiment(
    params: SystemParams,
    z0: float = 0.2,
    p0: float = 0.0,
    t_end: float = 500.0,
    h: float = 1e-3,
    record_every: int = 100,
) -> Trajectory:
    """Drift of the exact invariant along the lockstep-coupled integration.

    Conservation is analytically exact here, so the reported drift measures
    integrator error and scales as O(h^4).
    """
    params = _resolved(params)
    cfg = IntegrationConfig(t_end=t_end, h=h, record_every=record_every)
    traj = integrate_coupled(params, z0, p0, cfg)
    if traj.meta.get("escaped"):
        raise Escape(traj.meta["escape_t"])
    values = invariant_exact_series(traj, params)
    drift, absolute = drift_percent(values)
    data = np.column_stack([traj.times, values, drift])
    return Trajectory(
        t0=0.0,
        h=traj.h,
        columns=("t", "I", "drift_pct"),
        data=data,
        meta={
            "mode": "exact",
            "params": params,
            "config": cfg,
            "max_drift_pct": float(np.max(drift)),
            "final_drift_pct": float(drift[-1]),
            "absolute_mode": absolute,
        },
    )


@dataclass(frozen=True)
class TubeFilament:
    """One trajectory on the invariant surface, tagged with its level value K."""

    z0: float
    p0: float
    K: float
    t: np.ndarray
    z: np.ndarray
    p: np.ndarray
    max_abs_deviation: float


def tube_surface_samples(
    params: SystemParams,
    z0_grid,
    p0_grid,
    t_end: float,
    h: float = 1e-3,
    record_every: int = 100,
) -> list[TubeFilament]:
    """Sample the invariant level sets: one filament per initial condition.

    For each (z0, p0) in the Cartesian product of the grids, integrates the
    coupled system and tags the (z, p, t) triples with the conserved value K;
    this is the data behind the tube visualization.
    """
    params = _resolved(params)
    z0_grid = np.atleast_1d(np.asarray(z0_grid, dtype=float))
    p0_grid = np.atleast_1d(np.asarray(p0_grid, dtype=float))
    if z0_grid.size == 0 or p0_grid.size == 0:
        raise ValueError("initial-condition grids must be nonempty")
    cfg = IntegrationConfig(t_end=t_end, h=h, record_every=record_every)
    filaments = []
    for z0 in z0_grid:
        for p0 in p0_grid:
            traj = integrate_coupled(params, float(z0), float(p0), cfg)
            if traj.meta.get("escaped"):
                raise Escape(traj.meta["escape_t"])
            values = invariant_exact_series(traj, params)
            K = float(values[0])
            filaments.append(
                TubeFilament(
                    z0=float(z0),
                    p0=float(p0),
                    K=K,
                    t=traj.times,
                    z=traj.column("z").copy(),
                    p=traj.column("p").copy(),
                    max_abs_deviation=float(np.max(np.abs(values - K))),
                )
            )
    return filaments
