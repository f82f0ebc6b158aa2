"""The exact quadratic invariant and its third-order perturbative approximation.

The perturbative coefficients A4 = -alpha2' and A3 = alpha2 + alpha2''/2 (with
alpha2'' reconstructed from the once-integrated form) are delta-series that
``tubeint.perturb`` derives from the same recursion as the composite; tests pin
probe values of every order.  They agree with the composite derivatives to
O(eps^4).

Each invariant is evaluated once, vectorised over a whole trajectory at the
trajectory's own sample times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NonPositive, UnsupportedOmega
from .integrate import IntegrationConfig, integrate_coupled, integrate_z
from .model import SystemParams, Trajectory
from .perturb import ORDER, _prepare, _sum, g_of_t

__all__ = [
    "TubeFilament",
    "invariant_exact_series",
    "drift_experiment",
    "exact_drift_experiment",
    "drift_percent",
    "tube_surface_samples",
]

#: |I(0)| below this switches drift reporting to absolute deviations.
DRIFT_GUARD = 1e-12


def _alpha1(t, params: SystemParams):
    return 0.5 * (params.c1 * np.cos(params.omega * t) + params.c2 * np.sin(params.omega * t))


def _dalpha1(t, params: SystemParams):
    om = params.omega
    return 0.5 * om * (-params.c1 * np.sin(om * t) + params.c2 * np.cos(om * t))


def invariant_exact_series(traj: Trajectory, params: SystemParams) -> np.ndarray:
    """Exact invariant along a coupled trajectory, at its sample times.

    Coefficient derivatives come from the integrated state via the chain rule
    (alpha2'(t) = omega * y'(tau), alpha2''(t) = omega^2 * y''(tau)).
    """
    om = params.omega
    t = traj.times
    y = traj.column("y")
    dy = traj.column("dy")
    ddy = traj.column("ddy")
    z = traj.column("z")
    p = traj.column("p")
    if np.any(y <= 0.0):
        raise NonPositive("y", float(y.min()))
    return (
        y * p * p
        - om * dy * z * p
        + _alpha1(t, params) * p
        + om * om * (y + 0.5 * ddy) * z * z
        - _dalpha1(t, params) * z
        + (2.0 / 3.0) * y**-1.5 * z**3
    )


def _coeff_arrays(t, params: SystemParams, order: int):
    """All six coefficient series at the given times (vectorized)."""
    weights = _prepare(params, order)
    if params.omega != 1.0:
        raise UnsupportedOmega(params.omega)
    t = np.asarray(t, dtype=float)
    eps = params.epsilon
    y0 = params.y0
    a1 = 0.5 * eps * np.sin(t)
    a2 = 0.5 * eps * np.cos(t)
    rho, a31, a4 = _sum(t, ("rho", weights), ("a31", weights), ("a4", weights))
    a5 = y0 * np.exp(rho)
    a3 = y0 * a31 + a5
    a4 = y0 * a4
    a6 = (2.0 / 3.0) * a5**-1.5
    return a1, a2, a3, a4, a5, a6


def drift_percent(values: np.ndarray) -> tuple[np.ndarray, bool]:
    """Deviation-from-initial series; percent of |I(0)|, or absolute when tiny.

    Returns (drift, absolute_mode); absolute_mode=True means |I(0)| < DRIFT_GUARD
    and the series holds |I - I(0)| instead of percentages.
    """
    i0 = float(values[0])
    dev = np.abs(values - i0)
    if abs(i0) < DRIFT_GUARD:
        return dev, True
    return 100.0 * dev / abs(i0), False


def _drift_trajectory(t: np.ndarray, values: np.ndarray, meta: dict) -> Trajectory:
    """The (t, I, drift_pct) result of a drift experiment; meta gains the max
    and final drift and the absolute-mode flag."""
    drift, absolute = drift_percent(values)
    return Trajectory(
        times=t,
        columns=("t", "I", "drift_pct"),
        data=np.column_stack([t, values, drift]),
        meta={
            **meta,
            "max_drift_pct": float(np.max(drift)),
            "final_drift_pct": float(drift[-1]),
            "absolute_mode": absolute,
        },
    )


def drift_experiment(
    params: SystemParams,
    z0: float = 0.2,
    p0: float = 0.0,
    t_end: float = 500.0,
    order: int = ORDER,
    h: float = 1e-3,
    record_every: int = 100,
) -> Trajectory:
    """Drift of the perturbative invariant along an oscillator integrated with
    the order-matched coefficient g(t).

    Returns a trajectory with columns (t, I, drift_pct); meta carries both the
    max and the final drift plus the absolute-mode flag for near-zero initial
    values.
    """
    if params.omega != 1.0:
        raise UnsupportedOmega(params.omega)
    cfg = IntegrationConfig(t_end=t_end, h=h, record_every=record_every)
    ztraj = integrate_z(lambda t: g_of_t(t, params, order), z0, p0, params.omega, cfg)
    a1, a2, a3, a4, a5, a6 = _coeff_arrays(ztraj.times, params, order)
    z = ztraj.column("z")
    p = ztraj.column("p")
    values = a1 * z + a2 * p + a3 * z * z + a4 * z * p + a5 * p * p + a6 * z**3
    meta = {"mode": "perturbative", "order": order, "params": params, "config": cfg,
            "kernel": ztraj.meta["kernel"]}
    return _drift_trajectory(ztraj.times, values, meta)


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
    cfg = IntegrationConfig(t_end=t_end, h=h, record_every=record_every)
    traj = integrate_coupled(params, z0, p0, cfg)
    values = invariant_exact_series(traj, params)
    meta = {"mode": "exact", "params": params, "config": cfg, "kernel": traj.meta["kernel"]}
    return _drift_trajectory(traj.times, values, meta)


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
    z0_grid = np.atleast_1d(np.asarray(z0_grid, dtype=float))
    p0_grid = np.atleast_1d(np.asarray(p0_grid, dtype=float))
    if z0_grid.size == 0 or p0_grid.size == 0:
        raise InvalidInput("initial-condition grids must be nonempty")
    cfg = IntegrationConfig(t_end=t_end, h=h, record_every=record_every)
    filaments = []
    for z0 in z0_grid:
        for p0 in p0_grid:
            traj = integrate_coupled(params, float(z0), float(p0), cfg)
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
