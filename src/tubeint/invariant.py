"""The exact quadratic invariant and its third-order perturbative approximation.

Both are the one formula of ``_exact`` in alpha2 and its first two
derivatives: the exact invariant takes them from the integrated state, the
perturbative one from the truncated series (``_alpha2``) as alpha2 = y0 e^rho,
alpha2' = -y0 A4 and alpha2'' = 2 y0 A31, where A4 and A31 (alpha2''/(2 y0),
reconstructed from the once-integrated form) are delta-series that
``tubeint.perturb`` derives from the same recursion as the composite; tests
pin probe values of every order.  They agree with the composite derivatives
to O(eps^4).

Each invariant is evaluated at the trajectory's own sample times: the
perturbative one per block of samples with that block's coefficient series,
the exact one vectorised over the whole trajectory.  The exact invariant is
one broadcast evaluation: a tube grid runs in contiguous parts, one per core,
which are the tables of ``integrate._tables``, the pipeline of the chunk
coefficient tables and CSV blocks.  Each part is one lockstep run that
evaluates the invariant once for all its filaments, with the time-only terms
(the forcing's cos and sin, y^(-3/2) and the other coefficient products)
computed once per part; each filament's values are the bits of its own
single-trajectory evaluation.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NonPositive, TubeIntError, UnsupportedOmega
from .integrate import _CHUNK, IntegrationConfig, _coupled, integrate_coupled, integrate_z
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


def _forcing(t, params: SystemParams):
    """(alpha1, alpha1') at the times t, from one cos and one sin of omega t."""
    om, c1, c2 = params.omega, params.c1, params.c2
    cos, sin = np.cos(om * t), np.sin(om * t)
    return 0.5 * (c1 * cos + c2 * sin), 0.5 * om * (-c1 * sin + c2 * cos)


def _exact(params: SystemParams, t, y, dy, ddy, z, p) -> np.ndarray:
    """The exact invariant I(z, p, t), broadcast over its arguments.

    t, y, dy and ddy are the times and coefficient state, z and p the
    oscillators'.  Given as (rows, 1) columns against (rows, N) oscillator
    tables, the time-only terms are computed once for all N oscillators, and
    column j holds the bits of the evaluation on oscillator j alone.  y, dy
    and ddy are alpha2 and its first two tau-derivatives, from the integrated
    state or, at omega = 1, from the series (``_alpha2``); the chain rule
    gives alpha2'(t) = omega * y'(tau) and alpha2''(t) = omega^2 * y''(tau).

    I = y p^2 - omega y' z p + alpha1 p + omega^2 (y + y''/2) z^2 - alpha1' z
    + (2/3) y^(-3/2) z^3, summed left to right into one array with one more
    array for the term being added, so that a grid's evaluation holds two
    arrays of its size.  Each product is formed in the order of the formula
    as written; the bits are those of the plain expression.  The cube is
    (z*z)*z: numpy's power drops to a scalar path for a negative base (about
    60 ns a value against 1 ns for the two multiplies) and gives other bits
    on other CPU dispatch paths, so the invariant depends on numpy's dispatch
    only through the forcing's cos and sin, y^(-3/2) and, on the series, exp.
    """
    if np.any(y <= 0.0):
        raise NonPositive("y", float(y.min()))
    om = params.omega
    alpha1, dalpha1 = _forcing(t, params)
    out = y * p
    out *= p
    term = om * dy * z
    term *= p
    out -= term
    np.multiply(alpha1, p, out=term)
    out += term
    np.multiply(om * om * (y + 0.5 * ddy), z, out=term)
    term *= z
    out += term
    np.multiply(dalpha1, z, out=term)
    out -= term
    np.multiply(z, z, out=term)
    term *= z
    term *= (2.0 / 3.0) * y**-1.5
    out += term
    return out


def invariant_exact_series(traj: Trajectory, params: SystemParams) -> np.ndarray:
    """Exact invariant along a coupled trajectory, at its sample times."""
    return _exact(params, traj.times, *(traj.column(c) for c in ("y", "dy", "ddy", "z", "p")))


def _alpha2(t, params: SystemParams, order: int):
    """(alpha2, alpha2', alpha2'') of the order-``order`` series at the times t:
    y0 e^rho, -y0 A4 and 2 y0 A31, from the delta-series of ``tubeint.perturb``."""
    weights = _prepare(params, order)
    if params.omega != 1.0:
        raise UnsupportedOmega(params.omega)
    rho, a31, a4 = _sum(t, ("rho", weights), ("a31", weights), ("a4", weights))
    y0 = params.y0
    return y0 * np.exp(rho), -(y0 * a4), 2.0 * (y0 * a31)


def _perturbative(params: SystemParams, order: int, t, z, p) -> np.ndarray:
    """The perturbative invariant at the times t: the exact one on the series'
    alpha2, evaluated per block of ``_CHUNK`` points, so that only one block's
    series and temporaries are held at a time."""
    values = np.empty(len(t))
    for b in range(0, len(t), _CHUNK):
        block = slice(b, b + _CHUNK)
        values[block] = _exact(params, t[block], *_alpha2(t[block], params, order), z[block],
                               p[block])
    return values


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
    data = np.empty((len(t), 3))
    data[:, 0], data[:, 1], data[:, 2] = t, values, drift
    return Trajectory(
        times=t,
        columns=("t", "I", "drift_pct"),
        data=data,
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
    values = _perturbative(params, order, ztraj.times, ztraj.column("z"), ztraj.column("p"))
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


def _grid(values, name: str) -> np.ndarray:
    """The initial values as a nonempty 1-D float grid; other shapes are InvalidInput."""
    grid = np.atleast_1d(np.asarray(values, dtype=float))
    if grid.ndim != 1:
        raise InvalidInput(f"{name} grid must be 1-D, got shape {grid.shape}")
    if grid.size == 0:
        raise InvalidInput("initial-condition grids must be nonempty")
    return grid


def _tube_part(params: SystemParams, pairs, cfg: IntegrationConfig) -> list[TubeFilament]:
    """The filaments of pairs from one lockstep run and one broadcast invariant;
    the parts take a core each, so the run starts no table helper."""
    t, states, _ = _coupled(params, pairs, cfg, helpers=0)
    z = states[:, 4::2]
    p = states[:, 5::2]
    values = _exact(params, t[:, None], states[:, 0:1], states[:, 1:2], states[:, 2:3], z, p)
    K = values[0].copy()
    values -= K
    deviation = np.abs(values, out=values).max(axis=0)
    del values  # freed before the copies: a part holds its table and at most two more arrays
    return [
        TubeFilament(z0=z0, p0=p0, K=k, t=t, z=zj, p=pj, max_abs_deviation=dev)
        for (z0, p0), k, dev, zj, pj in zip(pairs, K.tolist(), deviation.tolist(),
                                             z.T.copy(), p.T.copy())
    ]


def tube_surface_samples(
    params: SystemParams,
    z0_grid,
    p0_grid,
    t_end: float,
    h: float = 1e-3,
    record_every: int = 100,
) -> list[TubeFilament]:
    """Sample the invariant level sets: one filament per initial condition.

    For each (z0, p0) in the Cartesian product of the 1-D grids, integrates
    the coupled system and tags the (z, p, t) triples with the conserved
    value K; this is the data behind the tube visualization.  The grid is
    split, in grid order, into min(1 + ``_table_helpers()``, filaments)
    contiguous parts: one per core beside the compiled RK4, else one.  Each
    part is one lockstep integration under one coefficient state, with the
    exact invariant evaluated once over its state table.  The parts are the
    tables of ``integrate._tables``, built at once on the caller and on
    ``_table_helpers()`` threads in copies of the caller's context (so under
    its numpy error state), while the compiled RK4 and numpy release the
    GIL.  Each filament is, to the bit, its own ``integrate_coupled`` run and
    ``invariant_exact_series``, whatever the parts.  The error of the first
    failing part is raised once every part is joined; when it is a
    TubeIntError, the grid is first run again one filament at a time, so the
    error raised is that of the first failing filament in grid order (or the
    part's own, such as a state table too large to allocate, when every
    filament runs alone).
    """
    from .integrate import _table_helpers, _tables  # looked up per call, as write_csv does

    z0_grid = _grid(z0_grid, "z0")
    p0_grid = _grid(p0_grid, "p0")
    cfg = IntegrationConfig(t_end=t_end, h=h, record_every=record_every)
    pairs = [(z0, p0) for z0 in z0_grid.tolist() for p0 in p0_grid.tolist()]
    helpers = _table_helpers()
    parts = min(1 + helpers, len(pairs))
    bounds = [len(pairs) * i // parts for i in range(parts + 1)]

    def part(i):
        return _tube_part(params, pairs[bounds[i]:bounds[i + 1]], cfg)

    try:
        with contextlib.closing(_tables(part, parts, helpers)) as results:
            return [filament for filaments in results for filament in filaments]
    except TubeIntError:  # Escape, NonFinite, PositivityViolation or InvalidInput
        for z0, p0 in pairs:
            integrate_coupled(params, z0, p0, cfg)
        raise
