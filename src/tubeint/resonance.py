"""Windowed Fourier diagnostics on coefficient trajectories.

Secular terms make the signal non-stationary, so coefficients are extracted
per 2-pi window rather than by a global FFT: linear growth of the sin(2 tau)
amplitude across windows is the direct signature of the 2:1 resonance, and
the periodicity defect quantifies the obstruction to 2-pi periodic solutions.

Projections resample each window onto a uniform grid and apply the trapezoid
rule with periodic endpoint identification, which keeps discrete
orthogonality exact regardless of the integration step grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientSamples, InsufficientWindows, InvalidInput
from .model import SystemParams, Trajectory
from .perturb import _sum, resonance_coefficients, validity, y_composite

__all__ = [
    "HarmonicWindow",
    "SecularFit",
    "DefectSeries",
    "project_harmonics",
    "secular_slope",
    "third_harmonic_check",
    "fourier_windows",
    "periodicity_defect",
]

TWO_PI = 2.0 * math.pi

#: Minimum trajectory samples that must fall inside a window.
MIN_WINDOW_SAMPLES = 1000

#: Resampling nodes per window (>= MIN_WINDOW_SAMPLES).
WINDOW_NODES = 2048


@dataclass(frozen=True)
class HarmonicWindow:
    """Cosine/sine coefficients over tau in [2 pi k, 2 pi (k+1)].

    c[0] is the window mean; c[n]/s[n-1] are the cos(n tau)/sin(n tau)
    amplitudes for n >= 1.
    """

    k: int
    c: np.ndarray
    s: np.ndarray

    def s_n(self, n: int) -> float:
        return float(self.s[n - 1])

    def c_n(self, n: int) -> float:
        return float(self.c[n])


def _complete_windows(tau: np.ndarray) -> list[int]:
    return list(range(int(math.floor(tau[-1] / TWO_PI + 1e-12))))


def _cover(tau: np.ndarray, windows) -> None:
    """Raise InsufficientSamples unless tau covers each window with enough samples."""
    for k in windows:
        a = TWO_PI * k
        b = a + TWO_PI
        if tau[0] > a + 1e-12 or tau[-1] < b - 1e-12:
            raise InsufficientSamples(f"trajectory does not cover window {k} ([{a}, {b}])")
        inside = np.count_nonzero((tau >= a) & (tau <= b))
        if inside < MIN_WINDOW_SAMPLES:
            raise InsufficientSamples(f"window {k} holds {inside} samples; "
                                      f"need >= {MIN_WINDOW_SAMPLES}")


def _project(tau: np.ndarray, series, windows, n_harmonics: int) -> list[tuple]:
    """(c, s) per series: c[n, i], s[n - 1, i] the cos/sin(n tau) amplitudes over windows[i]
    (checked by ``_cover``), c[0, i] its mean; one grid and basis per window serve all series."""
    tau = np.ascontiguousarray(tau)
    series = [np.ascontiguousarray(values) for values in series]
    out = [(np.empty((n_harmonics + 1, len(windows))), np.empty((n_harmonics, len(windows))))
           for _ in series]
    nodes = TWO_PI * np.arange(WINDOW_NODES) / WINDOW_NODES
    for i, k in enumerate(windows):
        grid = TWO_PI * k + nodes
        basis = [(np.cos(n * grid), np.sin(n * grid)) for n in range(1, n_harmonics + 1)]
        for values, (c, s) in zip(series, out):
            yg = np.interp(grid, tau, values)
            c[0, i] = yg.mean()
            for n, (cos, sin) in enumerate(basis, 1):
                c[n, i] = 2.0 * np.mean(yg * cos)
                s[n - 1, i] = 2.0 * np.mean(yg * sin)
    return out


def project_harmonics(traj: Trajectory, window_k: int, n_harmonics: int = 8) -> HarmonicWindow:
    """Extract c0..cN and s1..sN of the y column over one 2-pi window."""
    if n_harmonics < 1 or n_harmonics > 8:
        raise InvalidInput(f"n_harmonics must be in 1..8, got {n_harmonics!r}")
    tau = traj.times if "tau" not in traj.columns else traj.column("tau")
    values = traj.column("y")
    _cover(tau, [window_k])
    [(c, s)] = _project(tau, [values], [window_k], n_harmonics)
    return HarmonicWindow(k=window_k, c=c[:, 0], s=s[:, 0])


def _check_horizon(params: SystemParams, last_window: int, message: str) -> None:
    """InvalidInput(message, formatted with horizon and limit) past 0.2 tau*."""
    horizon = TWO_PI * (last_window + 1)
    limit = 0.2 * validity(params).tau_star
    if horizon > limit:
        raise InvalidInput(message.format(horizon=horizon, limit=limit))


def _secular_residual(params: SystemParams, traj: Trajectory, windows) -> np.ndarray:
    """y - y0 (1 + delta R_1), once the windows are checked against the fit horizon."""
    _check_horizon(params, max(windows),
                   "fit horizon {horizon:.1f} exceeds 0.2 tau* = {limit:.1f}")
    y0, eps = params.y0, params.epsilon
    [r1] = _sum(traj.column("tau"), ("rho", [0.0, 1.0]))
    return traj.column("y") - y0 - eps * y0 * (y0**-3.5 * r1)


@dataclass(frozen=True)
class SecularFit:
    """Linear fit of the per-window sin(2 tau) amplitude against window center."""

    slope: float
    intercept: float
    r2: float
    windows: np.ndarray
    amplitudes: np.ndarray


def _secular_fit(windows, amps: np.ndarray) -> SecularFit:
    centers = TWO_PI * (np.asarray(windows, dtype=float) + 0.5)
    slope, intercept = np.polyfit(centers, amps, 1)
    fit = slope * centers + intercept
    ss_res = float(np.sum((amps - fit) ** 2))
    ss_tot = float(np.sum((amps - amps.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return SecularFit(float(slope), float(intercept), r2, np.asarray(windows), amps)


def _third_harmonic(params: SystemParams, amps: np.ndarray) -> tuple[float, float]:
    """(measured, predicted): the sin(3 tau) amplitudes of windows 0 and 1, extrapolated
    linearly from their centers 2 pi (k + 1/2) to center 0, and the series value."""
    predicted = float(resonance_coefficients()["s3"]) * params.epsilon**3 * params.y0**-9.5
    return float(amps[0] - (amps[1] - amps[0]) * 0.5), predicted


def third_harmonic_check(params: SystemParams, traj: Trajectory) -> tuple[float, float]:
    """(measured, predicted) third-harmonic amplitude, canonical sign.

    The residual subtracts the order-2 composite in its exponential form,
    which removes every first- and second-order harmonic together with their
    cross products, leaving the third-order content.  Its windowed sin(3 tau)
    amplitude grows linearly with the window center (R_3's tau sin(3 tau)
    term, next-order secular terms), so it is measured on windows 0 and 1 and
    extrapolated linearly to window center zero: the detrended value.
    Predicted is that value of the series, ``resonance_coefficients()["s3"]``
    eps^3 y0^(-19/2).
    """
    tau = traj.column("tau")
    if len(_complete_windows(tau)) < 2:
        raise InsufficientWindows("trajectory does not cover window 1")
    _check_horizon(params, 1, "measurement horizon exceeds 0.2 tau*")
    residual = traj.column("y") - y_composite(tau, params, order=2)
    _cover(tau, (0, 1))
    [(_, s)] = _project(tau, [residual], (0, 1), 3)
    return _third_harmonic(params, s[2])


def secular_slope(traj: Trajectory, params: SystemParams | None = None) -> SecularFit:
    """Growth rate of the sin(2 tau) amplitude of y - y0 (1 + delta R_1): the fit of
    ``fourier_windows``, whose checks apply.

    The first-order term is removed in closed form, so the leading content of
    the residual is the secular second-order response; its fitted slope is
    compared against (5/96) eps^2 y0^(-6) by callers.  ``params`` defaults to
    the trajectory's own.
    """
    if params is None:
        params = traj.meta.get("params")
    if params is None:
        raise InvalidInput("params not given and not present in trajectory meta")
    return fourier_windows(params, traj)[2]


def fourier_windows(params: SystemParams, traj: Trajectory) -> tuple:
    """(c, s, fit, s3, third) over the complete windows of an ``integrate_y`` run, one pass:
    rows c0..c3 and s1..s3 of y, the fit ``secular_slope`` returns, the order-2
    residual's sin(3 tau) amplitudes and ``third_harmonic_check`` on their windows 0 and 1."""
    tau = traj.column("tau")
    windows = _complete_windows(tau)
    if len(windows) < 5:
        raise InsufficientWindows(f"need >= 5 complete windows, got {len(windows)}")
    residual1 = _secular_residual(params, traj, windows)
    _cover(tau, windows)
    y = traj.column("y")
    (c, s), (_, s2), (_, s3) = _project(
        tau, [y, residual1, y - y_composite(tau, params, 2)], windows, 3)
    return c, s, _secular_fit(windows, s2[1]), s3[2], _third_harmonic(params, s3[2])


@dataclass(frozen=True)
class DefectSeries:
    """Per-sample periodicity defect max_components |x(tau + period) - x(tau)|."""

    tau: np.ndarray
    defect: np.ndarray

    @property
    def max(self) -> float:
        return float(np.max(self.defect))


def periodicity_defect(traj: Trajectory, period: float = TWO_PI) -> DefectSeries:
    """How far the y, dy and ddy columns are from being periodic with the given period.

    Strictly zero only for genuinely periodic signals: the unforced constant
    solution and the first-order truncation.  For nonzero forcing the defect
    is bounded away from zero and grows on secular time scales.  When the
    sample grid divides the period the comparison is sample-exact; otherwise
    the shifted values are linearly interpolated.
    """
    if not (math.isfinite(period) and period > 0.0):
        raise InvalidInput(f"period must be finite and > 0, got {period!r}")
    tau = traj.times if "tau" not in traj.columns else traj.column("tau")
    if tau[-1] - tau[0] < 2.0 * period:
        raise InsufficientSamples("trajectory must cover at least two periods")
    h = tau[1] - tau[0]
    m = round(period / h)
    aligned = m >= 1 and abs(m * h - period) < 1e-9
    keep = slice(0, len(tau) - m) if aligned else tau + period <= tau[-1] + 1e-12
    base_tau = tau[keep]
    defect = np.zeros(len(base_tau))
    for name in ("y", "dy", "ddy"):
        col = traj.column(name)
        shifted = col[m:] if aligned else np.interp(base_tau + period, tau, col)
        defect = np.maximum(defect, np.abs(shifted - col[keep]))
    return DefectSeries(tau=base_tau.copy(), defect=defect)
