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
from .perturb import rho1, validity, y_composite

__all__ = [
    "HarmonicWindow",
    "SecularFit",
    "DefectSeries",
    "project_harmonics",
    "secular_slope",
    "third_harmonic_check",
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


def _window_project(tau: np.ndarray, values: np.ndarray, k: int, n_harmonics: int):
    a = TWO_PI * k
    b = a + TWO_PI
    if tau[0] > a + 1e-12 or tau[-1] < b - 1e-12:
        raise InsufficientSamples(f"trajectory does not cover window {k} ([{a}, {b}])")
    inside = np.count_nonzero((tau >= a) & (tau <= b))
    if inside < MIN_WINDOW_SAMPLES:
        raise InsufficientSamples(
            f"window {k} holds {inside} samples; need >= {MIN_WINDOW_SAMPLES}"
        )
    grid = a + TWO_PI * np.arange(WINDOW_NODES) / WINDOW_NODES
    yg = np.interp(grid, tau, values)
    c = np.empty(n_harmonics + 1)
    s = np.empty(n_harmonics)
    c[0] = yg.mean()
    for n in range(1, n_harmonics + 1):
        c[n] = 2.0 * np.mean(yg * np.cos(n * grid))
        s[n - 1] = 2.0 * np.mean(yg * np.sin(n * grid))
    return c, s


def project_harmonics(
    traj: Trajectory,
    window_k: int,
    n_harmonics: int = 8,
    column: str = "y",
) -> HarmonicWindow:
    """Extract c0..cN and s1..sN of a trajectory column over one 2-pi window."""
    if n_harmonics < 1 or n_harmonics > 8:
        raise InvalidInput(f"n_harmonics must be in 1..8, got {n_harmonics!r}")
    tau = traj.times if "tau" not in traj.columns else traj.column("tau")
    c, s = _window_project(tau, traj.column(column), window_k, n_harmonics)
    return HarmonicWindow(k=window_k, c=c, s=s)


def _complete_windows(tau: np.ndarray) -> list[int]:
    return list(range(int(math.floor(tau[-1] / TWO_PI + 1e-12))))


@dataclass(frozen=True)
class SecularFit:
    """Linear fit of a per-window harmonic amplitude against window center."""

    harmonic: int
    slope: float
    intercept: float
    r2: float
    windows: np.ndarray
    amplitudes: np.ndarray


def secular_slope(
    traj: Trajectory,
    harmonic: int = 2,
    windows: list[int] | None = None,
    params: SystemParams | None = None,
) -> SecularFit:
    """Growth rate of the sin(harmonic * tau) amplitude of y - y0 - eps y0 rho1.

    The first-order term is removed in closed form, so the leading content of
    the residual is the secular second-order response; its fitted slope is
    compared against (5/96) eps^2 y0^(-6) by callers.  Requires the fitted
    horizon to stay within a fifth of the validity window.
    """
    if params is None:
        params = traj.meta.get("params")
    if params is None:
        raise InvalidInput("params not given and not present in trajectory meta")
    tau = traj.column("tau")
    if windows is None:
        windows = _complete_windows(tau)
    if len(windows) < 5:
        raise InsufficientWindows(f"need >= 5 windows, got {len(windows)}")
    horizon = TWO_PI * (max(windows) + 1)
    tau_star = validity(params).tau_star
    if horizon > 0.2 * tau_star:
        raise InvalidInput(
            f"fit horizon {horizon:.1f} exceeds 0.2 tau* = {0.2 * tau_star:.1f}"
        )
    y0 = params.y0
    eps = params.epsilon
    residual = traj.column("y") - y0 - eps * y0 * rho1(tau, y0)
    amps = np.empty(len(windows))
    for i, k in enumerate(windows):
        _, s = _window_project(tau, residual, k, harmonic)
        amps[i] = s[harmonic - 1]
    centers = TWO_PI * (np.asarray(windows, dtype=float) + 0.5)
    slope, intercept = np.polyfit(centers, amps, 1)
    fit = slope * centers + intercept
    ss_res = float(np.sum((amps - fit) ** 2))
    ss_tot = float(np.sum((amps - amps.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return SecularFit(
        harmonic=harmonic,
        slope=float(slope),
        intercept=float(intercept),
        r2=r2,
        windows=np.asarray(windows),
        amplitudes=amps,
    )


def third_harmonic_check(
    params: SystemParams,
    traj: Trajectory,
    windows: tuple[int, int] = (0, 1),
) -> tuple[float, float]:
    """(measured, predicted) third-harmonic amplitude, canonical sign.

    The residual subtracts the order-2 composite in its exponential form,
    which removes every first- and second-order harmonic together with their
    cross products, leaving the third-order content.  Its windowed sin(3 tau)
    amplitude still carries a contamination that grows linearly with the
    window center (next-order secular terms), so the amplitude is measured on
    two windows and extrapolated linearly to window center zero; that is the
    detrended value.  Predicted is the forced-response coefficient
    (7/864) eps^3 y0^(-19/2).
    """
    if params is None:
        params = traj.meta.get("params")
    tau = traj.column("tau")
    k_lo, k_hi = windows
    if k_hi <= k_lo:
        raise InvalidInput("windows must be two distinct indices (low, high)")
    if max(windows) + 1 > len(_complete_windows(tau)):
        raise InsufficientWindows(f"trajectory does not cover window {max(windows)}")
    tau_star = validity(params).tau_star
    if TWO_PI * (max(windows) + 1) > 0.2 * tau_star:
        raise InvalidInput("measurement horizon exceeds 0.2 tau*")
    residual = traj.column("y") - y_composite(tau, params, order=2)
    amps = []
    for k in (k_lo, k_hi):
        _, s = _window_project(tau, residual, k, 3)
        amps.append(float(s[2]))
    # linear extrapolation from centers 2 pi (k + 1/2) to center 0
    c_lo = k_lo + 0.5
    c_hi = k_hi + 0.5
    slope = (amps[1] - amps[0]) / (c_hi - c_lo)
    measured = amps[0] - slope * c_lo
    predicted = (7.0 / 864.0) * params.epsilon**3 * params.y0**-9.5
    return measured, predicted


@dataclass(frozen=True)
class DefectSeries:
    """Per-sample periodicity defect max_components |x(tau + period) - x(tau)|."""

    tau: np.ndarray
    defect: np.ndarray

    @property
    def max(self) -> float:
        return float(np.max(self.defect))


def periodicity_defect(
    traj: Trajectory,
    period: float = TWO_PI,
    columns: tuple[str, ...] = ("y", "dy", "ddy"),
) -> DefectSeries:
    """How far the trajectory is from being periodic with the given period.

    Strictly zero only for genuinely periodic signals: the unforced constant
    solution and the first-order truncation.  For nonzero forcing the defect
    is bounded away from zero and grows on secular time scales.  When the
    sample grid divides the period the comparison is sample-exact; otherwise
    the shifted values are linearly interpolated.
    """
    tau = traj.times if "tau" not in traj.columns else traj.column("tau")
    if tau[-1] - tau[0] < 2.0 * period:
        raise InsufficientSamples("trajectory must cover at least two periods")
    h = tau[1] - tau[0]
    m = round(period / h)
    n = len(tau)
    aligned = m >= 1 and abs(m * h - period) < 1e-9
    if aligned:
        base = slice(0, n - m)
        defect = np.zeros(n - m)
        for name in columns:
            col = traj.column(name)
            defect = np.maximum(defect, np.abs(col[m:] - col[:-m]))
        return DefectSeries(tau=tau[base].copy(), defect=defect)
    keep = tau + period <= tau[-1] + 1e-12
    base_tau = tau[keep]
    defect = np.zeros(len(base_tau))
    for name in columns:
        col = traj.column(name)
        shifted = np.interp(base_tau + period, tau, col)
        defect = np.maximum(defect, np.abs(shifted - col[keep]))
    return DefectSeries(tau=base_tau.copy(), defect=defect)
