"""Windowed Fourier diagnostics on coefficient trajectories.

Secular terms make the signal non-stationary, so coefficients are extracted
per 2-pi window rather than by a global FFT: linear growth of the sin(2 tau)
amplitude across windows is the direct signature of the 2:1 resonance, and
the periodicity defect quantifies the obstruction to 2-pi periodic solutions.

Projections resample each window onto a uniform grid and apply the trapezoid
rule with periodic endpoint identification, which keeps discrete
orthogonality exact regardless of the integration step grid.  Each window
reads only the samples that bracket its grid, and the series it subtracts
are evaluated at those samples alone: linear interpolation finds the same
interval of a slice and applies the same formula, so every value has the
bits of a projection of the whole trajectory, without full-length copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientSamples, InsufficientWindows, InvalidInput
from .model import SystemParams, Trajectory
from .perturb import _power_product, _prepare, _sum, resonance_coefficients, validity

__all__ = ["SecularFit", "DefectSeries", "fourier_windows", "periodicity_defect"]

TWO_PI = 2.0 * math.pi

#: Minimum trajectory samples that must fall inside a window.
MIN_WINDOW_SAMPLES = 1000

#: Resampling nodes per window (>= MIN_WINDOW_SAMPLES).
WINDOW_NODES = 2048


def _cover(tau: np.ndarray, windows) -> list[slice]:
    """The samples of tau (ascending) that bracket each window: from the last
    one before it to the first one after it, where those exist.  Raises
    InsufficientSamples unless tau covers each window with enough samples."""
    starts = [TWO_PI * k for k in windows]
    ends = [a + TWO_PI for a in starts]
    first = np.searchsorted(tau, starts, "left")
    past = np.searchsorted(tau, ends, "right")
    for k, a, b, inside in zip(windows, starts, ends, (past - first).tolist()):
        if tau[0] > a + 1e-12 or tau[-1] < b - 1e-12:
            raise InsufficientSamples(f"trajectory does not cover window {k} ([{a}, {b}])")
        if inside < MIN_WINDOW_SAMPLES:
            raise InsufficientSamples(f"window {k} holds {inside} samples; "
                                      f"need >= {MIN_WINDOW_SAMPLES}")
    return [slice(max(lo - 1, 0), hi + 1) for lo, hi in zip(first.tolist(), past.tolist())]


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


def fourier_windows(params: SystemParams, traj: Trajectory) -> tuple:
    """(c, s, fit, s3, third) over the complete windows (at least 5) of an ``integrate_y`` run.

    c and s hold rows c0..c3 and s1..s3 of y, one column per window.  fit is
    the linear fit of the sin(2 tau) amplitude of y - y0 (1 + delta R_1): the
    first-order term is removed in closed form (unforced, the residual is
    y - y0, with no power of y0 to overflow; when eps y0 overflows, the term
    is formed as y0 (delta R_1)), so the leading content is the
    secular second-order response, whose slope callers compare against
    (5/96) eps^2 y0^(-6).  The windows must end within 0.2 tau*.

    s3 holds the sin(3 tau) amplitudes of y minus the order-2 composite in
    its exponential form, which removes every first- and second-order
    harmonic with their cross products.  They grow linearly with the window
    center (R_3's tau sin(3 tau) term), so third is (measured, predicted):
    windows 0 and 1 extrapolated linearly from their centers 2 pi (k + 1/2)
    to center 0, canonical sign, and the series value
    ``resonance_coefficients()["s3"]`` eps^3 y0^(-19/2) (0 when unforced,
    where that power may overflow; from logarithms when a power of the
    product overflows).
    """
    tau = traj.column("tau")
    windows = list(range(int(math.floor(tau[-1] / TWO_PI + 1e-12))))
    if len(windows) < 5:
        raise InsufficientWindows(f"need >= 5 complete windows, got {len(windows)}")
    horizon = TWO_PI * (windows[-1] + 1)
    limit = 0.2 * validity(params).tau_star
    if horizon > limit:
        raise InvalidInput(f"fit horizon {horizon:.1f} exceeds 0.2 tau* = {limit:.1f}")
    y0, eps = params.y0, params.epsilon
    y = traj.column("y")
    brackets = _cover(tau, windows)
    # R_1 and the order-2 composite's exponent, one series pass per window
    pairs = ("rho", [0.0, 1.0]), ("rho", _prepare(params, 2))
    c, s = np.empty((4, len(windows))), np.empty((3, len(windows)))
    amps, s3 = np.empty(len(windows)), np.empty(len(windows))
    for i, (k, bracket) in enumerate(zip(windows, brackets)):
        t, yk = tau[bracket], y[bracket]
        r1, rho2 = _sum(t, *pairs)
        if eps == 0.0:
            residual1 = yk - y0
        elif math.isfinite(eps * y0):
            residual1 = yk - y0 - eps * y0 * (y0**-3.5 * r1)
        else:  # delta y0 is representable though eps y0 is not
            residual1 = yk - y0 - y0 * (params.eps_eff * r1)
        # y minus the order-2 composite, formed as perturb.y_composite forms it
        (ck, sk), (_, s1), (_, s2) = _project(t, [yk, residual1, yk - y0 * np.exp(rho2)], [k], 3)
        c[:, i], s[:, i], amps[i], s3[i] = ck[:, 0], sk[:, 0], s1[1, 0], s2[2, 0]
    fit = _secular_fit(windows, amps)
    s3_coef = float(resonance_coefficients()["s3"])
    predicted = _power_product(s3_coef, (eps, 3.0), (y0, -9.5)) if eps else 0.0
    return c, s, fit, s3, (float(s3[0] - (s3[1] - s3[0]) * 0.5), predicted)


@dataclass(frozen=True)
class DefectSeries:
    """Per-sample periodicity defect max_components |x(tau + 2 pi) - x(tau)|."""

    tau: np.ndarray
    defect: np.ndarray

    @property
    def max(self) -> float:
        return float(np.max(self.defect))


def periodicity_defect(traj: Trajectory) -> DefectSeries:
    """How far the y, dy and ddy columns are from being 2 pi periodic.

    Strictly zero only for genuinely periodic signals: the unforced constant
    solution and the first-order truncation.  For nonzero forcing the defect
    is bounded away from zero and grows on secular time scales.  The
    comparison is sample-exact, so the sample spacing must divide 2 pi
    (h = 2 pi / m, as on the step grid of every section), and every sample
    must be 2 pi from the one m samples on; any other grid is InvalidInput.
    """
    tau = traj.times
    if tau[-1] - tau[0] < 2.0 * TWO_PI:
        raise InsufficientSamples("trajectory must cover at least two periods")
    h = float(tau[1] - tau[0])
    m = round(TWO_PI / h)
    if abs(m * h - TWO_PI) >= 1e-9:
        raise InvalidInput(f"sample spacing {h!r} does not divide 2 pi")
    apart = np.abs(tau[m:] - tau[:-m] - TWO_PI) < 1e-9
    if not apart.all():
        i = int(np.argmin(apart))
        raise InvalidInput(f"samples at tau = {float(tau[i])!r} and {float(tau[i + m])!r} "
                           "are not 2 pi apart")
    defect = np.zeros(len(tau) - m)
    for name in ("y", "dy", "ddy"):
        col = traj.column(name)
        defect = np.maximum(defect, np.abs(col[m:] - col[:-m]))
    return DefectSeries(tau=tau[:-m].copy(), defect=defect)
