import math

import numpy as np
import pytest

from tubeint.errors import InsufficientSamples, InsufficientWindows, InvalidInput
from tubeint.integrate import IntegrationConfig, integrate_y
from tubeint.model import SystemParams, Trajectory, validate_params
from tubeint.perturb import _sum
from tubeint.resonance import (
    fourier_windows,
    periodicity_defect,
    project_harmonics,
    secular_slope,
    third_harmonic_check,
)

TWO_PI = 2.0 * math.pi


def params(eps=0.1, y0=1.0):
    return validate_params(SystemParams(epsilon=eps, y0=y0))


def synthetic(fn, n_periods=3, nodes_per_period=2048, columns=("y",)):
    h = TWO_PI / nodes_per_period
    tau = h * np.arange(n_periods * nodes_per_period + 1)
    data = np.column_stack([tau] + [fn(tau, name) for name in columns])
    return Trajectory(times=tau, columns=("tau",) + columns, data=data)


def test_projection_constant_signal():
    traj = synthetic(lambda tau, _: np.ones_like(tau))
    hw = project_harmonics(traj, 0, n_harmonics=8)
    assert hw.c[0] == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(hw.c[1:])) < 1e-10
    assert np.max(np.abs(hw.s)) < 1e-10


def test_projection_pure_harmonic():
    traj = synthetic(lambda tau, _: np.sin(tau))
    hw = project_harmonics(traj, 1, n_harmonics=8)
    assert hw.s_n(1) == pytest.approx(1.0, abs=1e-8)
    assert abs(hw.c_n(1)) < 1e-8
    assert np.max(np.abs(hw.s[1:])) < 1e-8


def test_projection_requires_dense_coverage():
    h = TWO_PI / 100
    tau = h * np.arange(301)
    traj = Trajectory(times=tau, columns=("tau", "y"), data=np.column_stack([tau, np.sin(tau)]))
    with pytest.raises(InsufficientSamples):
        project_harmonics(traj, 0)
    dense = synthetic(lambda tau, _: np.sin(tau), n_periods=2)
    with pytest.raises(InsufficientSamples):
        project_harmonics(dense, 5)


def test_first_order_amplitude_and_quadratic_gap():
    gaps = {}
    for eps in (0.2, 0.1, 0.05):
        p = params(eps=eps)
        traj = integrate_y(p, IntegrationConfig(t_end=3.0 * TWO_PI, h=1e-3, record_every=2))
        s1 = project_harmonics(traj, 0, n_harmonics=3).s_n(1)
        assert s1 > 0.0  # canonical orientation: + eps/3 y0^(-5/2)
        gaps[eps] = abs(s1) - eps / 3.0
        assert abs(gaps[eps]) < 0.02 * eps**2
    assert gaps[0.2] / gaps[0.1] > 3.5
    assert gaps[0.1] / gaps[0.05] > 3.5


def test_secular_slope_matches_resonance_coefficient():
    p = params(eps=0.1, y0=1.0)
    traj = integrate_y(p, IntegrationConfig(t_end=300.0, h=1e-3, record_every=5))
    fit = secular_slope(traj)
    predicted = (5.0 / 96.0) * 0.01
    assert abs(fit.slope - predicted) / predicted < 0.10
    assert fit.r2 > 0.99


def test_secular_slope_scales_with_y0():
    p = params(eps=0.1, y0=2.0)
    traj = integrate_y(p, IntegrationConfig(t_end=300.0, h=1e-3, record_every=5))
    fit = secular_slope(traj)
    predicted = (5.0 / 96.0) * 0.01 * 2.0**-6.0
    assert abs(fit.slope - predicted) / predicted < 0.15


def test_secular_slope_unforced_is_zero():
    p = params(eps=0.0)
    traj = integrate_y(p, IntegrationConfig(t_end=12.0 * TWO_PI, h=1e-3, record_every=5))
    fit = secular_slope(traj, params=p)
    assert abs(fit.slope) < 1e-10


def test_secular_slope_needs_five_windows():
    p = params()
    traj = integrate_y(p, IntegrationConfig(t_end=3.0 * TWO_PI, h=1e-3, record_every=5))
    with pytest.raises(InsufficientWindows):
        secular_slope(traj)


@pytest.mark.parametrize("c1, c2", [(0.0, 0.1), (-0.1, 0.0)])
def test_secular_slope_rejects_non_canonical_forcing(c1, c2):
    p = SystemParams(c1=c1, c2=c2)
    traj = integrate_y(p, IntegrationConfig(t_end=44.0, h=1e-3, record_every=5))
    with pytest.raises(InvalidInput, match="canonical forcing orientation"):
        secular_slope(traj)


def test_secular_slope_enforces_validity_horizon():
    p = params(eps=0.4, y0=0.8)  # tau* = 96*0.8^6/(5*0.16) ~ 31.5
    traj = integrate_y(p, IntegrationConfig(t_end=8.0 * TWO_PI, h=1e-3, record_every=2))
    with pytest.raises(ValueError):
        secular_slope(traj)


def test_third_harmonic_within_band():
    for eps, y0 in [(0.2, 1.0), (0.2, 2.0)]:
        p = params(eps=eps, y0=y0)
        traj = integrate_y(p, IntegrationConfig(t_end=3.0 * TWO_PI, h=1e-3, record_every=2))
        measured, predicted = third_harmonic_check(p, traj)
        assert predicted == pytest.approx((1783.0 / 290304.0) * eps**3 * y0**-9.5, rel=1e-14)
        assert measured > 0.0  # canonical sign
        assert abs(abs(measured) - predicted) / predicted < 0.25


def test_fourier_windows_match_the_public_functions():
    # one pass over every window gives the bits of the per-window functions
    p = params(eps=0.1, y0=1.0)
    traj = integrate_y(p, IntegrationConfig(t_end=44.0, h=1e-3, record_every=5))
    c, s, fit, resid_s3, third = fourier_windows(p, traj)
    assert c.shape == (4, 7) and s.shape == (3, 7) and resid_s3.shape == (7,)
    for i, k in enumerate(fit.windows):
        hw = project_harmonics(traj, int(k), n_harmonics=3)
        assert hw.k == k
        assert np.array_equal(c[:, i], hw.c) and np.array_equal(s[:, i], hw.s)
    ref = secular_slope(traj, params=p)
    assert np.array_equal(fit.windows, ref.windows)
    assert np.array_equal(fit.amplitudes, ref.amplitudes)
    assert (fit.slope, fit.intercept, fit.r2) == (ref.slope, ref.intercept, ref.r2)
    assert third == third_harmonic_check(p, traj)


def test_third_harmonic_unforced():
    p = params(eps=0.0)
    traj = integrate_y(p, IntegrationConfig(t_end=3.0 * TWO_PI, h=1e-3, record_every=2))
    measured, predicted = third_harmonic_check(p, traj)
    assert abs(measured) < 1e-12
    assert predicted == 0.0


def test_periodicity_defect_unforced_is_zero():
    p = params(eps=0.0)
    h = TWO_PI / 2048
    traj = integrate_y(p, IntegrationConfig(t_end=6.0 * TWO_PI, h=h, record_every=1))
    d = periodicity_defect(traj)
    assert d.max == 0.0


def test_periodicity_defect_positive_and_growing():
    p = params(eps=0.1, y0=1.0)
    h = TWO_PI / 2048
    traj = integrate_y(p, IntegrationConfig(t_end=300.0, h=h, record_every=1))
    d = periodicity_defect(traj)
    sel_mask = (d.tau >= 50.0) & (d.tau <= 293.0)
    sel_t = d.tau[sel_mask]
    sel = d.defect[sel_mask]
    assert sel.min() > 1e-5
    slope = np.polyfit(sel_t, sel, 1)[0]
    assert slope > 0.0


def test_periodicity_defect_first_order_truncation_is_periodic():
    # y0 (1 + delta R_1) is exactly 2 pi periodic; build its trajectory on an
    # aligned grid so the comparison is sample-exact
    eps, y0 = 0.1, 1.0
    h = TWO_PI / 2048
    tau = h * np.arange(5 * 2048 + 1)
    r1, dr1 = _sum(tau, ("rho", [0.0, 1.0]), ("drho", [0.0, 1.0]))
    y = y0 * (1.0 + eps * (y0**-3.5 * r1))
    dy = y0 * eps * (y0**-3.5 * dr1)
    ddy = y0 * eps * y0**-3.5 * (-np.sin(tau) / 3.0 + 2.0 * np.sin(2.0 * tau) / 3.0)
    traj = Trajectory(times=tau, columns=("tau", "y", "dy", "ddy"),
                      data=np.column_stack([tau, y, dy, ddy]))
    d = periodicity_defect(traj)
    assert d.max < 1e-13


def test_periodicity_defect_interpolating_path():
    # grid that does not divide the period: interpolation fallback
    p = params(eps=0.1, y0=1.0)
    traj = integrate_y(p, IntegrationConfig(t_end=8.0 * TWO_PI, h=1e-3, record_every=1))
    d = periodicity_defect(traj)
    assert d.defect.min() >= 0.0
    assert d.max > 1e-5


@pytest.mark.parametrize("period", [0.0, -1.0, math.nan, math.inf])
def test_periodicity_defect_rejects_bad_period(period):
    traj = integrate_y(params(), IntegrationConfig(t_end=3.0 * TWO_PI, h=1e-2, record_every=1))
    with pytest.raises(InvalidInput, match="period must be finite and > 0"):
        periodicity_defect(traj, period=period)


def test_periodicity_defect_needs_two_periods():
    p = params()
    traj = integrate_y(p, IntegrationConfig(t_end=TWO_PI, h=1e-3, record_every=1))
    with pytest.raises(InsufficientSamples):
        periodicity_defect(traj)
