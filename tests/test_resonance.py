import math
import random
import tracemalloc

import numpy as np
import pytest

import tubeint._rk4 as rk4
from tubeint.errors import InsufficientSamples, InsufficientWindows, InvalidInput
from tubeint.integrate import IntegrationConfig, integrate_y
from tubeint.model import SystemParams, Trajectory, validate_params
from tubeint.perturb import (_power_product, _prepare, _sum, resonance_coefficients, validity,
                             y_composite)
from tubeint.resonance import (_cover, _project, _secular_fit, fourier_windows,
                               periodicity_defect)

TWO_PI = 2.0 * math.pi


def params(eps=0.1, y0=1.0):
    return validate_params(SystemParams(epsilon=eps, y0=y0))


def synthetic_tau(n_periods=3, nodes_per_period=2048):
    return TWO_PI / nodes_per_period * np.arange(n_periods * nodes_per_period + 1)


def window(tau, values, k):
    """(c, s) of values over window k, 8 harmonics, once the window is covered."""
    _cover(tau, [k])
    [(c, s)] = _project(tau, [values], [k], 8)
    return c[:, 0], s[:, 0]


def test_projection_constant_signal():
    tau = synthetic_tau()
    c, s = window(tau, np.ones_like(tau), 0)
    assert c[0] == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(c[1:])) < 1e-10
    assert np.max(np.abs(s)) < 1e-10


def test_projection_pure_harmonic():
    tau = synthetic_tau()
    c, s = window(tau, np.sin(tau), 1)
    assert s[0] == pytest.approx(1.0, abs=1e-8)
    assert abs(c[1]) < 1e-8
    assert np.max(np.abs(s[1:])) < 1e-8


def test_projection_requires_dense_coverage():
    with pytest.raises(InsufficientSamples, match=r"^window 0 holds 100 samples; need >= 1000$"):
        _cover(TWO_PI / 100 * np.arange(301), [0])
    with pytest.raises(InsufficientSamples, match=r"^trajectory does not cover window 5 \(\["
                                                  r"31\.41592653589793, 37\.69911184307752\]\)$"):
        _cover(synthetic_tau(n_periods=2), [5])


def test_first_order_amplitude_and_quadratic_gap():
    gaps = {}
    for eps in (0.2, 0.1, 0.05):
        p = params(eps=eps)
        traj = integrate_y(p, IntegrationConfig(t_end=5.0 * TWO_PI, h=1e-3, record_every=2))
        s1 = fourier_windows(p, traj)[1][0, 0]
        assert s1 > 0.0  # canonical orientation: + eps/3 y0^(-5/2)
        gaps[eps] = abs(s1) - eps / 3.0
        assert abs(gaps[eps]) < 0.02 * eps**2
    assert gaps[0.2] / gaps[0.1] > 3.5
    assert gaps[0.1] / gaps[0.05] > 3.5


def test_secular_slope_matches_resonance_coefficient():
    p = params(eps=0.1, y0=1.0)
    traj = integrate_y(p, IntegrationConfig(t_end=300.0, h=1e-3, record_every=5))
    fit = fourier_windows(p, traj)[2]
    predicted = (5.0 / 96.0) * 0.01
    assert abs(fit.slope - predicted) / predicted < 0.10
    assert fit.r2 > 0.99


def test_secular_slope_scales_with_y0():
    p = params(eps=0.1, y0=2.0)
    traj = integrate_y(p, IntegrationConfig(t_end=300.0, h=1e-3, record_every=5))
    fit = fourier_windows(p, traj)[2]
    predicted = (5.0 / 96.0) * 0.01 * 2.0**-6.0
    assert abs(fit.slope - predicted) / predicted < 0.15


def test_secular_slope_unforced_is_zero():
    p = params(eps=0.0)
    traj = integrate_y(p, IntegrationConfig(t_end=12.0 * TWO_PI, h=1e-3, record_every=5))
    fit = fourier_windows(p, traj)[2]
    assert abs(fit.slope) < 1e-10


def test_secular_slope_needs_five_windows():
    p = params()
    traj = integrate_y(p, IntegrationConfig(t_end=3.0 * TWO_PI, h=1e-3, record_every=5))
    with pytest.raises(InsufficientWindows):
        fourier_windows(p, traj)


@pytest.mark.parametrize("c1, c2", [(0.0, 0.1), (-0.1, 0.0)])
def test_secular_slope_rejects_non_canonical_forcing(c1, c2):
    p = SystemParams(c1=c1, c2=c2)
    traj = integrate_y(p, IntegrationConfig(t_end=44.0, h=1e-3, record_every=5))
    with pytest.raises(InvalidInput, match="canonical forcing orientation"):
        fourier_windows(p, traj)


def test_secular_slope_enforces_validity_horizon():
    p = params(eps=0.4, y0=0.8)  # tau* = 96*0.8^6/(5*0.16) ~ 31.5
    traj = integrate_y(p, IntegrationConfig(t_end=8.0 * TWO_PI, h=1e-3, record_every=2))
    with pytest.raises(ValueError):
        fourier_windows(p, traj)


def test_third_harmonic_within_band():
    for eps, y0 in [(0.2, 1.0), (0.2, 2.0)]:
        p = params(eps=eps, y0=y0)
        traj = integrate_y(p, IntegrationConfig(t_end=5.0 * TWO_PI, h=1e-3, record_every=2))
        measured, predicted = fourier_windows(p, traj)[4]
        assert predicted == pytest.approx((1783.0 / 290304.0) * eps**3 * y0**-9.5, rel=1e-14)
        assert measured > 0.0  # canonical sign
        assert abs(abs(measured) - predicted) / predicted < 0.25


def test_third_harmonic_unforced():
    p = params(eps=0.0)
    traj = integrate_y(p, IntegrationConfig(t_end=5.0 * TWO_PI, h=1e-3, record_every=2))
    measured, predicted = fourier_windows(p, traj)[4]
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


def test_periodicity_defect_rejects_a_grid_that_does_not_divide_two_pi():
    # no interpolation: the comparison is sample-exact or not made
    traj = integrate_y(params(), IntegrationConfig(t_end=3.0 * TWO_PI, h=1e-2, record_every=1))
    with pytest.raises(InvalidInput, match=r"^sample spacing 0\.01\d* does not divide 2 pi$"):
        periodicity_defect(traj)


def test_periodicity_defect_rejects_pairs_that_are_not_two_pi_apart():
    # the first gap divides 2 pi, the later ones are twice as wide: each pair
    # m = 64 samples apart spans about 4 pi, and comparing them would report
    # a nonzero defect of cos tau + 2, which is 2 pi periodic
    h = TWO_PI / 64
    tau = np.concatenate([[0.0], h + 2.0 * h * np.arange(200)])
    y = np.cos(tau) + 2.0
    traj = Trajectory(times=tau, columns=("tau", "y", "dy", "ddy"),
                      data=np.column_stack([tau, y, -np.sin(tau), -np.cos(tau)]))
    with pytest.raises(InvalidInput, match=r"^samples at tau = 0\.0 and \S+ are not 2 pi apart$"):
        periodicity_defect(traj)


def test_periodicity_defect_needs_two_periods():
    p = params()
    traj = integrate_y(p, IntegrationConfig(t_end=TWO_PI, h=1e-3, record_every=1))
    with pytest.raises(InsufficientSamples):
        periodicity_defect(traj)


def _whole_trajectory_fourier(params, traj):
    """``fourier_windows`` as it was before each window read its own samples:
    every series over the whole trajectory, then one projection of them all.
    The reference of the windowed projection."""
    tau = traj.column("tau")
    windows = list(range(int(math.floor(tau[-1] / TWO_PI + 1e-12))))
    if len(windows) < 5:
        raise InsufficientWindows(f"need >= 5 complete windows, got {len(windows)}")
    horizon = TWO_PI * (windows[-1] + 1)
    limit = 0.2 * validity(params)
    if horizon > limit:
        raise InvalidInput(f"fit horizon {horizon:.1f} exceeds 0.2 tau* = {limit:.1f}")
    y0, eps = params.y0, params.epsilon
    y = traj.column("y")
    if eps == 0.0:
        residual1 = y - y0
    else:
        [r1] = _sum(tau, ("rho", [0.0, 1.0]))
        if math.isfinite(eps * y0):
            residual1 = y - y0 - eps * y0 * (y0**-3.5 * r1)
        else:
            residual1 = y - y0 - y0 * (params.eps_eff * r1)
    _cover(tau, windows)
    (c, s), (_, resid1), (_, resid2) = _project(
        tau, [y, residual1, y - y_composite(tau, params, 2)], windows, 3)
    fit = _secular_fit(windows, resid1[1])
    s3 = resid2[2]
    s3_coef = float(resonance_coefficients()["s3"])
    try:
        predicted = s3_coef * eps**3 * y0**-9.5 if eps else 0.0
    except OverflowError:
        predicted = _power_product(s3_coef, (eps, 3.0), (y0, -9.5))
    return c, s, fit, s3, (float(s3[0] - (s3[1] - s3[0]) * 0.5), predicted)


def _fourier_outcome(run, p, traj):
    """The bytes of every result of run(p, traj), or its error and message."""
    try:
        c, s, fit, s3, third = run(p, traj)
    except (InsufficientSamples, InvalidInput) as exc:
        return type(exc), str(exc)
    floats = np.array([fit.slope, fit.intercept, fit.r2, *third])  # NaN compares by its bits
    return (c.tobytes(), s.tobytes(), fit.windows.tobytes(), fit.amplitudes.tobytes(),
            s3.tobytes(), floats.tobytes())


# The fourier command's grid at tau 300: eps, y0, record_every and h.
_FOURIER_GRID = [(eps, y0, rec, h) for eps in (0.0, 0.05, 0.1) for y0 in (0.9, 1.0, 1.2)
                 for rec in range(1, 8) for h in (1e-3, 1.3e-3)]


@pytest.mark.parametrize("eps, y0, rec, h", [
    *random.Random(25).sample(_FOURIER_GRID, 5),
    (0.1, 0.9, 2, 1e-3),  # beyond the validity horizon
    (0.05, 1.0, 7, 1.3e-3),  # too few samples per window
])
def test_windowed_projection_has_the_bits_of_the_whole_trajectory_projection(eps, y0, rec, h):
    p = params(eps=eps, y0=y0)
    traj = integrate_y(p, IntegrationConfig(t_end=300.0, h=h, record_every=rec))
    windowed = _fourier_outcome(fourier_windows, p, traj)
    assert windowed == _fourier_outcome(_whole_trajectory_fourier, p, traj)
    assert (len(windowed) == 2) == ((eps, y0) == (0.1, 0.9) or rec * h > 6.2e-3)


@pytest.mark.parametrize("path", ["c", "python"])
@pytest.mark.parametrize("eps, y0, h", [
    (0.2, 1.0, TWO_PI / 6000),  # samples on the window edges
    (0.0, 1.0, TWO_PI / 6000),
    (1e200, 1e250, 5e-3),  # eps y0 overflows
])
def test_windowed_projection_on_edge_grids_and_either_series_path(monkeypatch, path, eps, y0, h):
    if path == "python":
        monkeypatch.setattr(rk4, "_lib", None)
    p = params(eps=eps, y0=y0)
    tau = h * np.arange(round(6.0 * TWO_PI / h) + 2)
    # a smooth signal near y in place of an integration, which only supplies samples
    y = y_composite(tau, p, 3) * (1.0 + 1e-3 * np.sin(2.0 * tau) * tau)
    traj = Trajectory(times=tau, columns=("tau", "y"), data=np.stack([tau, y], axis=1))
    with np.errstate(over="ignore", invalid="ignore"):  # as the fourier command runs
        windowed = _fourier_outcome(fourier_windows, p, traj)
        assert windowed == _fourier_outcome(_whole_trajectory_fourier, p, traj)
    assert len(windowed) > 2 and np.isfinite(np.frombuffer(windowed[0])).all()


@pytest.mark.parametrize("path", ["c", "python"])
def test_one_series_pass_gives_each_pair_the_bits_of_its_own_pass(monkeypatch, path):
    # R_1 and the order-2 exponent from one _sum call, as fourier_windows takes
    # them: a pair with fewer harmonics adds nothing for the higher ones
    if path == "python":
        monkeypatch.setattr(rk4, "_lib", None)
    tau = np.concatenate([np.linspace(0.0, 300.0, 20011), [1e-300, 1e3, 1e5]])
    for eps, y0 in ((0.1, 1.0), (0.05, 0.8), (0.0, 1.0), (0.3, 1.7)):
        pairs = ("rho", [0.0, 1.0]), ("rho", _prepare(params(eps=eps, y0=y0), 2))
        together = _sum(tau, *pairs)
        apart = [_sum(tau, pair)[0] for pair in pairs]
        assert [a.tobytes() for a in together] == [a.tobytes() for a in apart]


def test_projection_reads_each_window_from_its_own_samples():
    # the README fourier run: the windows' series and copies are formed on the
    # ~1,260 samples of one window at a time.  Measured 0.25 MB above the input,
    # against 2.55 MB with whole-trajectory series and copies.
    p = params(eps=0.1, y0=1.0)
    traj = integrate_y(p, IntegrationConfig(t_end=300.0, h=1e-3, record_every=5))
    fourier_windows(p, traj)  # first-use caches outside the measurement
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fourier_windows(p, traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < 0.6 * 2**20


def test_cover_brackets_each_window():
    tau = synthetic_tau(n_periods=4)
    brackets = _cover(tau, [0, 1, 3])
    for k, bracket in zip([0, 1, 3], brackets):
        inside = tau[bracket]
        assert inside[0] <= TWO_PI * k and inside[-1] >= TWO_PI * (k + 1) - 1e-12
        # no more than one sample beyond each end, and the first window from sample 0
        assert (inside[1:-1] >= TWO_PI * k).all() and (inside[1:-1] <= TWO_PI * (k + 1)).all()
    assert brackets[0].start == 0 and brackets[-1].stop >= len(tau)
