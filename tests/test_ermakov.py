import numpy as np
import pytest

from tubeint.ermakov import (
    CubicSpline,
    LogisticDriver,
    build_driver,
    integrate_ermakov,
    lewis_invariant,
    logistic_sequence,
)
from tubeint.errors import (
    InvalidInput,
    NonPositive,
    NonPositiveF,
    OutOfRange,
    PositivityViolation,
)
from tubeint.integrate import IntegrationConfig


def lewis_series(traj):
    return lewis_invariant(traj.column("z"), traj.column("p"), traj.column("w"), traj.column("dw"))


def test_logistic_fixed_point_after_two_steps():
    seq = logistic_sequence(0.5, 4)
    assert np.array_equal(seq, [0.5, 1.0, 0.0, 0.0])


def test_logistic_first_iterate():
    seq = logistic_sequence(0.37, 2)
    assert seq[1] == pytest.approx(4.0 * 0.37 * 0.63, rel=1e-15)


def test_logistic_zero_seed():
    assert np.all(logistic_sequence(0.0, 5) == 0.0)


@pytest.mark.parametrize("bad", [-0.1, 1.5])
def test_logistic_seed_out_of_range(bad):
    with pytest.raises(OutOfRange):
        logistic_sequence(bad, 3)


def test_driver_validation():
    with pytest.raises(OutOfRange):
        LogisticDriver(l0=2.0)
    with pytest.raises(ValueError):
        LogisticDriver(ts=0.0)
    with pytest.raises(ValueError):
        LogisticDriver(f0=-1.0)
    with pytest.raises(ValueError):
        LogisticDriver(df=1.0)  # df must stay below f0
    for name in ("ts", "f0"):
        for bad in (np.inf, np.nan):
            with pytest.raises(InvalidInput, match=f"^{name} must be finite and > 0"):
                LogisticDriver(**{name: bad})


def test_driver_knot_values():
    drv = LogisticDriver(l0=0.37, f0=1.0, df=0.3)
    knots = drv.knots(2)
    assert knots[0] == pytest.approx(1.0 + 0.3 * (2 * 0.37 - 1.0), rel=1e-15)


def test_spline_interpolates_and_is_c2():
    rng = np.random.default_rng(7)
    x = np.arange(12.0)
    y = rng.uniform(0.5, 1.5, size=12)
    sp = CubicSpline(x, y)
    assert np.max(np.abs(sp(x) - y)) < 1e-12
    for xi in x[1:-1]:
        for deriv in (0, 1, 2):
            left = sp(xi - 1e-9, deriv)
            right = sp(xi + 1e-9, deriv)
            assert abs(left - right) < 1e-6
    # natural boundary: zero curvature at the ends
    assert sp(x[0], 2) == 0.0
    assert sp(x[-1], 2) == 0.0


def test_spline_reproduces_constants_without_overshoot():
    sp = CubicSpline(np.arange(8.0), np.full(8, 1.3))
    t = np.linspace(0.0, 7.0, 400)
    assert np.max(np.abs(sp(t) - 1.3)) < 1e-14
    _, vmin = sp.piecewise_minimum()
    assert vmin == pytest.approx(1.3, rel=1e-14)


def random_splines(count=6, n=12):
    rng = np.random.default_rng(11)
    for _ in range(count):
        x = np.cumsum(rng.uniform(0.5, 1.5, size=n))
        yield CubicSpline(x, rng.uniform(0.5, 1.5, size=n))


def test_spline_minimum_is_a_spline_value_and_below_every_sample():
    interior = 0
    for sp in random_splines():
        t_min, v_min = sp.piecewise_minimum()
        assert v_min == sp(t_min)
        samples = sp(np.linspace(sp.x[0], sp.x[-1], 1_000_000))
        assert v_min <= samples.min() + 1e-15
        interior += t_min not in sp.x
    assert interior >= 1


def test_spline_minimum_makes_one_spline_call():
    calls = []

    class Counting(CubicSpline):
        def __call__(self, t, deriv=0):
            calls.append(deriv)
            return super().__call__(t, deriv)

    for sp in random_splines(count=1):
        Counting(sp.x, sp.y).piecewise_minimum()
    assert calls == [0]


def test_spline_scalar_fast_path_matches():
    drv = LogisticDriver()
    sp = build_driver(drv, 20.0)
    t = np.linspace(0.0, 20.0, 500)
    vec = sp(t)
    scal = np.array([sp.eval_scalar(float(tt)) for tt in t])
    assert np.max(np.abs(vec - scal)) < 1e-14


def test_spline_rejects_out_of_range_and_bad_knots():
    sp = CubicSpline(np.arange(5.0), np.ones(5))
    with pytest.raises(ValueError):
        sp(-1.0)
    for bad in (np.nan, np.array([1.0, np.nan])):
        with pytest.raises(InvalidInput, match="outside the knot range"):
            sp(bad)
    with pytest.raises(ValueError):
        CubicSpline(np.array([0.0, 0.0, 1.0]), np.ones(3))


def test_build_driver_constant_when_unmodulated():
    sp = build_driver(LogisticDriver(df=0.0, f0=0.8), 30.0)
    t = np.linspace(0.0, 30.0, 300)
    assert np.max(np.abs(sp(t) - 0.8)) < 1e-14


def test_build_driver_default_band():
    sp = build_driver(LogisticDriver(), 200.0)
    t = np.linspace(0.0, 200.0, 20001)
    f = sp(t)
    assert f.min() > 0.5 and f.max() < 1.5


def test_build_driver_overshoot_raises():
    with pytest.raises(NonPositiveF):
        build_driver(LogisticDriver(l0=0.15, f0=0.5, df=0.49), 40.0)


def test_equilibrium_constant_coefficient():
    for f0 in (1.0, 4.0):
        drv = LogisticDriver(f0=f0, df=0.0)
        traj = integrate_ermakov(drv, config=IntegrationConfig(t_end=20.0, h=1e-3, record_every=100))
        w = traj.column("w")
        assert np.max(np.abs(w - f0**-0.25)) < 1e-12


def test_harmonic_oscillator_under_unit_coefficient():
    drv = LogisticDriver(f0=1.0, df=0.0)
    traj = integrate_ermakov(drv, z0=0.2, p0=0.0,
                             config=IntegrationConfig(t_end=10.0, h=1e-3, record_every=10))
    t = traj.column("t")
    assert np.max(np.abs(traj.column("z") - 0.2 * np.cos(t))) < 1e-9


def test_lewis_invariant_values():
    assert lewis_invariant(0.0, 0.0, 1.0, 0.0) == 0.0
    assert lewis_invariant(0.3, 0.4, 1.0, 0.0) == pytest.approx(0.5 * (0.09 + 0.16), rel=1e-15)
    with pytest.raises(NonPositive, match="^w "):
        lewis_invariant(0.1, 0.0, -1.0, 0.0)
    with pytest.raises(NonPositive, match="^w "):
        lewis_invariant(np.ones(3), np.ones(3), np.array([1.0, 0.0, 1.0]), np.zeros(3))


def test_chaotic_driver_conserves_invariant():
    traj = integrate_ermakov(LogisticDriver(), config=IntegrationConfig(t_end=50.0, h=1e-3, record_every=100))
    I = lewis_series(traj)
    assert I[0] > 0.0
    assert np.max(np.abs(I - I[0])) / I[0] < 1e-7
    assert traj.column("w").min() > 0.0


def test_invariant_drift_is_integrator_order():
    drv = LogisticDriver()
    drifts = []
    for h, rec in [(4e-3, 25), (2e-3, 50)]:
        traj = integrate_ermakov(drv, config=IntegrationConfig(t_end=50.0, h=h, record_every=rec))
        I = lewis_series(traj)
        drifts.append(np.max(np.abs(I - I[0])) / I[0])
    assert 10.0 < drifts[0] / drifts[1] < 24.0


def test_w_positivity_violation_detected_at_stage():
    with pytest.raises(PositivityViolation, match="^w <= 0"):
        integrate_ermakov(LogisticDriver(), w0=0.01, dw0=-10.0,
                          config=IntegrationConfig(t_end=5.0, h=0.5))


def test_nonpositive_w0_rejected():
    with pytest.raises(NonPositive):
        integrate_ermakov(LogisticDriver(), w0=-1.0,
                          config=IntegrationConfig(t_end=5.0, h=1e-2))
