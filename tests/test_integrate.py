import math
import shutil

import numpy as np
import pytest

import tubeint._rk4 as rk4
import tubeint.integrate
from tubeint.ermakov import LogisticDriver, integrate_ermakov
from tubeint.errors import Escape, InvalidInput, NonPositive, PositivityViolation
from tubeint.integrate import (
    IntegrationConfig,
    convergence_order,
    integrate_coupled,
    integrate_y,
    integrate_z,
)
from tubeint.model import SystemParams, validate_params
from tubeint.perturb import g_of_t


def params(eps=0.1, y0=1.0, omega=1.0, **kw):
    return validate_params(SystemParams(omega=omega, epsilon=eps, y0=y0, **kw))


def simpson(values, h):
    n = len(values) - 1
    assert n % 2 == 0
    return h / 3.0 * (values[0] + values[-1] + 4.0 * values[1:-1:2].sum() + 2.0 * values[2:-1:2].sum())


def test_config_validation():
    with pytest.raises(ValueError):
        IntegrationConfig(t_end=0.0)
    with pytest.raises(ValueError):
        IntegrationConfig(t_end=1.0, h=0.0)
    with pytest.raises(ValueError):
        IntegrationConfig(t_end=1.0, record_every=0)


@pytest.mark.parametrize("kwargs", [
    dict(record_every=2.5),  # was accepted, then a TypeError inside the driver
    dict(record_every=2.0),
    dict(escape_z=math.nan),  # was an Escape at t = h
    dict(escape_z=0.0),
    dict(escape_z=-1.0),
])
def test_config_rejects_unusable_values(kwargs):
    with pytest.raises(InvalidInput):
        IntegrationConfig(t_end=1.0, **kwargs)


def test_config_accepts_numpy_integer_record_every():
    cfg = IntegrationConfig(t_end=1.0, h=0.1, record_every=np.int64(5))
    assert cfg.plan() == (10, 2)
    assert len(integrate_z(lambda t: 0.0, 0.2, 0.0, 1.0, cfg)) == 3


@pytest.mark.parametrize("omega", [-1.0, 0.0, math.nan, math.inf])
def test_oscillator_rejects_nonpositive_omega(omega):
    with pytest.raises(NonPositive, match="^omega "):
        integrate_z(lambda t: 0.0, 0.2, 0.0, omega, IntegrationConfig(t_end=1.0))


@pytest.mark.parametrize("omega", [0.7, 5.5, 7.1, 1e-107])
def test_rescaled_y_run_does_not_depend_on_omega(omega):
    # the unit forcing profile is (c1, c2)/hypot(c1, c2): omega^3 and eps do not enter it
    cfg = IntegrationConfig(t_end=10.0, h=1e-3, record_every=100)
    reference = integrate_y(params(omega=1.0), cfg)
    traj = integrate_y(params(omega=omega), cfg)
    assert traj.data.tobytes() == reference.data.tobytes()


@pytest.mark.parametrize("c1, c2", [(0.1, 0.0), (2.5, -0.0), (0.0, 0.0), (0.1, 0.05),
                                     (-0.1, 0.0), (0.0, 0.3)])
def test_forcing_profile_has_the_bits_of_both_terms(c1, c2):
    # canonical and unforced runs take cos(tau) alone: 1.0 * cos = cos, and
    # cos + (+-0.0) = cos because no finite double has a cosine of 0
    r = math.hypot(c1, c2)
    a, b = (c1 / r, c2 / r) if r else (1.0, 0.0)
    profile = tubeint.integrate._profile(SystemParams(c1=c1, c2=c2))
    tau = np.concatenate([np.linspace(-50.0, 500.0, 100_001), [0.0, -0.0, 1e6, math.pi / 2]])
    assert profile(tau).tobytes() == (a * np.cos(tau) + b * np.sin(tau)).tobytes()
    assert (profile is np.cos) == (c1 >= 0.0 and c2 == 0.0)


def test_plan_rounds_up_to_record_multiple():
    cfg = IntegrationConfig(t_end=1.05, h=1e-2, record_every=10)
    n_steps, n_intervals = cfg.plan()
    assert n_steps == 110 and n_intervals == 11


@pytest.mark.parametrize("t_end, h", [(1.0, 10.0), (1.0, 2.0), (0.49, 1.0), (1e-300, 1.0)])
def test_config_rejects_a_run_of_no_steps(t_end, h):
    # round(t_end / h) = 0 was run as one step, to t = h
    with pytest.raises(InvalidInput, match="rounds to 0 steps"):
        IntegrationConfig(t_end=t_end, h=h)


@pytest.mark.parametrize("t_end, h, record_every", [(0.51, 1.0, 1), (1.0, 0.4, 1),
                                                    (1.05, 1e-2, 10), (1.0, 0.3, 7),
                                                    (2.5, 1.0, 3), (0.6, 0.4, 4)])
def test_plan_ends_within_half_a_step_before_and_a_record_interval_after(t_end, h,
                                                                         record_every):
    n_steps, n_intervals = IntegrationConfig(t_end, h, record_every=record_every).plan()
    assert n_steps == n_intervals * record_every >= 1
    assert t_end - h / 2 <= n_steps * h <= t_end + (record_every - 0.5) * h


def test_unforced_constant_solution():
    traj = integrate_y(params(eps=0.0), IntegrationConfig(t_end=10.0, h=1e-3, record_every=100))
    assert np.all(traj.column("y") == 1.0)
    assert np.all(traj.column("dy") == 0.0)
    # J integrates cos exactly up to RK4 error
    assert np.max(np.abs(traj.column("J") - np.sin(traj.column("tau")))) < 1e-12


def test_y_tracks_series_short_horizon():
    from tubeint.perturb import y_composite

    p = params()
    traj = integrate_y(p, IntegrationConfig(t_end=20.0, h=1e-3, record_every=100))
    rel = np.abs(traj.column("y") - y_composite(traj.column("tau"), p, 3)) / traj.column("y")
    assert rel.max() < 1e-4


def test_volterra_state_matches_simpson_quadrature():
    p = params()
    traj = integrate_y(p, IntegrationConfig(t_end=20.0, h=1e-3, record_every=1))
    tau = traj.column("tau")
    integrand = traj.column("y") ** -2.5 * np.cos(tau)
    J_quad = simpson(integrand, 1e-3)
    assert abs(traj.column("J")[-1] - J_quad) < 1e-9


@pytest.mark.parametrize("y0, bound", [(1.0, 1e-10), (0.7, 1e-7)])
def test_y_matches_an_independent_dop853_run(y0, bound):
    # scipy's 8th-order Dormand-Prince at tight tolerances, compared at the
    # recorded times of the RK4 run (h = 1e-3, tau = 500): about 5e-12 for
    # y0 = 1 and 3e-9 for y0 = 0.7
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    p = params(eps=0.1, y0=y0)
    traj = integrate_y(p, IntegrationConfig(t_end=500.0, h=1e-3))

    def rhs(tau, x):
        y, dy, ddy, _ = x
        pw = y**-2.5
        return [dy, ddy, p.epsilon * math.cos(tau) * pw - 4.0 * dy, pw * math.cos(tau)]

    ref = solve_ivp(rhs, (0.0, 500.0), [y0, 0.0, 0.0, 0.0], method="DOP853",
                    t_eval=traj.times, rtol=1e-12, atol=1e-14)
    assert ref.success
    assert np.max(np.abs(ref.y[0] - traj.column("y"))) <= bound


def test_determinism_bit_identical():
    p = params()
    cfg = IntegrationConfig(t_end=5.0, h=1e-3, record_every=10)
    a = integrate_y(p, cfg)
    b = integrate_y(p, cfg)
    assert np.array_equal(a.data, b.data)


def test_positivity_violation_raises_with_time():
    # unforced with y'(0) = -2: y = 0.5 - sin(2 tau), crosses zero at pi/12
    with pytest.warns(UserWarning):
        p = validate_params(SystemParams(epsilon=0.0, y0=0.5, yp0=-2.0))
    with pytest.raises(PositivityViolation) as exc:
        integrate_y(p, IntegrationConfig(t_end=5.0, h=1e-3))
    assert abs(exc.value.t - math.pi / 12.0) < 0.01


def test_harmonic_oscillator_limit():
    traj = integrate_z(lambda t: 0.0, 0.2, 0.0, 1.0, IntegrationConfig(t_end=10.0, h=1e-3, record_every=10))
    t = traj.times
    assert np.max(np.abs(traj.column("z") - 0.2 * np.cos(t))) < 1e-9


def test_rest_solution_stays_at_rest():
    traj = integrate_z(lambda t: 1.0, 0.0, 0.0, 1.0, IntegrationConfig(t_end=5.0, h=1e-3, record_every=10))
    assert np.all(traj.column("z") == 0.0)
    assert np.all(traj.column("p") == 0.0)


def test_escape_raises_with_time():
    with pytest.raises(Escape) as exc:
        integrate_z(lambda t: 1.0, -5.0, 0.0, 1.0,
                    IntegrationConfig(t_end=50.0, h=1e-3, record_every=10, escape_z=1e3))
    assert 0.0 < exc.value.t < 50.0


def test_escape_before_two_samples_raises():
    with pytest.raises(Escape) as exc:
        integrate_z(lambda t: 1.0, -5.0, 0.0, 1.0,
                    IntegrationConfig(t_end=50.0, h=1e-3, record_every=100000, escape_z=1e3))
    assert 0.0 < exc.value.t < 50.0


def test_nan_oscillator_state_escapes_at_its_step():
    # z0 = 1e200 overflows z*z in the first step, so z is NaN after it.
    with pytest.raises(Escape) as exc:
        integrate_coupled(params(), 1e200, 0.0,
                          IntegrationConfig(t_end=1.0, h=1e-3, record_every=1000))
    assert exc.value.t == 0.001


def test_coupled_autonomous_limit_conserves_energy_like_invariant():
    p = params(eps=0.0, y0=1.0)
    traj = integrate_coupled(p, 0.2, 0.0, IntegrationConfig(t_end=20.0, h=1e-3, record_every=100))
    z = traj.column("z")
    pp = traj.column("p")
    I = pp**2 + z**2 + (2.0 / 3.0) * z**3
    assert np.max(np.abs(I - I[0])) / abs(I[0]) < 1e-10


def test_coupled_tau_column_uses_omega():
    p = params(eps=0.0, omega=2.0)
    traj = integrate_coupled(p, 0.1, 0.0, IntegrationConfig(t_end=5.0, h=1e-3, record_every=100))
    assert np.allclose(traj.column("tau"), 2.0 * traj.times, rtol=0.0, atol=1e-12)


def test_convergence_order_y_system():
    order = convergence_order("y", params(), 0.05, 10.0)
    assert abs(order - 4.0) < 0.3


def test_convergence_order_unforced_reports_exact():
    assert math.isinf(convergence_order("y", params(eps=0.0), 1e-3, 10.0))


def test_convergence_order_harmonic_z():
    order = convergence_order("z", params(), 0.05, 10.0)
    assert abs(order - 4.0) < 0.3
    p = params()
    order = convergence_order("z", p, 0.05, 10.0, g=lambda t: g_of_t(t, p, 3))
    assert abs(order - 4.0) < 0.3


def test_convergence_order_coupled():
    order = convergence_order("coupled", params(eps=0.05, y0=1.1), 0.05, 10.0)
    assert abs(order - 4.0) < 0.3


@pytest.mark.parametrize("chunk", [1, 7])
def test_coefficient_chunk_size_leaves_results_bit_identical(monkeypatch, chunk):
    p = params(eps=0.1, y0=1.1)

    def g(t):
        return g_of_t(t, p, 3)

    cfg = IntegrationConfig(t_end=0.5, h=1e-2, record_every=3)
    escape_cfg = IntegrationConfig(t_end=50.0, h=1e-2, record_every=10, escape_z=1e3)

    def runs():
        with pytest.raises(Escape) as exc:
            integrate_z(g, -5.0, 0.0, 1.0, escape_cfg)
        return exc.value.t, [
            integrate_z(g, 0.2, 0.1, 1.0, cfg),
            integrate_coupled(p, 0.2, 0.1, cfg),
            integrate_ermakov(LogisticDriver(), config=cfg),
        ]

    t_escape, reference = runs()
    monkeypatch.setattr(tubeint.integrate, "_CHUNK", chunk)
    chunked_t_escape, chunked = runs()
    for ref, traj in zip(reference, chunked):
        assert np.array_equal(ref.times, traj.times)
        assert np.array_equal(ref.data, traj.data)
    assert chunked_t_escape == t_escape
    # the escape falls in a later chunk than the first at both chunk sizes
    assert t_escape > 7 * 1e-2


@pytest.mark.parametrize("path", [
    pytest.param("c", marks=pytest.mark.skipif(shutil.which("cc") is None,
                                               reason="no C compiler")),
    "python",
])
def test_a_longer_run_starts_with_the_bits_of_a_shorter_one(monkeypatch, path):
    # a fixed-step run's rows do not depend on t_end: a run to 5 windows of 2 pi
    # holds the 3-window run's rows bit for bit, on either RK4
    if path == "python":
        monkeypatch.setattr(rk4, "_lib", None)
    elif rk4.library() is None:
        pytest.skip("the compiled library did not build")
    p = params(eps=0.2, y0=1.0)
    for run in (lambda cfg: integrate_y(p, cfg),
                lambda cfg: integrate_coupled(p, 0.2, 0.1, cfg)):
        short, long = (run(IntegrationConfig(t_end=n * 2.0 * math.pi, h=1e-3, record_every=2))
                       for n in (3, 5))
        assert short.meta["kernel"] == long.meta["kernel"] == path
        assert len(long) > len(short)
        assert short.times.tobytes() == long.times[: len(short)].tobytes()
        assert short.data.tobytes() == long.data[: len(short)].tobytes()


def test_y_run_holds_little_beyond_its_table_and_times():
    # the README fourier run (tau 300, every 5th step): the driver records into
    # the trajectory's own table, so the run's peak is that table and the
    # times, plus the chunk coefficient tables in flight.  Measured 0.13 MB
    # above them, against 2.36 MB when the states were copied into a second
    # table and the times formed from two full-length temporaries.
    import tracemalloc

    p, cfg = params(eps=0.1, y0=1.0), IntegrationConfig(t_end=300.0, h=1e-3, record_every=5)
    integrate_y(p, cfg)  # first-use builds and caches outside the measurement
    tracemalloc.start()
    try:
        traj = integrate_y(p, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.data.flags.owndata and traj.data.shape == (60001, 5)
    assert peak - traj.data.nbytes - traj.times.nbytes < 0.5 * 2**20


@pytest.mark.parametrize("run", ["y", "coupled", "ermakov"])
def test_time_columns_are_filled_in_the_recorded_table(run):
    cfg = IntegrationConfig(t_end=2.0, h=1e-2, record_every=3)
    p = params(eps=0.1, y0=1.1, omega=1.3)
    traj = {"y": lambda: integrate_y(p, cfg),
            "coupled": lambda: integrate_coupled(p, 0.2, 0.1, cfg),
            "ermakov": lambda: integrate_ermakov(LogisticDriver(), config=cfg)}[run]()
    assert traj.data.flags.owndata
    first = traj.data[:, 0]
    expected = {"y": traj.times, "coupled": p.omega * traj.times, "ermakov": traj.times}[run]
    assert first.tobytes() == np.ascontiguousarray(expected).tobytes()
