import math

import numpy as np
import pytest

import tubeint.integrate
from tubeint.ermakov import LogisticDriver, integrate_ermakov
from tubeint.errors import Escape, PositivityViolation
from tubeint.integrate import (
    IntegrationConfig,
    convergence_order,
    integrate_coupled,
    integrate_y,
    integrate_z,
    ystate_at,
    zstate_at,
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


def test_plan_rounds_up_to_record_multiple():
    cfg = IntegrationConfig(t_end=1.05, h=1e-2, record_every=10)
    n_steps, n_intervals = cfg.plan()
    assert n_steps == 110 and n_intervals == 11


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
    J_quad = simpson(integrand, traj.h)
    assert abs(traj.column("J")[-1] - J_quad) < 1e-9


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


def test_escape_returns_partial_trajectory_with_flag():
    traj = integrate_z(lambda t: 1.0, -5.0, 0.0, 1.0,
                       IntegrationConfig(t_end=50.0, h=1e-3, record_every=10, escape_z=1e3))
    assert traj.meta["escaped"] is True
    assert traj.meta["escape_t"] < 50.0
    assert traj.times[-1] <= traj.meta["escape_t"]


def test_escape_before_two_samples_raises():
    with pytest.raises(Escape):
        integrate_z(lambda t: 1.0, -5.0, 0.0, 1.0,
                    IntegrationConfig(t_end=50.0, h=1e-3, record_every=100000, escape_z=1e3))


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


def test_state_record_accessors():
    p = params()
    traj = integrate_coupled(p, 0.2, 0.0, IntegrationConfig(t_end=2.0, h=1e-3, record_every=100))
    ys = ystate_at(traj, 3)
    zs = zstate_at(traj, 3)
    assert ys.tau == pytest.approx(traj.column("tau")[3])
    assert ys.y > 0.0
    assert zs.t == pytest.approx(traj.times[3])


@pytest.mark.parametrize("chunk", [1, 7])
def test_coefficient_chunk_size_leaves_results_bit_identical(monkeypatch, chunk):
    p = params(eps=0.1, y0=1.1)

    def g(t):
        return g_of_t(t, p, 3)

    cfg = IntegrationConfig(t_end=0.5, h=1e-2, record_every=3)
    escape_cfg = IntegrationConfig(t_end=50.0, h=1e-2, record_every=10, escape_z=1e3)

    def runs():
        return [
            integrate_z(g, 0.2, 0.1, 1.0, cfg),
            integrate_coupled(p, 0.2, 0.1, cfg),
            integrate_ermakov(LogisticDriver(), config=cfg),
            integrate_z(g, -5.0, 0.0, 1.0, escape_cfg),
        ]

    reference = runs()
    monkeypatch.setattr(tubeint.integrate, "_CHUNK", chunk)
    for ref, traj in zip(reference, runs()):
        assert np.array_equal(ref.data, traj.data)
        assert ref.meta.get("escape_t") == traj.meta.get("escape_t")
    # the escape falls in a later chunk than the first at both chunk sizes
    assert reference[-1].meta["escaped"] and reference[-1].meta["escape_t"] > 7 * 1e-2
