import math

import numpy as np
import pytest

from tubeint.errors import Escape, UnsupportedOmega
from tubeint.integrate import IntegrationConfig, integrate_coupled, ystate_at, zstate_at
from tubeint.invariant import (
    _a31,
    _a4,
    drift_experiment,
    exact_drift_experiment,
    invariant_coeffs,
    invariant_exact,
    invariant_exact_series,
    invariant_value,
    tube_surface_samples,
)
from tubeint.model import SystemParams, YState, ZState, validate_params
from tubeint.perturb import alpha2_derivatives, y_composite

# frozen probes of the coefficient series blocks at tau=1.3, y0=1.1 (from the
# symbolic derivation of -alpha2' and the once-integrated alpha2''/2)
A31_BLOCKS_1P3 = (0.0088575569030902041, -0.021986835351038118, 0.0045057066879462503)
A4_BLOCKS_1P3 = (-0.29533374524604583, 0.018625313913336189, -0.0022406166850965181)


def params(eps=0.05, y0=1.1, omega=1.0):
    return validate_params(SystemParams(omega=omega, epsilon=eps, y0=y0))


def test_coeffs_unforced_limit():
    c = invariant_coeffs(7.3, params(eps=0.0, y0=1.4), 3)
    assert c.a1 == 0.0 and c.a2 == 0.0 and c.a4 == 0.0
    assert c.a3 == pytest.approx(1.4, rel=1e-15)
    assert c.a5 == pytest.approx(1.4, rel=1e-15)
    assert c.a6 == pytest.approx((2.0 / 3.0) * 1.4**-1.5, rel=1e-15)


def test_linear_coefficients_at_zero():
    c = invariant_coeffs(0.0, params(eps=0.05), 3)
    assert c.a1 == 0.0
    assert c.a2 == pytest.approx(0.025, rel=1e-15)


def test_a1_sign_consistent_with_exact_invariant():
    # A1 = -alpha1' = +(eps/2) sin t; the opposite sign would disagree with
    # the exact invariant at O(eps) and ruin the drift bands
    c = invariant_coeffs(math.pi / 2.0, params(eps=0.05), 3)
    assert c.a1 == pytest.approx(+0.025, rel=1e-12)


def test_coefficient_series_block_probes():
    for order, expect in enumerate(np.cumsum(A31_BLOCKS_1P3), start=1):
        assert float(_a31(1.3, 1.1, 1.0, order)) == pytest.approx(expect, rel=1e-13)
    for order, expect in enumerate(np.cumsum(A4_BLOCKS_1P3), start=1):
        assert float(_a4(1.3, 1.1, 1.0, order)) == pytest.approx(expect, rel=1e-13)


def test_coeffs_require_unit_omega():
    with pytest.raises(UnsupportedOmega):
        invariant_coeffs(0.0, params(omega=2.0), 3)


def test_initial_invariant_value_example():
    c = invariant_coeffs(0.0, params(eps=0.05, y0=1.1), 3)
    v = invariant_value(c, 0.2, 0.0)
    expect = 1.1 * 0.04 + (2.0 / 3.0) * 1.1**-1.5 * 0.008
    assert v == pytest.approx(expect, rel=1e-14)
    assert v == pytest.approx(0.04862284891755439, rel=1e-13)


def test_a3_cross_check_against_volterra_reconstruction():
    t = np.linspace(0.0, 50.0, 2001)
    sups = {}
    for eps in (0.1, 0.05):
        p = params(eps=eps, y0=1.0)
        c3 = _a31(t, 1.0, eps, 3) + y_composite(t, p, 3)
        _, dd = alpha2_derivatives(t, p, 3)
        alt = y_composite(t, p, 3) + 0.5 * dd
        sups[eps] = float(np.max(np.abs(c3 - alt)))
    assert 12.0 < sups[0.1] / sups[0.05] < 20.0


def test_a4_matches_exact_series_derivative_to_eps4():
    t = np.linspace(0.0, 50.0, 2001)
    sups = {}
    for eps in (0.1, 0.05):
        p = params(eps=eps, y0=1.0)
        d1, _ = alpha2_derivatives(t, p, 3)
        sups[eps] = float(np.max(np.abs(_a4(t, 1.0, eps, 3) + d1)))
    assert 12.0 < sups[0.1] / sups[0.05] < 20.0


def test_exact_invariant_autonomous_form():
    p = params(eps=0.0, y0=1.0)
    ys = YState(tau=0.7, y=1.0, dy=0.0, ddy=0.0, volterra=0.0)
    zs = ZState(t=0.7, z=0.3, p=0.1)
    v = invariant_exact(ys, zs, p)
    assert v == pytest.approx(0.1**2 + 0.3**2 + (2.0 / 3.0) * 0.3**3, rel=1e-14)


def test_exact_invariant_time_mismatch_rejected():
    p = params()
    ys = YState(tau=1.0, y=1.0, dy=0.0, ddy=0.0, volterra=0.0)
    zs = ZState(t=2.0, z=0.1, p=0.0)
    with pytest.raises(ValueError):
        invariant_exact(ys, zs, p)


def test_exact_invariant_conserved_along_coupled_run():
    p = params()
    traj = integrate_coupled(p, 0.2, 0.0, IntegrationConfig(t_end=50.0, h=1e-3, record_every=100))
    I = invariant_exact_series(traj, p)
    assert np.max(np.abs(I - I[0])) / abs(I[0]) < 1e-9
    # scalar op agrees with the vectorized series
    i = 137
    assert invariant_exact(ystate_at(traj, i), zstate_at(traj, i), p) == pytest.approx(I[i], rel=1e-12)


def test_exact_invariant_conserved_for_general_omega():
    p = validate_params(SystemParams(omega=2.0, c1=0.8, c2=0.0, y0=1.0))
    traj = integrate_coupled(p, 0.2, 0.0, IntegrationConfig(t_end=20.0, h=1e-3, record_every=100))
    I = invariant_exact_series(traj, p)
    assert np.max(np.abs(I - I[0])) / abs(I[0]) < 1e-9


def test_exact_invariant_conserved_with_sine_forcing():
    p = validate_params(SystemParams(omega=1.0, c1=0.03, c2=0.04, y0=1.1))
    traj = integrate_coupled(p, 0.2, 0.0, IntegrationConfig(t_end=20.0, h=1e-3, record_every=100))
    I = invariant_exact_series(traj, p)
    assert np.max(np.abs(I - I[0])) / abs(I[0]) < 1e-9


def test_exact_invariant_conserved_for_random_parameters():
    # property: conservation holds for any admissible parameter draw, not just
    # the showcased corners
    rng = np.random.default_rng(2024)
    for _ in range(6):
        p = validate_params(SystemParams(
            omega=float(rng.uniform(0.5, 2.5)),
            c1=float(rng.uniform(-0.1, 0.1)),
            c2=float(rng.uniform(-0.1, 0.1)),
            y0=float(rng.uniform(0.8, 1.5)),
        ))
        z0 = float(rng.uniform(-0.2, 0.2))
        p0 = float(rng.uniform(-0.2, 0.2))
        traj = integrate_coupled(p, z0, p0, IntegrationConfig(t_end=10.0, h=1e-3, record_every=50))
        I = invariant_exact_series(traj, p)
        scale = max(abs(I[0]), 1e-3)
        assert np.max(np.abs(I - I[0])) / scale < 1e-9


def test_drift_experiment_small_horizon():
    traj = drift_experiment(params(eps=0.05, y0=1.2), t_end=50.0)
    assert traj.columns == ("t", "I", "drift_pct")
    assert traj.meta["max_drift_pct"] < 0.05
    assert traj.meta["absolute_mode"] is False


def test_drift_experiment_unforced_is_flat():
    traj = drift_experiment(params(eps=0.0, y0=1.0), t_end=50.0)
    assert traj.meta["max_drift_pct"] < 1e-10


def test_drift_insensitive_to_step_in_perturbative_mode():
    p = params(eps=0.05, y0=0.9)
    a = drift_experiment(p, t_end=50.0, h=1e-3, record_every=100)
    b = drift_experiment(p, t_end=50.0, h=5e-4, record_every=200)
    ma, mb = a.meta["max_drift_pct"], b.meta["max_drift_pct"]
    assert abs(ma - mb) / ma < 0.01
    # while the exact-mode drift is pure integrator error and drops ~16x
    ea = exact_drift_experiment(p, t_end=50.0, h=4e-3, record_every=25).meta["max_drift_pct"]
    eb = exact_drift_experiment(p, t_end=50.0, h=2e-3, record_every=50).meta["max_drift_pct"]
    assert 10.0 < ea / eb < 24.0


def test_drift_improves_with_truncation_order():
    p = params(eps=0.05, y0=0.9)
    drifts = [drift_experiment(p, t_end=50.0, order=o).meta["max_drift_pct"] for o in (1, 2, 3)]
    assert drifts[0] > drifts[1] > drifts[2]


def test_exact_series_rejects_nonpositive_samples():
    from tubeint.errors import NonPositiveY
    from tubeint.model import Trajectory

    data = np.array([
        [0.0, 1.0, 0.0, 0.0, 0.0, 0.1, 0.0],
        [0.1, -1.0, 0.0, 0.0, 0.0, 0.1, 0.0],
    ])
    traj = Trajectory(t0=0.0, h=0.1, columns=("tau", "y", "dy", "ddy", "J", "z", "p"), data=data)
    with pytest.raises(NonPositiveY):
        invariant_exact_series(traj, params())


def test_drift_requires_unit_omega():
    with pytest.raises(UnsupportedOmega):
        drift_experiment(params(omega=2.0), t_end=10.0)


def test_drift_escape_propagates():
    with pytest.raises(Escape):
        drift_experiment(params(eps=0.05, y0=1.1), z0=-8.0, t_end=50.0)


def test_drift_absolute_mode_guard():
    traj = drift_experiment(params(eps=0.05, y0=1.1), z0=0.0, p0=0.0, t_end=10.0)
    assert traj.meta["absolute_mode"] is True
    assert traj.meta["max_drift_pct"] < 1e-12


def test_tube_filaments_constant_level_sets():
    p = params()
    filaments = tube_surface_samples(p, [0.1, 0.2], [0.0], t_end=20.0)
    assert len(filaments) == 2
    for f in filaments:
        assert f.max_abs_deviation < 1e-10
    assert filaments[0].K != filaments[1].K


def test_tube_autonomous_sections_lie_on_one_closed_curve():
    # unforced case: the level set is a closed curve in (z, p) and the t=0 and
    # t=2 pi section points both sit on it to integrator accuracy (the orbit
    # itself has an amplitude-dependent period, so the points need not match)
    p = params(eps=0.0, y0=1.0)
    h = 2.0 * math.pi / 4096
    filaments = tube_surface_samples(p, [0.2], [0.0], t_end=4.0 * math.pi, h=h, record_every=1)
    f = filaments[0]
    level = f.p**2 + f.z**2 + (2.0 / 3.0) * f.z**3
    assert np.max(np.abs(level - level[0])) < 1e-10
    n = 4096
    section_value = f.p[n] ** 2 + f.z[n] ** 2 + (2.0 / 3.0) * f.z[n] ** 3
    assert abs(section_value - level[0]) < 1e-10
    # and the orbit is genuinely closed: it revisits its start within the run
    dist = np.hypot(f.z - f.z[0], f.p - f.p[0])
    assert np.min(dist[2048:]) < 1e-2


def test_tube_empty_grid_rejected():
    with pytest.raises(ValueError):
        tube_surface_samples(params(), [], [0.0], t_end=10.0)
