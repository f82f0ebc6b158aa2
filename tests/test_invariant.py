import math
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tubeint._rk4 as rk4
import tubeint.integrate
import tubeint.invariant
from tubeint.errors import Escape, InvalidInput, TubeIntError, UnsupportedOmega
from tubeint.integrate import IntegrationConfig, integrate_coupled, integrate_z
from tubeint.invariant import (
    _alpha2,
    _exact,
    _forcing,
    drift_experiment,
    exact_drift_experiment,
    invariant_exact_series,
    tube_surface_samples,
)
from tubeint.model import SystemParams, Trajectory, validate_params
from tubeint.perturb import alpha2_derivatives, g_of_t, y_composite

# frozen probes of the coefficient series blocks at tau=1.3, y0=1.1 (from the
# symbolic derivation of -alpha2' and the once-integrated alpha2''/2)
A31_BLOCKS_1P3 = (0.0088575569030902041, -0.021986835351038118, 0.0045057066879462503)
A4_BLOCKS_1P3 = (-0.29533374524604583, 0.018625313913336189, -0.0022406166850965181)


def params(eps=0.05, y0=1.1, omega=1.0):
    return validate_params(SystemParams(omega=omega, epsilon=eps, y0=y0))


def test_coeffs_unforced_limit():
    # the invariant's coefficients: a5 = alpha2, a4 = -alpha2', a3 = alpha2 +
    # alpha2''/2, a6 = (2/3) alpha2^(-3/2), and a1, a2 = -alpha1', alpha1
    p = params(eps=0.0, y0=1.4)
    y, dy, ddy = _alpha2(7.3, p, 3)
    alpha1, dalpha1 = _forcing(7.3, p)
    assert -dalpha1 == 0.0 and alpha1 == 0.0 and -dy == 0.0
    assert y + 0.5 * ddy == pytest.approx(1.4, rel=1e-15)
    assert y == pytest.approx(1.4, rel=1e-15)
    assert (2.0 / 3.0) * y**-1.5 == pytest.approx((2.0 / 3.0) * 1.4**-1.5, rel=1e-15)


def test_linear_coefficients_at_zero():
    alpha1, dalpha1 = _forcing(0.0, params(eps=0.05))
    assert -dalpha1 == 0.0
    assert alpha1 == pytest.approx(0.025, rel=1e-15)


def test_a1_sign_consistent_with_exact_invariant():
    # A1 = -alpha1' = +(eps/2) sin t; the opposite sign would disagree with
    # the exact invariant at O(eps) and ruin the drift bands
    _, dalpha1 = _forcing(math.pi / 2.0, params(eps=0.05))
    assert -dalpha1 == pytest.approx(+0.025, rel=1e-12)


def test_coefficient_series_block_probes():
    # alpha2''/2 is a3 - a5 and -alpha2' is a4
    p = params(eps=1.0, y0=1.1)
    for order, (e31, e4) in enumerate(zip(np.cumsum(A31_BLOCKS_1P3), np.cumsum(A4_BLOCKS_1P3)),
                                      start=1):
        _, dy, ddy = _alpha2(1.3, p, order)
        assert float(ddy / 2.0) == pytest.approx(e31, rel=1e-13)
        assert float(-dy) == pytest.approx(e4, rel=1e-13)


def test_coeffs_require_unit_omega():
    with pytest.raises(UnsupportedOmega):
        _alpha2(0.0, params(omega=2.0), 3)


def test_initial_invariant_value_example():
    v = drift_experiment(params(eps=0.05, y0=1.1), z0=0.2, p0=0.0, t_end=1.0).column("I")[0]
    expect = 1.1 * 0.04 + (2.0 / 3.0) * 1.1**-1.5 * 0.008
    assert v == pytest.approx(expect, rel=1e-14)
    assert v == pytest.approx(0.04862284891755439, rel=1e-13)


def test_a3_cross_check_against_volterra_reconstruction():
    t = np.linspace(0.0, 50.0, 2001)
    sups = {}
    for eps in (0.1, 0.05):
        p = params(eps=eps, y0=1.0)
        y, _, ddy = _alpha2(t, p, 3)
        c3 = y + 0.5 * ddy
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
        sups[eps] = float(np.max(np.abs(-_alpha2(t, p, 3)[1] + d1)))
    assert 12.0 < sups[0.1] / sups[0.05] < 20.0


def test_exact_invariant_autonomous_form():
    p = params(eps=0.0, y0=1.0)
    row = [1.0, 0.0, 0.0, 0.0, 0.3, 0.1]
    traj = Trajectory(times=np.array([0.7, 1.4]), columns=("tau", "y", "dy", "ddy", "J", "z", "p"),
                      data=np.array([[0.7] + row, [1.4] + row]))
    v = invariant_exact_series(traj, p)[0]
    assert v == pytest.approx(0.1**2 + 0.3**2 + (2.0 / 3.0) * 0.3**3, rel=1e-14)


def test_exact_invariant_is_the_written_formula_with_its_cube_as_products():
    # the cube is (z*z)*z, not numpy's power, whose bits differ (for a
    # negative base, by a scalar path of the CPU dispatch); the (rows, 1)
    # coefficient columns against (rows, N) oscillator tables give each
    # column the bits of its own 1-D evaluation
    p = params(eps=0.1, y0=0.9, omega=1.3)
    rng = np.random.default_rng(29)
    rows, n = 200, 8
    t = np.linspace(0.0, 20.0, rows)[:, None]
    y, dy, ddy = rng.uniform(0.5, 1.5, (rows, 1)), *rng.uniform(-0.3, 0.3, (2, rows, 1))
    z, zp = rng.uniform(-1.0, 1.0, (2, rows, n))
    assert (z < 0).any() and (z > 0).any()
    assert (np.power(z, 3) != z * z * z).any()  # so a return to np.power fails below
    om = p.omega
    alpha1, dalpha1 = tubeint.invariant._forcing(t, p)
    written = (y * zp * zp - om * dy * z * zp + alpha1 * zp + om * om * (y + 0.5 * ddy) * z * z
               - dalpha1 * z + (2.0 / 3.0) * y**-1.5 * (z * z * z))
    values = tubeint.invariant._exact(p, t, y, dy, ddy, z, zp)
    assert values.shape == (rows, n)
    assert values.tobytes() == written.tobytes()
    for j in range(n):
        column = tubeint.invariant._exact(p, t[:, 0], y[:, 0], dy[:, 0], ddy[:, 0], z[:, j],
                                          zp[:, j])
        assert column.tobytes() == values[:, j].tobytes()


def test_perturbative_invariant_is_the_exact_one_on_the_series_alpha2(monkeypatch):
    # one formula: each block is _exact on the series' (alpha2, alpha2', alpha2'')
    monkeypatch.setattr(tubeint.invariant, "_CHUNK", 1000)
    p = params(eps=0.05, y0=0.8)
    t = np.linspace(0.0, 300.0, 3001)
    z, zp = np.random.default_rng(30).uniform(-0.3, 0.3, (2, t.size))
    values = tubeint.invariant._perturbative(p, 3, t, z, zp)
    assert values.tobytes() == _exact(p, t, *_alpha2(t, p, 3), z, zp).tobytes()


@pytest.mark.parametrize("y0", [1.2, 0.8])
def test_perturbative_invariant_is_its_six_coefficient_sum_within_4_ulp(y0):
    # the sum a1 z + a2 p + a3 z^2 + a4 z p + a5 p^2 + a6 z^3, written out, on
    # the oscillator of the drift experiment: _exact sums the same products
    # in another order
    p = params(eps=0.05, y0=y0)
    cfg = IntegrationConfig(t_end=500.0, h=1e-2, record_every=1)
    traj = integrate_z(lambda t: g_of_t(t, p, 3), 0.2, 0.0, 1.0, cfg)
    t, z, zp = traj.times, traj.column("z"), traj.column("p")
    y, dy, ddy = _alpha2(t, p, 3)
    alpha1, dalpha1 = _forcing(t, p)
    a1, a2, a3, a4, a5, a6 = -dalpha1, alpha1, y + 0.5 * ddy, -dy, y, (2.0 / 3.0) * y**-1.5
    reference = a1 * z + a2 * zp + a3 * z * z + a4 * z * zp + a5 * zp * zp + a6 * (z * z * z)
    values = tubeint.invariant._perturbative(p, 3, t, z, zp)
    assert np.all(np.abs(values - reference) <= 4 * np.spacing(np.abs(reference)))


def test_exact_invariant_conserved_along_coupled_run():
    p = params()
    traj = integrate_coupled(p, 0.2, 0.0, IntegrationConfig(t_end=50.0, h=1e-3, record_every=100))
    I = invariant_exact_series(traj, p)
    assert np.max(np.abs(I - I[0])) / abs(I[0]) < 1e-9


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


def test_perturbative_drift_holds_little_beyond_its_result():
    # t = 100 recorded every step: the invariant is evaluated per block of
    # _CHUNK samples, so only one block's coefficient series and temporaries
    # are held at a time.  Measured 3.16 MB above the result, against 6.11 MB
    # with the full-length series and the invariant summed term by term.
    import tracemalloc

    p = SystemParams(epsilon=0.05, y0=0.8)
    drift_experiment(p, t_end=10.0, record_every=1)  # first-use caches outside the measurement
    tracemalloc.start()
    try:
        traj = drift_experiment(p, t_end=100.0, record_every=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.data.shape == (100001, 3)
    assert peak - traj.data.nbytes - traj.times.nbytes < 3.5 * 2**20


# Evaluates the perturbative invariant on one grid in blocks of several sizes,
# in the child's own numpy dispatch.  Prints the enabled dispatch targets first
# and one sha256 per block size last.
_BLOCKS_CHILD = """
import hashlib
import numpy as np
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
import tubeint.invariant as inv
from tubeint.model import SystemParams

print(" ".join(name for name in __cpu_dispatch__ if __cpu_features__.get(name)))
t = np.linspace(0.0, 300.0, 10001)
z, p = np.random.default_rng(5).uniform(-0.3, 0.3, (2, t.size))
digests = []
for chunk in (inv._CHUNK, 7, 1000, t.size):
    inv._CHUNK = chunk
    values = inv._perturbative(SystemParams(epsilon=0.05, y0=0.8), 3, t, z, p)
    digests.append(hashlib.sha256(values.tobytes()).hexdigest())
print(" ".join(digests))
"""


@pytest.mark.parametrize("disabled", ["", "AVX512_SPR AVX512_ICL X86_V4"])
def test_perturbative_blocks_keep_the_bits_under_either_numpy_dispatch(disabled):
    # numpy's exp, sin, cos and power run a vector loop and a remainder: a
    # block that starts at another offset must still give each point's bits
    src = Path(tubeint.invariant.__file__).resolve().parents[1]
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": disabled,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _BLOCKS_CHILD], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert not set(lines[0].split()) & set(disabled.split())
    assert len(set(lines[-1].split())) == 1


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
    from tubeint.errors import NonPositive

    data = np.array([
        [0.0, 1.0, 0.0, 0.0, 0.0, 0.1, 0.0],
        [0.1, -1.0, 0.0, 0.0, 0.0, 0.1, 0.0],
    ])
    traj = Trajectory(times=np.array([0.0, 0.1]), columns=("tau", "y", "dy", "ddy", "J", "z", "p"),
                      data=data)
    with pytest.raises(NonPositive, match="^y "):
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


def test_tube_grid_must_be_1d():
    with pytest.raises(InvalidInput, match="z0 grid must be 1-D, got shape"):
        tube_surface_samples(params(), [[0.1, 0.2]], [0.0], 1.0)


def _filament_loop(p, z0_grid, p0_grid, cfg):
    """The tube filaments as one integrate_coupled run per (z0, p0), in grid order:
    the reference of the lockstep batch."""
    out = []
    for z0 in z0_grid:
        for p0 in p0_grid:
            traj = integrate_coupled(p, z0, p0, cfg)
            values = invariant_exact_series(traj, p)
            K = float(values[0])
            out.append((z0, p0, K, traj.times, traj.column("z"), traj.column("p"),
                        float(np.max(np.abs(values - K)))))
    return out


def _bytes(filaments):
    return [np.array([z0, p0, K, dev]).tobytes() + t.tobytes() + z.tobytes() + p.tobytes()
            for z0, p0, K, t, z, p, dev in filaments]


def _failure(run):
    """(class, message, time) of the error that run() raises."""
    with pytest.raises(TubeIntError) as info:
        run()
    return type(info.value), str(info.value), info.value.t


@st.composite
def tube_grids(draw):
    grid = st.lists(st.floats(-0.5, 0.5, allow_nan=False), min_size=1, max_size=9)
    h = draw(st.floats(1e-3, 0.1))
    cfg = IntegrationConfig(t_end=h * draw(st.integers(1, 40)), h=h,
                            record_every=draw(st.integers(1, 12)))
    p = params(eps=draw(st.floats(0.0, 0.2)), y0=draw(st.floats(0.8, 1.5)))
    return p, draw(grid), draw(grid), cfg, draw(st.sampled_from([1, 7, 4096]))


def _pin_parts(mp, parts, path="c"):
    """Run every grid in min(parts, filaments) parts on the given RK4 path."""
    mp.setattr(tubeint.integrate, "_table_helpers", lambda: parts - 1)
    if path == "python":
        mp.setattr(rk4, "_lib", None)


@pytest.mark.parametrize("path", ["c", "python"])
@settings(derandomize=True, max_examples=25, deadline=None)
@given(case=tube_grids())
def test_tube_batch_matches_one_run_per_filament(path, case):
    p, z0_grid, p0_grid, cfg, chunk = case
    for parts in (1, 2, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tubeint.integrate, "_CHUNK", chunk)
            _pin_parts(mp, parts, path)
            batch = tube_surface_samples(p, z0_grid, p0_grid, cfg.t_end, cfg.h,
                                         cfg.record_every)
            loop = _filament_loop(p, z0_grid, p0_grid, cfg)
        got = [(f.z0, f.p0, f.K, f.t, f.z, f.p, f.max_abs_deviation) for f in batch]
        assert _bytes(got) == _bytes(loop), parts


def test_tube_parts_stepping_at_once_over_several_chunks_keep_their_filaments():
    # two parts of 3 and 4 filaments step concurrently over three chunks
    # (each of several coefficient passes of the compiled RK4), at different
    # paces: a kept-g buffer shared between the runs would change the bits
    p, cfg = params(), IntegrationConfig(t_end=10.0, h=1e-3, record_every=7)
    z0_grid, p0_grid = [0.1, -0.2, 0.3, 0.05, -0.35, 0.25, -0.15], [0.1]
    assert cfg.plan()[0] > 2 * tubeint.integrate._CHUNK
    loop = _filament_loop(p, z0_grid, p0_grid, cfg)
    with pytest.MonkeyPatch.context() as mp:
        _pin_parts(mp, 2)
        batch = tube_surface_samples(p, z0_grid, p0_grid, cfg.t_end, cfg.h, cfg.record_every)
    got = [(f.z0, f.p0, f.K, f.t, f.z, f.p, f.max_abs_deviation) for f in batch]
    assert _bytes(got) == _bytes(loop)


# (params, z0 grid, p0 grid, config): a grid whose integration fails
_TUBE_FAILURES = {
    # -3 escapes first (t = 2.23), but -2 (t = 3.04) comes first in the grid
    "escape": (params(), [0.1, -2.0, -3.0, 0.2], [0.0, 0.1],
               IntegrationConfig(t_end=20.0, h=1e-2, record_every=5)),
    "positivity": (params(eps=0.5, y0=0.3), [0.1, 0.2], [0.0],
                   IntegrationConfig(t_end=20.0, h=1e-2, record_every=5)),
    "overflow": (params(eps=0.0, y0=1e-250), [0.1, 0.2], [0.0],
                 IntegrationConfig(t_end=0.01, h=1e-3)),
    # in 2 parts (0.1, 0.2, 0.3 | -2, -3, 0.4) the first part runs and the
    # second fails first at -3; in 3 parts -2 and -3 fail in different parts
    "escape-in-part-2": (params(), [0.1, 0.2, 0.3, -2.0, -3.0, 0.4], [0.0],
                         IntegrationConfig(t_end=20.0, h=1e-2, record_every=5)),
}


@pytest.mark.parametrize("path", ["c", "python"])
@pytest.mark.parametrize("name", list(_TUBE_FAILURES))
def test_tube_batch_failure_is_that_of_the_first_failing_filament(path, name):
    p, z0_grid, p0_grid, cfg = _TUBE_FAILURES[name]
    threads = threading.active_count()
    with pytest.MonkeyPatch.context() as mp:
        if path == "python":
            mp.setattr(rk4, "_lib", None)
        loop = _failure(lambda: _filament_loop(p, z0_grid, p0_grid, cfg))
    assert loop[0].__name__ == {"escape": "Escape", "positivity": "PositivityViolation",
                                "overflow": "NonFinite", "escape-in-part-2": "Escape"}[name]
    for parts in (1, 2, 3):
        with pytest.MonkeyPatch.context() as mp:
            _pin_parts(mp, parts, path)
            batch = _failure(lambda: tube_surface_samples(p, z0_grid, p0_grid, cfg.t_end, cfg.h,
                                                          cfg.record_every))
        assert batch == loop, parts
        assert threading.active_count() == threads


@pytest.mark.parametrize("path", ["c", "python"])
def test_tube_parts_leave_no_thread_running(path):
    threads = threading.active_count()
    with pytest.MonkeyPatch.context() as mp:
        _pin_parts(mp, 3, path)
        filaments = tube_surface_samples(params(), [0.1, 0.2, 0.3], [0.0, 0.1], t_end=0.1)
    assert threading.active_count() == threads
    assert len(filaments) == 6


@pytest.mark.parametrize("path", ["c", "python"])
def test_every_part_of_a_tube_grid_runs_at_once(path):
    # 6 parts, more than integrate._AHEAD + 1: each part waits at a barrier
    # until all six have started, so a window that held any part back would
    # break the barrier
    assert tubeint.integrate._AHEAD + 1 < 6
    barrier = threading.Barrier(6, timeout=20)
    part = tubeint.invariant._tube_part

    def waiting(*args):
        barrier.wait()
        return part(*args)

    cfg = IntegrationConfig(t_end=0.1, h=1e-2, record_every=2)
    loop = _filament_loop(params(), [0.1, 0.2, 0.3], [0.0, 0.1], cfg)
    with pytest.MonkeyPatch.context() as mp:
        _pin_parts(mp, 6, path)
        mp.setattr(tubeint.invariant, "_tube_part", waiting)
        batch = tube_surface_samples(params(), [0.1, 0.2, 0.3], [0.0, 0.1], cfg.t_end, cfg.h,
                                     cfg.record_every)
    got = [(f.z0, f.p0, f.K, f.t, f.z, f.p, f.max_abs_deviation) for f in batch]
    assert _bytes(got) == _bytes(loop)


def test_tube_parts_on_more_threads_than_cores_keep_their_filaments():
    # 7 parts, more than most hosts have cores, switching threads every
    # microsecond: a part that stored its filaments in another part's place,
    # or lost them, would change the grid
    p, cfg = params(), IntegrationConfig(t_end=3.0, h=1e-2, record_every=3)
    z0_grid, p0_grid = [0.1, -0.2, 0.3, 0.05, -0.35, 0.25, -0.15], [0.0, 0.2]
    loop = _filament_loop(p, z0_grid, p0_grid, cfg)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            with pytest.MonkeyPatch.context() as mp:
                _pin_parts(mp, 7)
                batch = tube_surface_samples(p, z0_grid, p0_grid, cfg.t_end, cfg.h,
                                             cfg.record_every)
            got = [(f.z0, f.p0, f.K, f.t, f.z, f.p, f.max_abs_deviation) for f in batch]
            assert _bytes(got) == _bytes(loop)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("path", ["c", "python"])
def test_tube_parts_run_under_the_callers_error_state(path):
    # p0 = 1e160 makes y p^2 overflow in the invariant of the second part
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error")
        _pin_parts(mp, 2, path)
        with np.errstate(all="ignore"):
            filaments = tube_surface_samples(params(), [0.1], [0.0, 1e160], t_end=2e-200,
                                             h=1e-200, record_every=1)
    assert math.isfinite(filaments[0].K) and filaments[1].K == math.inf


def test_tube_grid_is_one_lockstep_integration_per_part():
    drive = tubeint.integrate._drive
    for parts in (1, 2, 3):
        calls = []

        def counted(*args, **kwargs):
            calls.append((args[0], len(args[2])))
            return drive(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tubeint.integrate, "_drive", counted)
            _pin_parts(mp, parts)
            filaments = tube_surface_samples(params(), [0.1, 0.2, 0.3], [0.0, 0.1], t_end=2.0)
        # one run per part, of (y, y', y'', J) and 6 / parts (z, p) pairs
        assert calls == [("coupled", 4 + 2 * 6 // parts)] * parts
        assert len(filaments) == 6


def test_tube_time_only_terms_are_evaluated_once_per_part():
    forcing = tubeint.invariant._forcing
    for parts in (1, 2, 3):
        calls = []

        def counted(t, params):
            calls.append(np.shape(t))
            return forcing(t, params)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tubeint.invariant, "_forcing", counted)
            _pin_parts(mp, parts)
            filaments = tube_surface_samples(params(), [0.1, 0.2, 0.3], [0.0, 0.1], t_end=2.0)
        rows = len(filaments[0].t)
        assert calls == [(rows, 1)] * parts
        assert len(filaments) == 6


def _part_runs(mp, z0_grid, p0_grid) -> int:
    """The lockstep runs, one per part, of a tube grid sampled under mp's pins."""
    calls = []
    drive = tubeint.integrate._drive

    def counted(*args, **kwargs):
        calls.append(args[0])
        return drive(*args, **kwargs)

    mp.setattr(tubeint.integrate, "_drive", counted)
    filaments = tube_surface_samples(params(), z0_grid, p0_grid, t_end=0.1)
    assert len(filaments) == len(z0_grid) * len(p0_grid)
    return len(calls)


@pytest.mark.parametrize("path", ["c", "python"])
def test_tube_grid_runs_one_part_per_core_and_one_without_the_compiled_rk4(path):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        if path == "python":
            mp.setattr(rk4, "_lib", None)
        compiled = rk4.library() is not None
        parts = _part_runs(mp, [0.1, 0.2, 0.3], [0.0, 0.1])
    assert parts == (4 if compiled else 1)


def test_tube_parts_follow_the_cpu_count_without_an_affinity_mask(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    if rk4.library() is not None:
        with pytest.MonkeyPatch.context() as mp:
            assert _part_runs(mp, np.linspace(-0.3, 0.3, 8), np.linspace(-0.3, 0.3, 8)) == 3
        with pytest.MonkeyPatch.context() as mp:
            assert _part_runs(mp, [0.1, 0.2], [0.0]) == 2
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rk4, "_lib", None)
        assert _part_runs(mp, np.linspace(-0.3, 0.3, 8), np.linspace(-0.3, 0.3, 8)) == 1
