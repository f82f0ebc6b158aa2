import math

import numpy as np
import pytest

from tubeint.errors import InconsistentEpsilon, NonPositive, NonPositiveY
from tubeint.model import (
    SystemParams,
    Trajectory,
    YState,
    ZState,
    validate_params,
)


def test_epsilon_from_c1():
    p = validate_params(SystemParams(omega=1.0, c1=0.1, c2=0.0, y0=1.0))
    assert p.epsilon == pytest.approx(0.1, rel=1e-15)


def test_epsilon_zero_forcing():
    p = validate_params(SystemParams(omega=1.0, c1=0.0, c2=0.0, y0=1.0))
    assert p.epsilon == 0.0


def test_epsilon_omega_scaling():
    p = validate_params(SystemParams(omega=2.0, c1=0.8, c2=0.0, y0=1.0))
    assert p.epsilon == pytest.approx(0.1, rel=1e-15)


def test_epsilon_only_input_sets_c1():
    p = validate_params(SystemParams(omega=2.0, epsilon=0.1, y0=1.0))
    assert p.c1 == pytest.approx(0.8, rel=1e-15)
    assert p.c2 == 0.0
    assert p.is_canonical


def test_negative_epsilon_sign_lives_in_c1():
    p = validate_params(SystemParams(omega=1.0, epsilon=-0.1, y0=1.0))
    assert p.c1 == pytest.approx(-0.1)
    assert p.epsilon == pytest.approx(0.1)
    assert not p.is_canonical


def test_validate_idempotent():
    p1 = validate_params(SystemParams(omega=2.0, c1=0.3, c2=0.4, y0=1.5))
    p2 = validate_params(p1)
    assert p1 == p2


def test_inconsistent_epsilon_raises():
    with pytest.raises(InconsistentEpsilon):
        validate_params(SystemParams(omega=1.0, c1=0.1, c2=0.0, epsilon=0.2, y0=1.0))


def test_consistent_epsilon_accepted():
    p = validate_params(SystemParams(omega=1.0, c1=0.1, c2=0.0, epsilon=0.1, y0=1.0))
    assert p.epsilon == pytest.approx(0.1)


@pytest.mark.parametrize("kwargs", [dict(omega=0.0), dict(omega=-1.0), dict(y0=0.0), dict(y0=-2.0)])
def test_nonpositive_rejected(kwargs):
    with pytest.raises(NonPositive):
        validate_params(SystemParams(epsilon=0.1, **kwargs))


def test_nonzero_initial_derivatives_warn():
    with pytest.warns(UserWarning):
        p = validate_params(SystemParams(epsilon=0.1, y0=1.0, yp0=0.5))
    assert p.yp0 == 0.5


def test_eps_eff():
    p = validate_params(SystemParams(epsilon=0.1, y0=2.0))
    assert p.eps_eff == pytest.approx(0.1 * 2.0**-3.5, rel=1e-15)


def test_ystate_positivity():
    with pytest.raises(NonPositiveY):
        YState(tau=0.0, y=-1.0, dy=0.0, ddy=0.0, volterra=0.0)


def test_zstate_finiteness():
    with pytest.raises(ValueError):
        ZState(t=0.0, z=math.nan, p=0.0)


def test_trajectory_invariants():
    data = np.array([[0.0, 1.0], [1.0, 2.0], [2.0, 3.0]])
    traj = Trajectory(t0=0.0, h=0.5, columns=("a", "b"), data=data)
    assert len(traj) == 3
    assert np.array_equal(traj.times, [0.0, 0.5, 1.0])
    assert np.array_equal(traj.column("b"), [1.0, 2.0, 3.0])
    assert traj.row(1) == {"a": 1.0, "b": 2.0}
    with pytest.raises(ValueError):
        Trajectory(t0=0.0, h=0.5, columns=("a",), data=data)
    with pytest.raises(ValueError):
        Trajectory(t0=0.0, h=-0.5, columns=("a", "b"), data=data)
    with pytest.raises(ValueError):
        Trajectory(t0=0.0, h=0.5, columns=("a", "b"), data=data[:1])


def test_trajectory_data_read_only():
    data = np.zeros((2, 1))
    traj = Trajectory(t0=0.0, h=1.0, columns=("a",), data=data)
    with pytest.raises(ValueError):
        traj.data[0, 0] = 1.0
