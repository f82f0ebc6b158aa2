import dataclasses
import math

import numpy as np
import pytest

from tubeint.errors import InconsistentEpsilon, InvalidInput, NonPositive
from tubeint.model import SystemParams, Trajectory, validate_params


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


@pytest.mark.parametrize("kwargs, name", [
    (dict(omega=1e-300, epsilon=0.1), "omega"),  # omega^3 underflows to 0
    (dict(omega=1e200, epsilon=0.1), "omega"),  # omega^3 overflows
    (dict(omega=1e200), "omega"),  # also when unforced
    (dict(omega=1e-10, c1=1e300), "epsilon"),  # derived epsilon = inf
    (dict(omega=1e-10, c1=1e300, epsilon=1.0), "epsilon"),  # not InconsistentEpsilon
    (dict(omega=1e10, epsilon=1e300), "c1"),  # derived c1 = inf
])
def test_nonfinite_derived_quantity_rejected(kwargs, name):
    with pytest.raises(InvalidInput, match=rf"^(derived )?{name}\b") as exc:
        validate_params(SystemParams(**kwargs))
    assert not isinstance(exc.value, InconsistentEpsilon)


def test_nonzero_initial_derivatives_warn():
    with pytest.warns(UserWarning):
        p = validate_params(SystemParams(epsilon=0.1, y0=1.0, yp0=0.5))
    assert p.yp0 == 0.5


def test_eps_eff():
    p = validate_params(SystemParams(epsilon=0.1, y0=2.0))
    assert p.eps_eff == pytest.approx(0.1 * 2.0**-3.5, rel=1e-15)


FULL = dict(omega=1.0, c1=0.1, c2=0.0, epsilon=0.1, y0=1.0, yp0=0.0, ypp0=0.0)


@pytest.mark.parametrize("change, error", [
    (dict(omega=-1.0), NonPositive),
    (dict(y0=-1.0), NonPositive),
    (dict(y0=math.nan), NonPositive),
    (dict(epsilon=0.7), InconsistentEpsilon),
])
def test_construction_rejects_fully_specified_invalid_records(change, error):
    # every field given: nothing is left to resolve, and the record is still checked
    with pytest.raises(error):
        SystemParams(**{**FULL, **change})


@pytest.mark.parametrize("omega", [0.3, 0.7, 1.3, 2.0, 3.0, 5.5, 7.1])
@pytest.mark.parametrize("eps", [0.1, 0.05, -0.3, 1e-3])
def test_record_rebuilt_from_its_fields_is_equal(omega, eps):
    p = SystemParams(omega=omega, epsilon=eps)
    assert None not in dataclasses.astuple(p)  # resolved when built
    assert SystemParams(**dataclasses.asdict(p)) == p


def test_given_epsilon_is_kept_when_consistent():
    derived = SystemParams(omega=1.3, c1=0.2).epsilon
    given = derived * (1.0 + 1e-13)
    assert given != derived
    p = SystemParams(omega=1.3, c1=0.2, epsilon=given)
    assert p.epsilon == given and p.c1 == 0.2 and p.c2 == 0.0


@pytest.mark.parametrize("kwargs, name", [
    (dict(c1=0.1, epsilon=math.nan), "epsilon"),  # NaN would pass the tolerance test
    (dict(c1=0.1, epsilon=math.inf), "epsilon"),
    (dict(omega=1e-107, epsilon=1e-5), "derived c1"),  # epsilon*omega^3 underflows to 0
])
def test_unusable_epsilon_rejected(kwargs, name):
    with pytest.raises(InvalidInput, match=rf"^{name}\b") as exc:
        SystemParams(**kwargs)
    assert not isinstance(exc.value, InconsistentEpsilon)


def test_trajectory_invariants():
    data = np.array([[0.0, 1.0], [1.0, 2.0], [2.0, 3.0]])
    times = np.array([0.0, 0.5, 1.0])
    traj = Trajectory(times=times, columns=("a", "b"), data=data)
    assert len(traj) == 3
    assert np.array_equal(traj.times, [0.0, 0.5, 1.0])
    assert np.array_equal(traj.column("b"), [1.0, 2.0, 3.0])
    with pytest.raises(InvalidInput, match=r"^no column 'tau'; the trajectory has a, b$"):
        traj.column("tau")
    with pytest.raises(ValueError):
        Trajectory(times=times, columns=("a",), data=data)
    with pytest.raises(ValueError):
        Trajectory(times=-times, columns=("a", "b"), data=data)
    with pytest.raises(ValueError):
        Trajectory(times=times[:1], columns=("a", "b"), data=data[:1])
    with pytest.raises(ValueError):
        Trajectory(times=times[:2], columns=("a", "b"), data=data)


def test_trajectory_data_read_only():
    data = np.zeros((2, 1))
    traj = Trajectory(times=np.array([0.0, 1.0]), columns=("a",), data=data)
    with pytest.raises(ValueError):
        traj.data[0, 0] = 1.0
    with pytest.raises(ValueError):
        traj.times[0] = 1.0
