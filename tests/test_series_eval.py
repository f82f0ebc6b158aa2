"""The series evaluator ``perturb._sum``: blocking, batching and accuracy.

``_sum`` computes cos(tau) and sin(tau) once per block of points and rolls
cos k tau, sin k tau upward by the Chebyshev recurrence.  Each point is
computed alone, so splitting the points differently, or passing them one at
a time, must give the same bits; so must summing several (kind, weights)
pairs in one call instead of one call each.  Against the per-frequency
evaluation it replaced (``np.cos(k * tau)`` for every k, written out below as
the reference) the outputs move only at roundoff.  The loops over k run in C
when the compiled library loads and in numpy otherwise, with the same bits.
"""

import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tubeint import _rk4 as rk4
from tubeint import perturb
from tubeint.model import SystemParams
from tubeint.perturb import _BLOCK, _composites, _prepare, _sum, alpha2_derivatives, g_of_t
from tubeint.perturb import y_composite

KINDS = ("rho", "drho", "J", "a31", "a4")
LENGTHS = (0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 20000)


def _per_k_sum(kind, tau, weights):
    """The replaced evaluation: for each frequency k, np.cos(k * tau) and np.sin(k * tau)."""
    tau = np.asarray(tau, dtype=float)
    coef = {}
    for w, table in zip(weights, perturb._float_tables(kind)):
        for k, row in table.items():
            coef[k] = coef[k] + w * row if k in coef else w * row
    out = np.zeros(tau.shape)
    for k, rows in sorted(coef.items()):
        arg = k * tau
        for row, trig in zip(rows, (np.cos, np.sin)):
            if row.any():
                value = row[-1]
                for c in row[-2::-1]:
                    value = value * tau + c
                out += value * trig(arg) if k else value
    return out


def _weights(kind, eps, y0, order):
    weights = _prepare(SystemParams(epsilon=eps, y0=y0), order)
    return weights[:order] if kind == "J" else weights


cases = st.fixed_dictionaries({
    "kind": st.sampled_from(KINDS),
    "eps": st.floats(0.0, 0.2),
    "y0": st.floats(0.7, 1.5),
    "order": st.integers(1, 3),
    "tau_max": st.floats(1.0, 600.0),
    "seed": st.integers(0, 2**32 - 1),
})


@settings(derandomize=True, max_examples=20, deadline=None)
@given(case=cases)
def test_sum_does_not_depend_on_blocking(case):
    weights = _weights(case["kind"], case["eps"], case["y0"], case["order"])
    rng = np.random.default_rng(case["seed"])
    tau = rng.uniform(-0.1 * case["tau_max"], case["tau_max"], max(LENGTHS))
    for n in LENGTHS:
        [whole] = _sum(tau[:n], (case["kind"], weights))
        assert whole.shape == (n,)
        cuts = [c for c in (1, _BLOCK - 1, _BLOCK, _BLOCK + 1) if c < n]
        pieces = [_sum(piece, (case["kind"], weights))[0] for piece in np.split(tau[:n], cuts)]
        assert np.concatenate(pieces).tobytes() == whole.tobytes()
    at = sorted({0, _BLOCK - 1, _BLOCK, _BLOCK + 1, *rng.integers(0, len(tau), 20).tolist()})
    scalars = [_sum(float(tau[i]), (case["kind"], weights))[0] for i in at]
    assert all(s.shape == () for s in scalars)
    assert np.array(scalars).tobytes() == whole[at].tobytes()


@pytest.mark.parametrize("block", [1, 7, 1000, _BLOCK])
def test_compiled_sum_matches_the_numpy_loop(block):
    if rk4.library() is None:
        pytest.skip("no compiled library")
    pairs = [(kind, _weights(kind, 0.1, 0.8, order)) for kind in KINDS for order in (1, 2, 3)]
    tau = np.random.default_rng(3).uniform(-600.0, 600.0, max(60, 2 * block + 5))
    tau[:4] = 0.0, -0.0, 1e6, -1e6
    taus = [1.3, -2.5, np.float64(1e6), np.empty(0), np.empty((0, 3)), tau, tau[::3],
            tau[:60].reshape(6, 10), tau[:60].reshape(10, 6).T, tau[:-20:-7]]
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error")
        mp.setattr(perturb, "_BLOCK", block)
        for t in taus:
            for call in [pairs, *([pair] for pair in pairs)]:
                compiled = _sum(t, *call)
                with pytest.MonkeyPatch.context() as mp_numpy:
                    mp_numpy.setattr(rk4, "_lib", None)
                    reference = _sum(t, *call)
                assert len(compiled) == len(reference) == len(call)
                for c, r in zip(compiled, reference):
                    assert c.shape == r.shape == np.shape(t)
                    assert c.tobytes() == r.tobytes()


@settings(derandomize=True, max_examples=20, deadline=None)
@given(case=cases)
def test_one_pass_equals_one_call_per_pair(case):
    p = SystemParams(epsilon=case["eps"], y0=case["y0"])
    tau = np.random.default_rng(case["seed"]).uniform(0.0, case["tau_max"], 9000)
    pairs = [(kind, _weights(kind, case["eps"], case["y0"], order))
             for kind in KINDS for order in (1, 2, 3)]
    together = _sum(tau, *pairs)
    assert len(together) == len(pairs)
    for pair, value in zip(pairs, together):
        assert value.tobytes() == _sum(tau, pair)[0].tobytes()
    orders = _composites(tau, p, (1, 2, 3))
    for order, value in zip((1, 2, 3), orders):
        alone = p.y0 * np.exp(_sum(tau, ("rho", _prepare(p, order)))[0])
        assert value.tobytes() == alone.tobytes() == y_composite(tau, p, order).tobytes()


@pytest.mark.parametrize("y0", [0.7, 0.8, 1.0, 1.2])
def test_outputs_move_only_at_roundoff(y0):
    # eps = 0.05 is the perturbative invariant-drift default, where g_of_t and
    # alpha2_derivatives run
    p = SystemParams(epsilon=0.05, y0=y0)
    w = _prepare(p, 3)
    tau = np.linspace(0.0, 500.0, 200_001)
    y_ref = p.y0 * np.exp(_per_k_sum("rho", tau, w))
    d1_ref = y_ref * _per_k_sum("drho", tau, w)
    d2_ref = 4.0 * (p.y0 - y_ref) + p.epsilon * (p.y0**-2.5 * _per_k_sum("J", tau, w[:3]))
    d1, d2 = alpha2_derivatives(tau, p)
    assert np.max(np.abs(y_composite(tau, p) / y_ref - 1.0)) <= 1e-14
    assert np.max(np.abs(g_of_t(tau, p) / y_ref**-2.5 - 1.0)) <= 1e-14
    # alpha2' and alpha2'' cross zero, so their deviation is measured against
    # a scale: alpha2' against its largest value; alpha2'' = 4 (y0 - alpha2) +
    # eps J against 4 y0, the size of the two numbers it subtracts (one ulp of
    # alpha2 moves it by 4 ulp of y0, whatever the evaluator)
    assert np.max(np.abs(d1 - d1_ref)) <= 1e-14 * np.max(np.abs(d1_ref))
    assert np.max(np.abs(d2 - d2_ref)) <= 1e-14 * 4.0 * y0


def test_alpha2_second_derivative_has_no_cancellation():
    # the same formula from the same float rho and J, in 200-bit arithmetic;
    # forming y0 - alpha2 as a difference of two numbers near y0 erred by
    # 1.3e-14 of max|alpha2''| here, -y0 expm1(rho) by 2.8e-16
    p = SystemParams(epsilon=0.05, y0=1.2)
    w = _prepare(p, 3)
    tau = np.linspace(0.0, 500.0, 5001)
    rho, J = _sum(tau, ("rho", w), ("J", w[:3]))
    with mpmath.workprec(200):
        y0, eps = mpmath.mpf(p.y0), mpmath.mpf(p.epsilon)
        exact = np.array([
            float(4 * (y0 - y0 * mpmath.exp(r)) + eps * (y0 ** mpmath.mpf(-2.5) * j))
            for r, j in zip(rho.tolist(), J.tolist())
        ])
    _, d2 = alpha2_derivatives(tau, p)
    assert np.max(np.abs(d2 - exact)) <= 1e-15 * np.max(np.abs(exact))


def test_recurrence_is_closer_to_the_exact_sum_than_the_per_k_path():
    # the exact sum of the same float coefficients at the same float tau, in
    # 200-bit arithmetic: rounding k * tau costs the per-k path up to
    # ulp(6 tau) in the argument, while cos(tau) sees tau itself
    p = SystemParams(epsilon=0.1, y0=0.7)
    w = _prepare(p, 3)
    tau = np.sort(np.random.default_rng(5).uniform(300.0, 500.0, 300))
    _, [lengths], [table] = perturb._packed((("rho", tuple(w)),))
    with mpmath.workprec(200):
        exact = []
        for t in tau.tolist():
            t = mpmath.mpf(t)
            total = mpmath.mpf(0)
            for k, (sizes, rows) in enumerate(zip(lengths, table)):
                for size, row, trig in zip(sizes, rows, (mpmath.cos, mpmath.sin)):
                    poly = sum(mpmath.mpf(float(c)) * t**m for m, c in enumerate(row[:size]))
                    total += poly * trig(k * t)
            exact.append(float(total))
    new_error = np.max(np.abs(_sum(tau, ("rho", w))[0] - exact))
    old_error = np.max(np.abs(_per_k_sum("rho", tau, w) - exact))
    assert new_error <= 4e-15
    assert new_error < old_error
