import math
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from tubeint.integrate import IntegrationConfig, integrate_y
from tubeint.model import SystemParams, validate_params
from tubeint.perturb import (
    alpha2_derivatives,
    equation_residual,
    g_of_t,
    resonance_coefficients,
    _sum,
    _tables,
    validity,
    y_composite,
)

# independently derived regression constants (exact-rational / high-precision
# evaluation of the closed forms at probe points)
RHO3_HALF_PI = 59.0 / 2592.0
RHO3_AT_1P3 = 0.0075271311847977364
RHO3_AT_1P3_Y08 = 0.078376275509438806
DRHO3_AT_1P3 = 0.037468561139569083
I2_AT_1P3_Y1P1 = 0.013570974375031688


def params(eps=0.1, y0=1.0):
    return validate_params(SystemParams(epsilon=eps, y0=y0))


def term(kind, n, tau, y0):
    """The delta^n term of rho (or rho') at eps = 1: y0^(-7n/2) R_n(tau) (or R_n')."""
    return (y0**-3.5) ** n * _sum(tau, (kind, [0.0] * n + [1.0]))[0]


@pytest.mark.parametrize("n", [1, 2, 3], ids=["rho1", "rho2", "rho3"])
def test_series_terms_vanish_at_zero(n):
    for y0 in (0.7, 1.0, 2.3):
        assert abs(float(term("rho", n, 0.0, y0))) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3], ids=["drho1", "drho2", "drho3"])
def test_series_derivatives_vanish_at_zero(n):
    for y0 in (0.7, 1.0, 2.3):
        assert abs(float(term("drho", n, 0.0, y0))) < 1e-12


def test_rho1_probe_values():
    assert float(term("rho", 1, math.pi / 2.0, 1.0)) == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert float(term("rho", 1, math.pi / 2.0, 4.0)) == pytest.approx(1.0 / 384.0, rel=1e-14)


def test_rho2_probe_values():
    assert float(term("rho", 2, math.pi, 1.0)) == pytest.approx(1.0 / 9.0, rel=1e-13)


def test_rho3_regression_constants():
    assert float(term("rho", 3, math.pi / 2.0, 1.0)) == pytest.approx(RHO3_HALF_PI, rel=1e-13)
    assert float(term("rho", 3, 1.3, 1.0)) == pytest.approx(RHO3_AT_1P3, rel=1e-13)
    assert float(term("rho", 3, 1.3, 0.8)) == pytest.approx(RHO3_AT_1P3_Y08, rel=1e-13)
    assert float(term("drho", 3, 1.3, 1.0)) == pytest.approx(DRHO3_AT_1P3, rel=1e-13)


@pytest.mark.parametrize("n", [1, 2, 3], ids=["rho1-drho1", "rho2-drho2", "rho3-drho3"])
def test_closed_form_derivatives_match_finite_differences(n):
    taus = np.linspace(0.3, 15.0, 40)
    d = 1e-6
    fd = (term("rho", n, taus + d, 1.1) - term("rho", n, taus - d, 1.1)) / (2.0 * d)
    assert np.max(np.abs(fd - term("drho", n, taus, 1.1))) < 1e-8


def test_composite_unforced_is_constant():
    p = params(eps=0.0, y0=1.7)
    tau = np.linspace(0.0, 100.0, 500)
    assert np.all(y_composite(tau, p, 3) == 1.7)


def test_composite_positive_everywhere():
    tau = np.linspace(0.0, 1000.0, 20001)
    for eps in (0.05, 0.1, 0.3):
        for y0 in (0.7, 1.0, 1.5):
            assert np.min(y_composite(tau, params(eps, y0), 3)) > 0.0


def test_g_of_t_values():
    assert float(g_of_t(3.3, params(eps=0.0, y0=1.0), 3)) == 1.0
    assert float(g_of_t(0.7, params(eps=0.0, y0=4.0), 3)) == pytest.approx(1.0 / 32.0, rel=1e-14)


def test_alpha2_derivatives_unforced():
    d1, d2 = alpha2_derivatives(5.0, params(eps=0.0), 3)
    assert float(d1) == 0.0
    assert float(d2) == 0.0


def test_alpha2_first_derivative_matches_finite_difference():
    p = params(eps=0.1, y0=1.1)
    tau = np.linspace(0.5, 30.0, 60)
    d = 1e-4
    fd = (y_composite(tau + d, p, 3) - y_composite(tau - d, p, 3)) / (2.0 * d)
    d1, _ = alpha2_derivatives(tau, p, 3)
    assert np.max(np.abs(d1 - fd)) < 1e-7


def test_alpha2_second_derivative_matches_finite_difference():
    # the once-integrated reconstruction differs from the composite's true
    # second derivative at O(eps^4); use a small eps so the finite-difference
    # oracle dominates the tolerance
    p = params(eps=0.02, y0=1.0)
    tau = np.linspace(0.5, 30.0, 60)
    d = 1e-4
    fd = (y_composite(tau + d, p, 3) - 2.0 * y_composite(tau, p, 3) + y_composite(tau - d, p, 3)) / d**2
    _, d2 = alpha2_derivatives(tau, p, 3)
    # bound covers the finite-difference noise plus the O(eps^4 tau) gap
    # between the reconstruction and the composite's true second derivative
    assert np.max(np.abs(d2 - fd)) < 3e-6


def test_volterra_series_regression_probe():
    # eps^2 level closed-form integral at tau=1.3, y0=1.1
    p = params(eps=1.0, y0=1.1)
    lvl2 = _sum(1.3, ("J", [0.0, 0.0, p.eps_eff**2]))[0]
    assert float(lvl2) == pytest.approx(I2_AT_1P3_Y1P1, rel=1e-13)


def test_validity_window_values():
    assert validity(params(eps=0.1, y0=1.0)).tau_star == pytest.approx(1920.0, rel=1e-12)
    assert validity(params(eps=0.1, y0=0.7)).tau_star == pytest.approx(96.0 * 0.7**6 / 0.05, rel=1e-12)
    assert math.isinf(validity(params(eps=0.0)).tau_star)
    assert math.isinf(validity(params(eps=1e-250)).tau_star)  # eps^2 underflows
    assert validity(params(eps=0.1, y0=2.0)).eps_eff == pytest.approx(0.1 * 2.0**-3.5, rel=1e-14)


def test_equation_residual_is_order_eps4():
    taus = np.linspace(0.0, 20.0, 2001)
    sups = {}
    for eps in (0.2, 0.1, 0.05):
        sups[eps] = float(np.max(np.abs(equation_residual(taus, params(eps), 3))))
    assert 12.0 < sups[0.2] / sups[0.1] < 20.0
    assert 12.0 < sups[0.1] / sups[0.05] < 20.0


def test_truncation_error_monotone_in_effective_parameter():
    rows = []
    for eps in (0.05, 0.1):
        for y0 in (0.8, 1.0, 1.3):
            p = params(eps, y0)
            traj = integrate_y(p, IntegrationConfig(t_end=50.0, h=1e-3, record_every=10))
            tau = traj.column("tau")
            rel = np.max(np.abs(traj.column("y") - y_composite(tau, p, 3)) / traj.column("y"))
            rows.append((p.eps_eff, float(rel)))
    rows.sort()
    errs = [r[1] for r in rows]
    assert all(errs[i] <= errs[i + 1] for i in range(len(errs) - 1))


def test_g_envelope_damps_then_grows():
    # the coefficient's oscillation amplitude first shrinks to a minimum and
    # then grows without bound (secular modulation)
    p = params(eps=0.05, y0=1.1)
    t = np.linspace(0.0, 400.0, 80001)
    g = g_of_t(t, p, 3)
    two_pi = 2.0 * math.pi
    amps = []
    for k in range(int(400.0 / two_pi)):
        m = (t >= two_pi * k) & (t <= two_pi * (k + 1))
        amps.append((g[m].max() - g[m].min()) / 2.0)
    amps = np.array(amps)
    k_min = int(amps.argmin())
    assert 0 < k_min < len(amps) - 1
    assert amps[0] > amps[k_min]
    assert amps[-1] > amps[0]
    # strictly decreasing into the minimum, strictly increasing after it
    assert np.all(np.diff(amps[: k_min + 1]) < 0.0)
    assert np.all(np.diff(amps[k_min + 5 :]) > 0.0)


def test_series_requires_canonical_orientation():
    p = validate_params(SystemParams(omega=1.0, c1=0.0, c2=0.1, y0=1.0))
    with pytest.raises(ValueError):
        y_composite(1.0, p, 3)


def test_order_argument_validated():
    with pytest.raises(ValueError):
        y_composite(1.0, params(), 4)


def test_generated_series_solves_the_recursion_exactly():
    # independent of the builder's own operations: sympy differentiates and
    # expands the generated R_1..R_3, with y = y0 exp(rho), rho = sum delta^n R_n
    tau, delta = sp.symbols("tau delta", real=True)

    def rational(q):
        q = Fraction(q)
        return sp.Rational(q.numerator, q.denominator)

    R = [sum((rational(re) + sp.I * rational(im)) * tau**m * sp.exp(sp.I * k * tau)
             for (m, k), (re, im) in table.items())
         for table in _tables()["rho"][1:4]]
    rho = sum(delta**n * r for n, r in enumerate(R, start=1))
    d1, d2, d3 = (sp.diff(rho, tau, j) for j in (1, 2, 3))
    lhs = d3 + 3 * d1 * d2 + d1**3 + 4 * d1 - delta * sp.cos(tau) * sp.exp(-sp.Rational(7, 2) * rho)
    for n in (1, 2, 3):
        coefficient = sp.diff(lhs, delta, n).subs(delta, 0) / sp.factorial(n)
        assert sp.expand(coefficient.rewrite(sp.exp)) == 0
    for r in R:
        assert all(sp.expand(sp.diff(r, tau, j).subs(tau, 0)) == 0 for j in (0, 1, 2))


def test_resonance_coefficients_are_exact():
    # the first harmonic eps y0^(-5/2)/3, the secular slope (5/96) eps^2 y0^(-6)
    # and the detrended third harmonic (1783/290304) eps^3 y0^(-19/2)
    assert resonance_coefficients() == {"s1": Fraction(1, 3), "secular_slope": Fraction(5, 96),
                                        "s3": Fraction(1783, 290304)}
    assert float(resonance_coefficients()["secular_slope"]) == 5.0 / 96.0
