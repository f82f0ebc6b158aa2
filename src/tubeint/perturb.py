"""Perturbation series for the coefficient function, generated from its recursion.

Everything here works in rescaled time and assumes the canonical single-cosine
forcing orientation (c2 = 0, c1 >= 0) with initial data y'(0) = y''(0) = 0;
a ``SystemParams`` is valid by construction, and one built from an
epsilon-only input satisfies both.  The series run through order ``ORDER``:
the tables hold R_1 .. R_ORDER, every function takes a truncation order
1 .. ORDER (``ORDER`` by default), and there are no per-order functions.

The composite is y = y0 exp(rho) with rho = sum_n delta^n R_n and
delta = eps y0^(-7/2) (``SystemParams.eps_eff``), so it is strictly positive.
Each R_n solves

    R_n''' + 4 R_n' = [delta^n] (delta cos(tau) exp(-7 rho/2) - 3 rho' rho'' - rho'^3)

with R_n(0) = R_n'(0) = R_n''(0) = 0; the right side involves only the
lower R_j.  ``_tables`` solves this recursion exactly in rational arithmetic and
derives every other series from the R_n: rho', the once-integrated forcing J
(from which the second derivative is reconstructed, never by differentiating
truncated expressions numerically) and the invariant's coefficients.  The
tables are built on first use and cached per process; one evaluator, ``_sum``,
sums them.  Its loops over the harmonics run in C (``tubeint_sum`` in
``_rk4.c``) when the compiled library loads and in numpy otherwise, with the
same operations in the same order, so the same bits.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .errors import InvalidInput
from .model import SystemParams

__all__ = [
    "ORDER",
    "y_composite",
    "g_of_t",
    "alpha2_derivatives",
    "validity",
    "equation_residual",
    "resonance_coefficients",
]

#: The truncation order of the series: the highest power of delta they hold.
ORDER = 3


# A table maps (m, k) to a complex rational c = (re, im): the sum of c tau^m e^(i k tau).
def _mul(a: tuple, b: tuple) -> tuple:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _collect(pairs) -> dict:
    """The table of ((m, k), c) pairs: equal keys summed, zero terms dropped."""
    out = {}
    for key, (re, im) in pairs:
        old = out.get(key, (0, 0))
        out[key] = (old[0] + re, old[1] + im)
    return {key: c for key, c in sorted(out.items()) if c != (0, 0)}


def _combine(*scaled) -> dict:
    """sum of s * table over the (s, table) pairs; s is a complex rational."""
    return _collect((key, _mul(s, c)) for s, table in scaled for key, c in table.items())


def _product(a: dict, b: dict) -> dict:
    return _collect(((m1 + m2, k1 + k2), _mul(c1, c2))
                    for (m1, k1), c1 in a.items() for (m2, k2), c2 in b.items())


def _derivative(table: dict) -> dict:
    pairs = []
    for (m, k), c in table.items():
        if m:
            pairs.append(((m - 1, k), _mul((m, 0), c)))
        if k:
            pairs.append(((m, k), _mul((0, k), c)))
    return _collect(pairs)


def _integral(table: dict) -> dict:
    """The integral from 0 to tau."""
    pairs = []
    for (m, k), c in table.items():
        if k == 0:
            pairs.append(((m + 1, 0), _mul((Fraction(1, m + 1), 0), c)))
            continue
        # by parts: the tau^j coefficient is -(j+1)/(ik) times the tau^(j+1) one
        c = _mul((0, Fraction(-1, k)), c)   # 1/(ik) = -i/k
        for j in range(m, -1, -1):
            pairs.append(((j, k), c))
            c = _mul((0, Fraction(j, k)), c)
        pairs.append(((0, 0), _mul((-1, 0), pairs[-1][1])))
    return _collect(pairs)


def _solve(force: dict) -> dict:
    """The R with R''' + 4 R' = force and R(0) = R'(0) = R''(0) = 0.

    R' = integral_0^tau sin(2 (tau - s))/2 force(s) ds (Duhamel), with the sine
    split into e^(+-2i tau) factors; the resonant terms come out secular.
    """
    up, down = {(0, 2): (1, 0)}, {(0, -2): (1, 0)}
    return _integral(_combine(
        ((0, Fraction(-1, 4)), _product(up, _integral(_product(down, force)))),
        ((0, Fraction(1, 4)), _product(down, _integral(_product(up, force)))),
    ))


def _cauchy(a: list, b: list, n: int) -> dict:
    """The delta^n part of (sum a_i delta^i)(sum b_j delta^j), both from i = 1."""
    return _combine(*(((1, 0), _product(a[i], b[n - i])) for i in range(1, n)))


@functools.cache
def _tables() -> dict[str, list[dict]]:
    """Exact tables by power of delta, from R_1 .. R_ORDER.

    ``rho`` (R_n) and ``drho`` (R_n'); ``J`` (the delta^n part of the integral
    from 0 of cos * exp(-5 rho/2), n = 0 .. ORDER - 1); ``a4`` (-alpha2'/y0) and
    ``a31`` (alpha2''/(2 y0) from alpha2'' = 4 (y0 - alpha2) + eps J).
    Index n holds the delta^n table.
    """
    one = {(0, 0): (1, 0)}
    cos = {(0, -1): (Fraction(1, 2), 0), (0, 1): (Fraction(1, 2), 0)}
    rho, drho, ddrho, drho_sq = [{}], [{}], [{}], [{}]
    exps = {Fraction(-7, 2): [one], Fraction(-5, 2): [one], Fraction(1): [one]}
    for n in range(1, ORDER + 1):
        force = _combine(((1, 0), _product(cos, exps[Fraction(-7, 2)][n - 1])),
                         ((-3, 0), _cauchy(drho, ddrho, n)),
                         ((-1, 0), _cauchy(drho, drho_sq, n)))
        rho.append(_solve(force))
        drho.append(_derivative(rho[n]))
        ddrho.append(_derivative(drho[n]))
        drho_sq.append(_cauchy(drho, drho, n))
        for a, e in exps.items():
            # exp(a rho) by power of delta: n E_n = a sum_j j R_j E_(n-j)
            e.append(_combine(*(((a * j / n, 0), _product(rho[j], e[n - j]))
                                for j in range(1, n + 1))))
    e1 = exps[Fraction(1)]
    J = [_integral(_product(cos, e)) for e in exps[Fraction(-5, 2)][:ORDER]]
    return {
        "rho": rho,
        "drho": drho,
        "J": J,
        "a4": [{}] + [_combine(((-1, 0), _derivative(e1[n]))) for n in range(1, ORDER + 1)],
        "a31": [{}] + [_combine(((-2, 0), e1[n]), ((Fraction(1, 2), 0), J[n - 1]))
                       for n in range(1, ORDER + 1)],
    }


def resonance_coefficients() -> dict[str, Fraction]:
    """Exact resonance coefficients, read off the generated tables.

    ``s1`` is the sin(tau) coefficient of R_1, so the first harmonic of y has
    amplitude s1 eps y0^(-5/2); ``secular_slope`` is the tau sin(2 tau)
    coefficient of R_2, so the sin(2 tau) amplitude of y - y0 (1 + delta R_1)
    grows at secular_slope eps^2 y0^(-6) per unit tau.  ``s3`` is R_3's windowed
    sin(3 tau) amplitude at window centre 0: tau cos(k tau) adds -1/(3+k) - 1/(3-k)
    (without a zero frequency), tau sin(3 tau) the centre, which is 0 there.
    """
    rho = _tables()["rho"]

    def sin_coefficient(table: dict, m: int, k: int) -> Fraction:
        # c e^(ik tau) + conj(c) e^(-ik tau) carries -2 Im(c) sin(k tau)
        return -2 * table.get((m, k), (0, 0))[1]

    # ... and 2 Re(c) cos(k tau), or Re(c) when k = 0
    s3 = sin_coefficient(rho[3], 0, 3) + sum(
        (re if k == 0 else 2 * re) * -sum(Fraction(1, j) for j in (3 + k, 3 - k) if j)
        for (m, k), (re, _) in rho[3].items() if m == 1 and k >= 0)
    return {"s1": sin_coefficient(rho[1], 0, 1), "secular_slope": sin_coefficient(rho[2], 1, 2),
            "s3": s3}


@functools.cache
def _float_tables(kind: str) -> list[dict[int, np.ndarray]]:
    """The tables of one kind in real form: k >= 0 -> rows (cos, sin) of
    coefficients of tau^m cos(k tau) and tau^m sin(k tau), indexed by m."""
    tables = _tables()[kind]
    degree = max((m for table in tables for m, _ in table), default=0)
    out = []
    for table in tables:
        real = {}
        for (m, k), (re, im) in table.items():
            if k >= 0:
                row = real.setdefault(k, np.zeros((2, degree + 1)))
                # c e^(ik tau) + conj(c) e^(-ik tau) = 2 Re(c) cos - 2 Im(c) sin
                row[:, m] = (float(re), 0.0) if k == 0 else (float(2 * re), float(-2 * im))
        out.append(real)
    return out


_BLOCK = 8193  # points per block: the driver's half-step grid of one chunk


@functools.lru_cache(maxsize=64)
def _packed(pairs: tuple) -> tuple[int, np.ndarray, np.ndarray]:
    """sum_n weights[n] T_n of each (kind, weights) pair as the dense tables
    of ``_sum`` and ``tubeint_sum``: the highest harmonic, the row lengths
    (pairs, top + 1, 2) and the coefficients (pairs, top + 1, 2, width) in
    tau^0 .. tau^(length - 1), zero past each length (zero top coefficients
    dropped).  The weighted tables are added in ascending n."""
    folds = [list(zip(weights, _float_tables(kind))) for kind, weights in pairs]
    used = [(k, row.shape[1]) for fold in folds for _, t in fold for k, row in t.items()]
    top = max([0] + [k for k, _ in used])
    width = max([1] + [n for _, n in used])
    table = np.zeros((len(pairs), top + 1, 2, width))
    for p, fold in enumerate(folds):
        for w, t in fold:
            for k, row in t.items():
                table[p, k, :, : row.shape[1]] += w * row
    nonzero = table != 0.0
    last = width - np.argmax(nonzero[..., ::-1], axis=-1)  # 1 + the last nonzero's index
    lengths = np.where(nonzero.any(-1), last, 0).astype(np.int64)
    lengths.flags.writeable = table.flags.writeable = False
    return top, lengths, table


def _sum(tau, *pairs) -> list[np.ndarray]:
    """sum_n weights[n] T_n(tau) for each (kind, weights) pair, one array per pair.

    Per block of points, cos(tau) and sin(tau) once, from numpy; cos k tau and
    sin k tau by the Chebyshev recurrence, then each pair's polynomials
    Horner-summed in ascending k.  Each point is computed alone, whatever the
    blocking.  The loops over k run in C (``tubeint_sum`` in ``_rk4.c``) when
    the compiled library loads, and in numpy otherwise, with the same
    operations in the same order: the same bits."""
    from . import _rk4  # on first use: starting the command line does not need it

    tau = np.asarray(tau, dtype=float)
    pairs = tuple((kind, tuple(weights)) for kind, weights in pairs)
    flat = tau.reshape(-1)
    outs = np.zeros((len(pairs), flat.size))
    lib = _rk4.library()
    top, lengths, table = _packed(pairs)
    sizes = lengths.tolist()
    for start in range(0, flat.size, _BLOCK):
        t = flat[start : start + _BLOCK]
        cp, sp, ck, sk = 1.0, 0.0, np.cos(t), np.sin(t)
        if lib is not None:
            t = np.ascontiguousarray(t)
            lib.tubeint_sum(t.size, t.ctypes.data, ck.ctypes.data, sk.ctypes.data, len(pairs),
                            top, table.shape[-1], lengths.ctypes.data, table.ctypes.data,
                            outs[:, start:].ctypes.data, outs.shape[1])
            continue
        twice = 2.0 * ck
        for k in range(top + 1):
            if k > 1:
                cn, sn = twice * ck, twice * sk
                cn -= cp
                sn -= sp
                cp, sp, ck, sk = ck, sk, cn, sn
            for out, size, rows in zip(outs, sizes, table):
                for m, row, basis in zip(size[k], rows[k], (ck, sk)):
                    if m:
                        value = row[m - 1]
                        for c in row[: m - 1][::-1]:
                            value = value * t
                            value += c
                        out[start : start + _BLOCK] += value * basis if k else value
    return [out.reshape(tau.shape) for out in outs]


def _prepare(params: SystemParams, order: int) -> list[float]:
    """The weights delta^0 .. delta^order of canonical parameters."""
    if not params.is_canonical:
        raise InvalidInput(
            "series functions require the canonical forcing orientation (c2=0, c1>=0)"
        )
    if order not in range(1, ORDER + 1):
        raise InvalidInput(f"order must be 1 .. {ORDER}, got {order!r}")
    try:
        weights = [params.eps_eff**n for n in range(order + 1)]
        if math.isfinite(weights[-1]):
            return weights
    except OverflowError:
        pass
    raise InvalidInput(
        f"y0={params.y0!r} is too small for the series: (eps*y0^(-7/2))^{order} overflows"
    )


def _composites(tau, params: SystemParams, orders) -> list:
    """The composite through each of the orders, from one pass over tau."""
    rhos = _sum(tau, *(("rho", _prepare(params, order)) for order in orders))
    return [params.y0 * np.exp(rho) for rho in rhos]


def y_composite(tau, params: SystemParams, order: int = ORDER):
    """Composite y0 * exp(sum delta^n R_n), strictly positive by construction."""
    return _composites(tau, params, (order,))[0]


def g_of_t(t, params: SystemParams, order: int = ORDER):
    """Coefficient g(t) = y(omega t)^(-5/2) built from the composite."""
    return y_composite(params.omega * np.asarray(t, dtype=float), params, order) ** -2.5


def alpha2_derivatives(tau, params: SystemParams, order: int = ORDER):
    """(alpha2', alpha2'') of the composite at rescaled time tau.

    alpha2' is the exact logarithmic derivative of the truncated composite;
    alpha2'' comes from the once-integrated form
    alpha2'' = 4 (y0 - alpha2) + eps * J with J in closed form, which avoids
    amplifying truncation error by repeated differentiation.  y0 - alpha2 is
    formed as -y0 expm1(rho), not as a difference of two numbers near y0.
    """
    weights = _prepare(params, order)
    rho, drho, J = _sum(tau, ("rho", weights), ("drho", weights), ("J", weights[:order]))
    y0 = params.y0
    d2 = -4.0 * y0 * np.expm1(rho) + params.epsilon * (y0**-2.5 * J)
    return y0 * np.exp(rho) * drho, d2


def _power_product(c: float, *powers: tuple[float, float]) -> float:
    """c * b1**e1 * b2**e2 * ... for positive c and bases, formed left to right,
    or by ``_log_product`` when a power overflows."""
    try:
        return functools.reduce(lambda product, power: product * power[0] ** power[1], powers, c)
    except OverflowError:
        return _log_product(c, *powers)


def _log_product(c: float, *powers: tuple[float, float]) -> float:
    """The same product from logarithms: inf or 0 only where it is out of range."""
    log = math.log(c) + sum(e * math.log(b) for b, e in powers)
    try:
        return math.exp(log)
    except OverflowError:
        return math.inf


def validity(params: SystemParams) -> float:
    """tau* = y0^6 / (s eps^2), the practical horizon of the truncated series;
    infinite when unforced.

    s = 5/96 is the secular slope of ``resonance_coefficients``.  When a
    power in the plain quotient over- or underflows, tau* comes from
    logarithms, so it is inf or 0 only when tau* itself is out of range.
    """
    eps, y0 = params.epsilon, params.y0
    s = resonance_coefficients()["secular_slope"]
    if eps == 0.0:
        return math.inf
    try:
        return float(s.denominator) * y0**6 / (float(s.numerator) * eps**2)
    except (ZeroDivisionError, OverflowError):  # eps^2 underflows, or a power overflows
        return _log_product(float(1 / s), (y0, 6.0), (eps, -2.0))


def equation_residual(tau, params: SystemParams, order: int = ORDER):
    """Residual y''' + 4 y' - eps cos(tau) y^(-5/2) of the composite.

    Derivatives are taken by 5-point central differences of step 2e-3, so the
    check is independent of the closed-form derivative chain; the residual of
    the order-3 composite is O(eps^4).
    """
    tau = np.asarray(tau, dtype=float)
    dtau = 2e-3
    ym2 = y_composite(tau - 2.0 * dtau, params, order)
    ym1 = y_composite(tau - dtau, params, order)
    yc = y_composite(tau, params, order)
    yp1 = y_composite(tau + dtau, params, order)
    yp2 = y_composite(tau + 2.0 * dtau, params, order)
    d1 = (-yp2 + 8.0 * yp1 - 8.0 * ym1 + ym2) / (12.0 * dtau)
    d3 = (yp2 - 2.0 * yp1 + 2.0 * ym1 - ym2) / (2.0 * dtau**3)
    return d3 + 4.0 * d1 - params.epsilon * np.cos(tau) * yc**-2.5
