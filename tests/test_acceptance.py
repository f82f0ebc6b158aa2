"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.  The
expensive trajectories are computed once in a module-scoped fixture and
shared; criterion 9 sweeps every trajectory produced here.

Criteria 2 and 3 are implemented exactly as stated and are expected to fail:
the pointwise relative error between the numeric solution and the order-3
series is dominated by the secular terms that order 3 lacks.  Order 3 has at
most tau^1 terms; the eps^4 tau^2 term first appears at order 4, and the
order-4 series from the same generator has a pointwise error of 0.0077 on the
criterion-2 window [400, 500] (eps = 0.1, RK4, h = 1e-3).  The per-window
envelope agreement, which is what a plotted-curve comparison shows, is
printed alongside as context.  See the README for the analysis.
"""

import math
import sys

import numpy as np
import pytest

from tubeint.cli import main as cli_main
from tubeint.ermakov import LogisticDriver, integrate_ermakov, lewis_invariant
from tubeint.integrate import IntegrationConfig, integrate_coupled, integrate_y
from tubeint.invariant import drift_experiment, invariant_exact_series
from tubeint.model import SystemParams, validate_params
from tubeint.perturb import _sum, equation_residual, validity, y_composite
from tubeint.resonance import fourier_windows, periodicity_defect

TWO_PI = 2.0 * math.pi


def report(cid: str, ok: bool, detail: str) -> bool:
    flag = "PASS" if ok else "FAIL"
    print(f"[criterion {cid}] {flag}: {detail}")
    sys.stdout.flush()
    return ok


def params(eps, y0, omega=1.0):
    return validate_params(SystemParams(omega=omega, epsilon=eps, y0=y0))


def max_rel_drift(traj, p):
    I = invariant_exact_series(traj, p)
    return float(np.max(np.abs(I - I[0])) / abs(I[0]))


@pytest.fixture(scope="module")
def runs():
    """All expensive trajectories, computed once; every entry is swept by C9."""
    data = {}

    p_exact = params(0.05, 1.1)
    for tag, h, rec in (("h1e-3", 1e-3, 100), ("h2e-3", 2e-3, 50), ("h5e-4", 5e-4, 200)):
        data[f"coupled_{tag}"] = integrate_coupled(
            p_exact, 0.2, 0.0, IntegrationConfig(t_end=500.0, h=h, record_every=rec)
        )
    data["params_exact"] = p_exact

    data["y_run_1.0"] = integrate_y(
        params(0.1, 1.0), IntegrationConfig(t_end=500.0, h=1e-3, record_every=100)
    )
    data["y_run_0.7"] = integrate_y(
        params(0.1, 0.7), IntegrationConfig(t_end=500.0, h=1e-3, record_every=100)
    )

    data["drift"] = {
        y0: drift_experiment(params(0.05, y0), z0=0.2, p0=0.0, t_end=500.0, order=3)
        for y0 in (1.2, 1.1, 0.9, 0.8)
    }

    data["s1"] = {}
    for eps in (0.2, 0.1, 0.05):
        data["s1"][eps] = integrate_y(
            params(eps, 1.0), IntegrationConfig(t_end=5.0 * TWO_PI, h=1e-3, record_every=2)
        )
    data["slope"] = integrate_y(
        params(0.1, 1.0), IntegrationConfig(t_end=300.0, h=1e-3, record_every=5)
    )
    data["s3"] = integrate_y(
        params(0.2, 1.0), IntegrationConfig(t_end=5.0 * TWO_PI, h=1e-3, record_every=2)
    )

    h_aligned = TWO_PI / 4096
    data["defect_forced"] = integrate_y(
        params(0.1, 1.0), IntegrationConfig(t_end=300.0, h=h_aligned, record_every=1)
    )
    data["defect_unforced"] = integrate_y(
        params(0.0, 1.0), IntegrationConfig(t_end=8.0 * TWO_PI, h=h_aligned, record_every=1)
    )

    data["ermakov"] = integrate_ermakov(
        LogisticDriver(), config=IntegrationConfig(t_end=200.0, h=1e-3, record_every=100)
    )
    data["ermakov_eq"] = {
        f0: integrate_ermakov(
            LogisticDriver(f0=f0, df=0.0),
            config=IntegrationConfig(t_end=50.0, h=1e-3, record_every=100),
        )
        for f0 in (1.0, 4.0)
    }
    return data


def test_criterion_1_exact_invariant_conservation(runs):
    p = runs["params_exact"]
    drift_fine = max_rel_drift(runs["coupled_h1e-3"], p)
    drift_coarse = max_rel_drift(runs["coupled_h2e-3"], p)
    drift_finer = max_rel_drift(runs["coupled_h5e-4"], p)
    ratio = drift_coarse / drift_fine
    ok = drift_fine < 1e-6 and 12.0 <= ratio <= 20.0
    report(
        "1",
        ok,
        f"max relative drift {drift_fine:.3e} < 1e-6 at h=1e-3 over [0,500]; "
        f"halving h from 2e-3 to the pinned 1e-3 reduces it {ratio:.1f}x (in [12,20]). "
        f"Note: at h=5e-4 the drift ({drift_finer:.1e}) sits on the double-precision "
        f"floor, so the order ratio saturates below 16 there.",
    )
    assert ok


def test_criterion_2_series_agreement_y0_1(runs):
    p = params(0.1, 1.0)
    traj = runs["y_run_1.0"]
    tau = traj.column("tau")
    y = traj.column("y")
    o3 = y_composite(tau, p, 3)
    window = tau >= 400.0
    max_rel = float(np.max(np.abs(y - o3)[window] / np.abs(y)[window]))
    # context: per-window envelope agreement on the same stretch
    env_errs = []
    for k in range(64, 79):
        m = (tau >= TWO_PI * k) & (tau <= TWO_PI * (k + 1))
        env_errs.append(abs(o3[m].max() - y[m].max()) / y[m].max())
        env_errs.append(abs(o3[m].min() - y[m].min()) / abs(y[m].min()))
    ok = max_rel < 0.01
    report(
        "2",
        ok,
        f"max pointwise relative error on tau in [400,500] = {max_rel:.4f} "
        f"(criterion: < 0.01); per-window envelope agreement on the same stretch "
        f"is {max(env_errs):.4f}, i.e. the plotted curves do coincide; the "
        f"pointwise gap is the eps^4 tau^2 term that order 3 lacks (the order-4 "
        f"series has a pointwise error of 0.0077 here); see the README.",
    )
    assert ok


def test_criterion_3_series_breakdown_y0_0p7(runs):
    p = params(0.1, 0.7)
    traj = runs["y_run_0.7"]
    tau = traj.column("tau")
    y = traj.column("y")
    o3 = y_composite(tau, p, 3)
    rel = np.abs(y - o3) / np.abs(y)
    early = float(np.max(rel[tau <= 200.0]))
    at_end = float(rel[-1])
    tau_star = validity(p).tau_star
    ok = early < 0.10 and 0.30 <= at_end <= 0.70
    report(
        "3",
        ok,
        f"pointwise relative error: max {early:.3f} for tau <= 200 (criterion < 0.10), "
        f"{at_end:.3f} at tau = 500 (criterion [0.30, 0.70]); tau* = {tau_star:.1f}. "
        f"The 10% level is crossed at tau ~ 53 and the error peaks at "
        f"{float(np.max(rel)):.2f}: breakdown is reproduced but pointwise "
        f"comparison of widely swinging curves does not match the prose numbers; "
        f"see the README.",
    )
    assert ok


def test_criterion_4_drift_bands(runs):
    drifts = {y0: runs["drift"][y0].meta["max_drift_pct"] for y0 in (1.2, 1.1, 0.9, 0.8)}
    bands = {1.2: (0.0, 0.5), 1.1: (0.0, 1.0), 0.9: (1.0, 4.0), 0.8: (6.0, 12.0)}
    in_band = {y0: bands[y0][0] <= drifts[y0] <= bands[y0][1] for y0 in drifts}
    ordered = drifts[1.2] < drifts[1.1] < drifts[0.9] < drifts[0.8]
    ok = all(in_band.values()) and ordered
    detail = ", ".join(f"y0={y0}: {drifts[y0]:.3f}%" for y0 in (1.2, 1.1, 0.9, 0.8))
    report("4", ok, f"max perturbative drift at eps=0.05 over [0,500]: {detail}; "
                    f"bands <0.5/<1/[1,4]/[6,12]% and monotone decrease in y0.")
    assert ok


def test_criterion_5_series_identities(runs):
    # the delta^n terms y0^(-7n/2) R_n(0) and y0^(-7n/2) R_n'(0) at eps = 1
    orders = (1, 2, 3, 1, 2, 3)
    values = _sum(0.0, *((kind, [0.0] * n + [1.0]) for kind in ("rho", "drho") for n in (1, 2, 3)))
    boundary = max(abs(float((y0**-3.5) ** n * value))
                   for y0 in (0.7, 1.0, 1.3) for n, value in zip(orders, values))
    taus = np.linspace(0.0, 20.0, 2001)
    sups = {
        eps: float(np.max(np.abs(equation_residual(taus, params(eps, 1.0), 3))))
        for eps in (0.2, 0.1, 0.05)
    }
    r1 = sups[0.2] / sups[0.1]
    r2 = sups[0.1] / sups[0.05]
    ok = boundary < 1e-12 and 12.0 <= r1 <= 20.0 and 12.0 <= r2 <= 20.0
    report(
        "5",
        ok,
        f"series terms and derivatives vanish at tau=0 to {boundary:.1e} (< 1e-12); "
        f"sup residual of the order-3 composite drops {r1:.1f}x and {r2:.1f}x when "
        f"eps halves from 0.2 (both in [12,20], i.e. O(eps^4)).",
    )
    assert ok


def test_criterion_6_resonance_coefficients(runs):
    gaps = {}
    for eps, traj in runs["s1"].items():
        s1 = fourier_windows(params(eps, 1.0), traj)[1][0, 0]
        gaps[eps] = abs(s1) - eps / 3.0
    gap_ok = all(abs(gaps[e]) < 0.02 * e**2 for e in gaps)
    shrink1 = gaps[0.2] / gaps[0.1]
    shrink2 = gaps[0.1] / gaps[0.05]
    shrink_ok = shrink1 >= 3.5 and shrink2 >= 3.5

    fit = fourier_windows(params(0.1, 1.0), runs["slope"])[2]
    slope_pred = (5.0 / 96.0) * 0.01
    slope_ok = abs(fit.slope - slope_pred) / slope_pred < 0.10

    measured, predicted = fourier_windows(params(0.2, 1.0), runs["s3"])[4]
    s3_ok = abs(abs(measured) - predicted) / predicted < 0.25

    ok = gap_ok and shrink_ok and slope_ok and s3_ok
    report(
        "6",
        ok,
        f"|s1| gap at eps=0.2/0.1/0.05: {gaps[0.2]:.2e}/{gaps[0.1]:.2e}/{gaps[0.05]:.2e} "
        f"(O(eps^2) bound, shrink {shrink1:.1f}x and {shrink2:.1f}x >= 3.5x); "
        f"secular slope {fit.slope:.4e} vs {slope_pred:.4e} "
        f"({abs(fit.slope - slope_pred) / slope_pred:.1%} < 10%); "
        f"|s3| {abs(measured):.3e} vs {predicted:.3e} "
        f"({abs(abs(measured) - predicted) / predicted:.1%} < 25%).",
    )
    assert ok


def test_criterion_7_periodicity_obstruction(runs):
    d0 = periodicity_defect(runs["defect_unforced"])
    unforced_ok = d0.max == 0.0

    d = periodicity_defect(runs["defect_forced"])
    mask = (d.tau >= 50.0) & (d.tau <= 293.0)
    sel_t = d.tau[mask]
    sel = d.defect[mask]
    floor_ok = float(sel.min()) > 1e-5
    slope = float(np.polyfit(sel_t, sel, 1)[0])
    trend_ok = slope > 0.0

    # first-order truncation is exactly 2 pi periodic
    eps, y0 = 0.1, 1.0
    h = TWO_PI / 2048
    tau = h * np.arange(5 * 2048 + 1)
    from tubeint.model import Trajectory

    r1, dr1 = _sum(tau, ("rho", [0.0, 1.0]), ("drho", [0.0, 1.0]))
    y = y0 * (1.0 + eps * (y0**-3.5 * r1))
    dy = y0 * eps * (y0**-3.5 * dr1)
    ddy = y0 * eps * y0**-3.5 * (-np.sin(tau) / 3.0 + 2.0 * np.sin(2.0 * tau) / 3.0)
    synth = Trajectory(times=tau, columns=("tau", "y", "dy", "ddy"),
                       data=np.column_stack([tau, y, dy, ddy]))
    d1 = periodicity_defect(synth)
    truncation_ok = d1.max < 1e-13

    ok = unforced_ok and floor_ok and trend_ok and truncation_ok
    report(
        "7",
        ok,
        f"unforced defect = {d0.max:.1e} (== 0); forced defect on [50,293] stays above "
        f"{float(sel.min()):.2e} (> 1e-5) with fitted slope {slope:.2e} > 0; "
        f"order-1 truncation defect {d1.max:.1e} (< 1e-13, periodic to rounding).",
    )
    assert ok


def test_criterion_8_ermakov_lewis(runs):
    traj = runs["ermakov"]
    I = lewis_invariant(traj.column("z"), traj.column("p"), traj.column("w"), traj.column("dw"))
    drift = float(np.max(np.abs(I - I[0])) / I[0])
    eq_err = max(
        float(np.max(np.abs(runs["ermakov_eq"][f0].column("w") - f0**-0.25)))
        for f0 in (1.0, 4.0)
    )
    ok = drift < 1e-6 and eq_err < 1e-10
    report(
        "8",
        ok,
        f"chaotic-driver invariant drift {drift:.2e} < 1e-6 over [0,200] at h=1e-3; "
        f"constant-coefficient equilibrium reproduces w = f^(-1/4) to {eq_err:.1e}.",
    )
    assert ok


def test_criterion_9_positivity(runs):
    worst = math.inf
    count = 0

    def sweep(traj):
        nonlocal worst, count
        for col in ("y", "w"):
            if col in traj.columns:
                worst = min(worst, float(traj.column(col).min()))
                count += 1

    for key in ("coupled_h1e-3", "coupled_h2e-3", "coupled_h5e-4", "y_run_1.0", "y_run_0.7",
                "slope", "s3", "defect_forced", "defect_unforced", "ermakov"):
        sweep(runs[key])
    for traj in runs["s1"].values():
        sweep(traj)
    for traj in runs["ermakov_eq"].values():
        sweep(traj)
    ok = worst > 0.0
    report(
        "9",
        ok,
        f"minimum over {count} stored y/w series of the whole suite = {worst:.3e} > 0; "
        f"stage-level positivity is enforced by the integrators (a violation raises "
        f"and would have failed the producing test).",
    )
    assert ok


def test_criterion_10_csv_determinism(tmp_path):
    commands = [
        ["simulate-y", "--tau-max", "50"],
        ["invariant-drift", "--mode", "perturbative", "--eps", "0.05", "--y0", "0.9",
         "--t-max", "50"],
        ["invariant-drift", "--mode", "exact", "--eps", "0.05", "--y0", "1.1",
         "--t-max", "50"],
        ["fourier", "--tau-max", "44", "--record-every", "5"],
        ["ermakov", "--t-max", "30"],
    ]
    identical = True
    names = []
    for i, cmd in enumerate(commands):
        pair = []
        for rep in ("a", "b"):
            out = tmp_path / f"{i}_{rep}.csv"
            assert cli_main(cmd + ["--out", str(out)]) == 0
            pair.append(out.read_bytes())
        identical = identical and pair[0] == pair[1]
        names.append(cmd[0])
        # gplot scripts are part of the emitted artifacts: check them too
        gp = tmp_path / f"{i}.gp"
        assert cli_main(["gplot", "--csv", str(tmp_path / f"{i}_a.csv"), "--out", str(gp)]) == 0
        gp2 = tmp_path / f"{i}2.gp"
        assert cli_main(["gplot", "--csv", str(tmp_path / f"{i}_a.csv"), "--out", str(gp2)]) == 0
        identical = identical and gp.read_bytes() == gp2.read_bytes()
    report("10", identical, f"byte-identical CSVs and plot scripts across two runs of "
                            f"{', '.join(names)} (+ gplot).")
    assert identical
