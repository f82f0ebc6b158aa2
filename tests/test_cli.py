import contextlib
import io
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tubeint.cli import build_parser, main


def run(argv):
    return main(argv)


def exit_code(argv):
    """main's return code, or the code of the SystemExit that argparse raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def read_csv(path):
    meta = {}
    header = None
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key.strip()] = value.strip()
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    return meta, header, np.array(rows)


def test_simulate_y_csv_structure(tmp_path):
    out = tmp_path / "y.csv"
    assert run(["simulate-y", "--tau-max", "20", "--out", str(out)]) == 0
    meta, header, rows = read_csv(out)
    assert meta["kind"] == "simulate-y"
    assert meta["eps"] == "0.1"
    assert header == ["tau", "y_numeric", "y_series_o1", "y_series_o2", "y_series_o3",
                      "abs_err_o3", "rel_err_o3"]
    assert len(rows) == 201  # 20/1e-3 steps, every 100th, plus the initial row
    assert rows[0][0] == 0.0
    assert np.max(rows[:, 6]) < 1e-3


def test_simulate_y_unforced_errors_vanish(tmp_path):
    out = tmp_path / "y0.csv"
    assert run(["simulate-y", "--eps", "0", "--tau-max", "10", "--out", str(out)]) == 0
    _, _, rows = read_csv(out)
    assert np.max(rows[:, 5]) < 1e-14
    assert np.all(rows[:, 2] == 1.0)


def test_simulate_y_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run(["simulate-y", "--tau-max", "10", "--out", str(a)])
    run(["simulate-y", "--tau-max", "10", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_invariant_drift_exact(tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert run(["invariant-drift", "--mode", "exact", "--eps", "0.05", "--y0", "1.1",
                "--t-max", "50", "--out", str(out)]) == 0
    meta, header, rows = read_csv(out)
    assert header == ["t", "I_value", "drift_pct"]
    assert meta["mode"] == "exact"
    assert float(meta["max_drift_pct"]) < 1e-6
    assert "max_drift_pct" in capsys.readouterr().out


def test_invariant_drift_perturbative(tmp_path):
    out = tmp_path / "dp.csv"
    assert run(["invariant-drift", "--eps", "0.05", "--y0", "0.9", "--t-max", "50",
                "--out", str(out)]) == 0
    meta, _, rows = read_csv(out)
    assert meta["mode"] == "perturbative"
    assert meta["order"] == "3"
    assert float(meta["max_drift_pct"]) == pytest.approx(np.max(rows[:, 2]), rel=1e-12)


def test_invariant_drift_rejects_nonunit_omega():
    assert run(["invariant-drift", "--omega", "2", "--t-max", "10", "--out", "-"]) == 2


def test_invariant_drift_escape_exit_code(capsys):
    code = run(["invariant-drift", "--eps", "0.05", "--y0", "1.1", "--z0", "-8",
                "--t-max", "50", "--out", "-"])
    assert code == 3
    err = capsys.readouterr().err
    assert "Escape" in err


def test_fourier_csv(tmp_path):
    out = tmp_path / "f.csv"
    assert run(["fourier", "--tau-max", "44", "--record-every", "5", "--out", str(out)]) == 0
    meta, header, rows = read_csv(out)
    assert header[:3] == ["k", "tau_center", "c0"]
    assert "s3_pred" in header
    assert float(meta["secular_slope_predicted"]) == pytest.approx(5.0 / 96.0 * 0.01, rel=1e-12)
    slope = float(meta["secular_slope_measured"])
    assert abs(slope - 5.0 / 96.0 * 0.01) / (5.0 / 96.0 * 0.01) < 0.15
    assert len(rows) == 7  # complete 2 pi windows in [0, 44]


def test_fourier_unforced_amplitudes_vanish(tmp_path):
    out = tmp_path / "f0.csv"
    assert run(["fourier", "--eps", "0", "--tau-max", "44", "--record-every", "5",
                "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    cols = {name: i for i, name in enumerate(header)}
    for name in ("c1", "c2", "c3", "s1", "s2", "s3"):
        assert np.max(np.abs(rows[:, cols[name]])) < 1e-10
    assert np.allclose(rows[:, cols["c0"]], 1.0, atol=1e-12)


def test_fourier_unforced_tiny_y0_predicts_zero(capsys):
    # y0^-3.5, y0^-6 and y0^-9.5 overflow a float here; unforced, every
    # predicted quantity is 0 and the residual is y - y0
    assert run(["fourier", "--eps", "0", "--y0", "1e-90", "--tau-max", "40",
                "--record-every", "1", "--out", "-"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    meta = dict(line[2:].split("=", 1) for line in captured.out.splitlines()
                if line.startswith("# "))
    for name in ("secular_slope_predicted", "s1_predicted", "s3_predicted"):
        assert meta[name] == "0.0"


@pytest.mark.parametrize("argv, line", [
    ("--tau-max 20", "InsufficientWindows: need >= 5 complete windows, got 3"),
    ("--eps 0.4 --y0 0.8 --tau-max 60 --record-every 1",
     "InvalidInput: fit horizon 56.5 exceeds 0.2 tau* = 6.3"),
    ("--tau-max 44 --record-every 10",
     "InsufficientSamples: window 0 holds 629 samples; need >= 1000"),
    # the window coverage is checked before the order-2 composite needs a canonical forcing
    ("--c2 0.1 --tau-max 44 --record-every 10",
     "InsufficientSamples: window 0 holds 629 samples; need >= 1000"),
    ("--c2 0.1 --tau-max 44 --record-every 5",
     "InvalidInput: series functions require the canonical forcing orientation (c2=0, c1>=0)"),
])
def test_fourier_error_lines(argv, line, capsys):
    assert run(["fourier", *argv.split(), "--out", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {line}\n"
    assert captured.out == ""


def test_ermakov_csv(tmp_path):
    out = tmp_path / "e.csv"
    assert run(["ermakov", "--t-max", "30", "--out", str(out)]) == 0
    meta, header, rows = read_csv(out)
    assert header == ["t", "f", "z", "p", "w", "I", "drift_pct"]
    assert float(meta["max_drift_pct"]) < 1e-5
    assert np.all(rows[:, 4] > 0.0)


def test_ermakov_constant_driver(tmp_path):
    out = tmp_path / "ec.csv"
    assert run(["ermakov", "--df", "0", "--t-max", "10", "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert np.max(np.abs(rows[:, 1] - 1.0)) < 1e-12


def test_ermakov_settles_after_logistic_fixed_point(tmp_path):
    out = tmp_path / "es.csv"
    assert run(["ermakov", "--l0", "0.5", "--t-max", "12", "--out", str(out)]) == 0
    _, _, rows = read_csv(out)
    t = rows[:, 0]
    f = rows[:, 1]
    late = f[t >= 6.0]
    assert np.max(np.abs(late - 0.7)) < 1e-2  # f0 - df once the map sits at 0


@pytest.mark.parametrize("flag, line", [
    ("--f0", "InvalidInput: f0 must be finite and > 0, got inf"),
    ("--ts", "InvalidInput: ts must be finite and > 0, got inf"),
])
def test_ermakov_rejects_infinite_driver_field(flag, line, capsys):
    assert run(["ermakov", flag, "inf", "--t-max", "10", "--out", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {line}\n"
    assert captured.out == ""


def test_ermakov_rejects_a_knot_spacing_whose_spline_is_not_finite(capsys):
    # the spline's cubes overflow: f(0) was nan, reported as "w0 must be > 0"
    assert run(["ermakov", "--ts", "1e300", "--t-max", "1", "--out", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: InvalidInput: ts=1e+300 gives a driver spline that "
                                   "is not finite ")
    assert captured.err.count("\n") == 1 and captured.out == ""


def test_ermakov_rejects_a_knot_spacing_finer_than_the_half_step(capsys):
    # 100,002 spline knots, built in Python lists, for the 2,001 half-step
    # samples of h = 1e-3; at --ts 1e-9 the run was killed for its memory
    assert run(["ermakov", "--t-max", "1", "--ts", "1e-5", "--out", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: InvalidInput: ts=1e-05 is finer than the half step ")
    assert captured.err.count("\n") == 1 and captured.out == ""


def test_run_of_no_steps_exits_two(capsys):
    # round(t-max / h) = 0 ran one step, to t = 10, and reported a 5.3e9 % drift
    for argv in (["invariant-drift", "--mode", "exact", "--t-max", "1", "--h", "10"],
                 ["simulate-y", "--tau-max", "0.4", "--h", "1"]):
        assert run(argv + ["--out", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: InvalidInput: t_end / h rounds to 0 steps: ")
        assert captured.out == ""


def test_gplot_from_metadata(tmp_path):
    csv = tmp_path / "y.csv"
    run(["simulate-y", "--tau-max", "10", "--out", str(csv)])
    script = tmp_path / "y.gp"
    assert run(["gplot", "--csv", str(csv), "--out", str(script)]) == 0
    text = script.read_text()
    assert "gnuplot" in text
    assert str(csv) in text
    assert "1:5" in text


def test_gplot_ermakov_four_panel(tmp_path):
    csv = tmp_path / "e.csv"
    run(["ermakov", "--t-max", "10", "--out", str(csv)])
    script = tmp_path / "e.gp"
    assert run(["gplot", "--csv", str(csv), "--out", str(script)]) == 0
    text = script.read_text()
    assert "multiplot layout 2,2" in text
    for cols in ("1:2", "1:3", "1:5", "1:6"):
        assert cols in text


def test_gplot_drift_single_curve(tmp_path):
    csv = tmp_path / "d.csv"
    run(["invariant-drift", "--t-max", "20", "--out", str(csv)])
    script = tmp_path / "d.gp"
    assert run(["gplot", "--csv", str(csv), "--out", str(script)]) == 0
    assert "1:3" in script.read_text()


def test_help_one_liners_run(tmp_path, capsys):
    parser, _ = build_parser()
    lines = re.findall(r"`([^`]+)`", parser.epilog)
    assert len(lines) == 6
    for i, line in enumerate(lines):
        assert main(line.split() + ["--out", str(tmp_path / f"{i}.csv")]) == 0, line
    assert capsys.readouterr().err == ""


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0


def test_gplot_missing_input(capsys):
    assert run(["gplot", "--csv", "no-such.csv", "--out", "-"]) == 2
    assert "MissingInput" in capsys.readouterr().err


def test_emit_plot_writes_script(tmp_path):
    csv = tmp_path / "d.csv"
    assert run(["invariant-drift", "--t-max", "20", "--out", str(csv), "--emit-plot"]) == 0
    assert (tmp_path / "d.csv.gp").exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_emit_plot_to_stdout_rejected_before_the_run(tmp_path, capsys, source):
    argv = ["simulate-y", "--tau-max", "20", "--out", "-"]
    if source == "flag":
        argv.append("--emit-plot")
    else:
        cfg = tmp_path / "plot.cfg"
        cfg.write_text("emit_plot = true\n")
        argv += ["--config", str(cfg)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: InvalidInput: --emit-plot needs --out pointing to a file\n"
    assert captured.out == ""


def test_config_file_defaults_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("y0 = 2.0\ntau_max = 10\n# comment\n")
    out1 = tmp_path / "c1.csv"
    assert run(["simulate-y", "--config", str(cfg), "--out", str(out1)]) == 0
    meta1, _, _ = read_csv(out1)
    assert meta1["y0"] == "2.0"
    out2 = tmp_path / "c2.csv"
    assert run(["simulate-y", "--config", str(cfg), "--y0", "3.0", "--out", str(out2)]) == 0
    meta2, _, _ = read_csv(out2)
    assert meta2["y0"] == "3.0"


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense = 1\n")
    assert run(["simulate-y", "--config", str(cfg), "--out", "-"]) == 2
    assert "nonsense" in capsys.readouterr().err


@pytest.mark.parametrize("command, line", [
    ("invariant-drift", "mode = bogus"),
    ("simulate-y", "record_every = 2.5"),
    ("simulate-y", "emit_plot = maybe"),
])
def test_config_values_are_checked_like_flags(tmp_path, capsys, command, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    assert exit_code([command, "--config", str(cfg), "--out", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error:") == 1


def test_config_emit_plot_flag(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("emit_plot = true\ntau_max = 10\n")
    out = tmp_path / "y.csv"
    assert run(["simulate-y", "--config", str(cfg), "--out", str(out)]) == 0
    assert (tmp_path / "y.csv.gp").exists()
    cfg.write_text("emit_plot = false\ntau_max = 10\n")
    out = tmp_path / "n.csv"
    assert run(["simulate-y", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.exists() and not (tmp_path / "n.csv.gp").exists()


def test_bad_arguments_exit_code_two():
    with pytest.raises(SystemExit) as exc:
        run(["simulate-y", "--no-such-flag"])
    assert exc.value.code == 2


def test_validation_failure_exit_code_two(capsys):
    for argv in (
        ["simulate-y", "--y0", "-1", "--tau-max", "5"],
        ["ermakov", "--w0", "-1", "--t-max", "1"],
        ["ermakov", "--w0", "nan", "--t-max", "1"],
    ):
        assert run(argv + ["--out", "-"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: NonPositive: ") and err.count("\n") == 1
        assert len(err) < 200, err
    for argv in (
        ["simulate-y", "--tau-max", "inf"],
        ["ermakov", "--z0", "nan"],
        ["invariant-drift", "--mode", "exact", "--z0", "nan"],
        ["invariant-drift", "--p0", "inf"],
        ["simulate-y", "--tau-max", "1e12", "--record-every", "1"],
        ["simulate-y", "--tau-max", "1e20", "--record-every", "1"],
        # a record interval longer than the run would set the run's length: 1e11 steps
        ["simulate-y", "--eps", "0", "--tau-max", "1", "--record-every", "100000000000"],
        ["ermakov", "--ts", "1e-12", "--t-max", "100"],
        # omega^3 underflows to 0 or overflows; the derived epsilon or c1 is inf
        ["simulate-y", "--tau-max", "1", "--omega", "1e-300"],
        ["invariant-drift", "--mode", "exact", "--t-max", "1", "--omega", "1e-300"],
        ["invariant-drift", "--mode", "exact", "--t-max", "1", "--omega", "1e200"],
        ["simulate-y", "--tau-max", "1", "--c1", "1e300", "--omega", "1e-10"],
        ["simulate-y", "--tau-max", "1", "--eps", "1e300", "--omega", "1e10"],
        # 1e298 recorded samples: the count is written as a float, not its 299 digits
        ["simulate-y", "--tau-max", "1", "--h", "1e-300"],
    ):
        assert run(argv + ["--out", "-"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidInput: ") and err.count("\n") == 1
        assert len(err) < 200, err


@pytest.mark.parametrize("argv, c1, c2, eps", [
    (["simulate-y", "--c1", "0.2", "--tau-max", "1"], "0.2", "0.0", "0.2"),
    (["invariant-drift", "--mode", "exact", "--c2", "0.03", "--t-max", "1"], "0.0", "0.03", "0.03"),
    (["invariant-drift", "--mode", "exact", "--c1", "0.03", "--c2", "0.04", "--t-max", "1"],
     "0.03", "0.04", "0.05"),
    (["simulate-y", "--c1", "0.2", "--eps", "0.2", "--tau-max", "1"], "0.2", "0.0", "0.2"),
    # the subcommand's default eps applies only when no forcing flag is given
    (["simulate-y", "--tau-max", "1"], "0.1", "0.0", "0.1"),
    (["invariant-drift", "--t-max", "1"], "0.05", "0.0", "0.05"),
])
def test_forcing_coefficients_without_eps(tmp_path, argv, c1, c2, eps):
    out = tmp_path / "run.csv"
    assert run(argv + ["--out", str(out)]) == 0
    meta, _, _ = read_csv(out)
    assert (meta["c1"], meta["c2"], meta["eps"]) == (c1, c2, eps)


def test_forcing_coefficients_from_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("c1 = 0.2\ntau_max = 1\n")
    out = tmp_path / "run.csv"
    assert run(["simulate-y", "--config", str(cfg), "--out", str(out)]) == 0
    meta, _, _ = read_csv(out)
    assert meta["eps"] == "0.2"


def test_explicit_eps_must_agree_with_c1(capsys):
    for argv in (["simulate-y", "--c1", "0.2", "--eps", "0.1", "--tau-max", "1"],
                 ["invariant-drift", "--c2", "0.2", "--eps", "0.05", "--t-max", "1"]):
        assert run(argv + ["--out", "-"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: InconsistentEpsilon: ") and err.count("\n") == 1


def test_subnormal_omega_cubed_keeps_the_unit_forcing(capsys):
    # c1 = eps*omega^3 is subnormal here; the rescaled run must not see it
    rows = []
    for omega in ("1", "1e-107"):
        assert run(["simulate-y", "--tau-max", "10", "--omega", omega, "--out", "-"]) == 0
        out = capsys.readouterr().out
        rows.append(out[out.index("tau,"):])
    assert rows[0] == rows[1]


def test_library_bug_is_not_reported_as_bad_input(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("bug")

    monkeypatch.setattr("tubeint.cli.integrate_y", broken)
    with pytest.raises(ValueError, match="^bug$"):
        main(["simulate-y", "--tau-max", "1", "--out", "-"])


def test_undecodable_input_files_exit_code_two(tmp_path, capsys):
    binary = tmp_path / "binary"
    binary.write_bytes(b"\x89PNG\xff\xfe\n")
    nul = tmp_path / "nul.cfg"
    nul.write_bytes(b"tau_max = 1\nout = a\x00b\n")
    for argv in (
        ["simulate-y", "--config", str(binary)],
        ["simulate-y", "--config", str(nul)],
        ["gplot", "--csv", str(binary)],
    ):
        assert run(argv + ["--out", "-"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidInput: ") and err.count("\n") == 1


def test_unwritable_output_exit_code_two(tmp_path, capsys):
    out = tmp_path / "no-such-dir" / "x.csv"
    assert run(["simulate-y", "--tau-max", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: FileNotFoundError: ") and err.count("\n") == 1


def test_default_record_every_ends_a_short_run_at_its_end(capsys):
    # 10 steps: the default records every 10th step, not every 100th past the end
    assert run(["simulate-y", "--tau-max", "0.01", "--out", "-"]) == 0
    out = capsys.readouterr().out
    assert "# record_every=10\n" in out
    rows = [line for line in out.splitlines() if not line.startswith("#")][1:]
    assert [float(row.split(",")[0]) for row in rows] == [0.0, 0.01]


def test_overflow_exit_code_three(capsys):
    argv = ["simulate-y", "--y0", "1e-250", "--eps", "0", "--tau-max", "0.001"]
    assert run(argv + ["--out", "-"]) == 3
    assert capsys.readouterr().err == "error: NonFinite: non-finite state at t=0.0\n"


def test_overflowing_powers_of_eps_and_y0_run(capsys):
    # eps^2, y0^6, y0^-6 and eps^3 overflow as Python floats; tau* and the
    # predicted slopes come from logarithms, so the runs end without an OverflowError
    argv = ["simulate-y", "--eps", "1e200", "--y0", "1e250", "--tau-max", "1", "--out", "-"]
    assert run(argv) == 0
    out, err = capsys.readouterr()
    assert "# tau_star=inf\n" in out and err == ""
    argv = ["simulate-y", "--eps", "1e150", "--y0", "1e52", "--tau-max", "1", "--out", "-"]
    assert run(argv) == 0
    tau_star = re.search(r"^# tau_star=(\S+)$", capsys.readouterr().out, re.MULTILINE).group(1)
    assert float(tau_star) == pytest.approx(1.92e13, rel=1e-12)
    argv = ["fourier", "--eps", "1e200", "--y0", "1e250", "--tau-max", "40"]
    assert run(argv + ["--record-every", "1", "--out", "-"]) == 0
    out, err = capsys.readouterr()
    assert "# secular_slope_predicted=0.0\n" in out and "# s3_predicted=0.0\n" in out
    assert err == ""
    # eps y0 overflows, delta y0 does not: the first-order residual and its fit are finite
    assert "nan" not in out
    # at the default --record-every the windows hold too few samples: exit 2, not 3
    assert run(argv + ["--out", "-"]) == 2
    assert capsys.readouterr().err.startswith("error: InsufficientSamples: ")


def test_extreme_y0_runs_or_names_y0(capsys):
    # delta = eps*y0^(-7/2) underflows to 0 and tau* = 96 y0^6/(5 eps^2) overflows to inf
    assert run(["simulate-y", "--y0", "1.2e249", "--tau-max", "1", "--out", "-"]) == 0
    out, err = capsys.readouterr()
    assert "# tau_star=inf\n" in out and err == ""
    # delta^n overflows: the series cannot represent this y0
    for argv in (["simulate-y", "--y0", "1e-100", "--tau-max", "1"],
                 ["invariant-drift", "--y0", "1e-100", "--t-max", "1"]):
        assert run(argv + ["--out", "-"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidInput: y0=1e-100 ") and err.count("\n") == 1


def _num(lo, hi):
    return st.floats(min_value=lo, max_value=hi).map(repr)


@st.composite
def short_runs(draw):
    """argv of a short simulate-y, fourier, invariant-drift (both modes) or ermakov run."""
    command = draw(st.sampled_from(
        ["simulate-y", "fourier", "exact", "perturbative", "ermakov"]))
    h = draw(_num(1e-3, 0.5))
    # t_end is a whole number of at least one step, and at most 1, so that a run reaches
    # the integrator; record_every is at most the run's steps
    steps = draw(st.integers(1, int(1.0 / float(h))))
    t_end = repr(steps * float(h))
    argv = [f"--h={h}", f"--record-every={draw(st.integers(1, min(10, steps)))}"]
    if command == "ermakov":
        return ["ermakov", f"--t-max={t_end}", f"--l0={draw(_num(0.0, 1.0))}",
                f"--ts={draw(_num(1e-3, 10.0))}", f"--f0={draw(_num(1e-3, 10.0))}",
                f"--df={draw(_num(0.0, 0.9))}", f"--z0={draw(_num(-1e6, 1e6))}",
                f"--p0={draw(_num(-1e6, 1e6))}", f"--w0={draw(_num(1e-3, 1e3))}",
                f"--dw0={draw(_num(-1e3, 1e3))}"] + argv
    argv += [f"--y0={draw(_num(1e-250, 1e250))}", f"--eps={draw(_num(-1e3, 1e3))}",
             f"--omega={draw(_num(1e-3, 1e3))}"]
    if command in ("simulate-y", "fourier"):
        return [command, f"--tau-max={t_end}"] + argv
    return ["invariant-drift", f"--mode={command}", f"--t-max={t_end}",
            f"--z0={draw(_num(-1e6, 1e6))}", f"--p0={draw(_num(-1e6, 1e6))}"] + argv


@settings(derandomize=True, max_examples=100, deadline=None)
@given(short_runs())
@example(["invariant-drift", "--y0", "0.05", "--eps", "0.5"])  # numpy overflows, then Escape
@example(["simulate-y", "--tau-max", "0.001", "--h", "0.5"])  # rounds to 0 steps
@example(["simulate-y", "--tau-max", "1", "--omega", "1e-300"])
@example(["invariant-drift", "--mode", "exact", "--t-max", "1", "--omega", "1e-300"])
@example(["invariant-drift", "--mode", "exact", "--t-max", "1", "--omega", "1e200"])
@example(["simulate-y", "--tau-max", "1", "--c1", "1e300", "--omega", "1e-10"])
def test_exit_code_contract_fuzz(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings():
        # print every warning on stderr, as a plain run would, not into pytest's record
        warnings.simplefilter("always")
        warnings.showwarning = lambda message, category, filename, lineno, file=None, line=None: \
            sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))
        code = exit_code(argv + ["--out", "-"])
    err = stderr.getvalue()
    assert code in (0, 2, 3), (code, err)
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("error: ") and err.count("\n") == 1, err
