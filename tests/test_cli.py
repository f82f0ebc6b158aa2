import numpy as np
import pytest

from tubeint.cli import main


def run(argv):
    return main(argv)


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


def test_bad_arguments_exit_code_two():
    with pytest.raises(SystemExit) as exc:
        run(["simulate-y", "--no-such-flag"])
    assert exc.value.code == 2


def test_validation_failure_exit_code_two(capsys):
    assert run(["simulate-y", "--y0", "-1", "--tau-max", "5", "--out", "-"]) == 2
    assert "NonPositive" in capsys.readouterr().err
    for argv in (
        ["simulate-y", "--tau-max", "inf"],
        ["ermakov", "--z0", "nan"],
        ["invariant-drift", "--mode", "exact", "--z0", "nan"],
        ["invariant-drift", "--p0", "inf"],
    ):
        assert run(argv + ["--out", "-"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: ") and err.count("\n") == 1
