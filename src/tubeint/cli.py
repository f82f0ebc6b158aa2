"""Batch command-line front end.

Every experiment is a subcommand that emits CSV: `#`-prefixed key=value
metadata lines, then a header row, then data rows.  Floats are written in
shortest round-trip form, so identical flags produce byte-identical files and
regression tests can diff them directly.  The rows are formatted in blocks,
built ahead of the writing by a helper thread per spare core when the compiled
formatter loads (``write_csv``); the bytes do not depend on the helpers.
Flags override an optional line-oriented `key = value` config file given via
--config; each line is parsed exactly like the flag --key=value placed before
the command-line flags.

Exit codes: 0 success; otherwise one `error: <class>: <message>` line on
stderr and the ``exit_code`` of the library error (see ``tubeint.errors``):
2 for ``InvalidInput`` (bad arguments or files, a run too large to allocate)
and for an unreadable or unwritable path (``OSError``), 3 for a numerical
failure, whose message names the time, and for an ``OverflowError`` outside
the integrators.  Any other exception is a bug and propagates.

The environment variable TUBEINT_SEED is reserved; the deterministic core
does not read it (the logistic seed is a flag).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InvalidInput, MissingInput, TubeIntError
from .ermakov import LogisticDriver, integrate_ermakov, lewis_invariant
from .integrate import IntegrationConfig, integrate_y
from .invariant import drift_experiment, drift_percent, exact_drift_experiment
from .model import SystemParams
from .perturb import ORDER, _composites, _power_product, resonance_coefficients, validity
from .resonance import TWO_PI, fourier_windows


def _fmt(v) -> str:
    return repr(float(v))


#: Rows per ``csv_rows`` call.  The window of ``integrate._tables`` plus one
#: blocks are in flight (four on up to four cores), allocated on a helper
#: thread whose malloc arena keeps the memory after the write: at 4,096 rows
#: the dense-output benchmark's peak RSS rose by about 2 MB, at 2,048 by 0.4 MB.
_BLOCK = 2048


def write_csv(path: str, meta: list[tuple[str, str]], header: list[str], columns) -> None:
    """Write the metadata lines, the header and one row per index of the columns.

    columns holds one sequence per header name.  A column of an integer dtype
    is written as integers, any other as floats in ``repr`` form.  The output
    is opened first, in binary; then ``_rk4.csv_rows`` formats the rows in
    blocks of ``_BLOCK``, which come from ``integrate._tables`` as
    ``_drive``'s coefficient tables do: ``_table_helpers()`` threads (one per
    spare core beside the compiled formatter, none beside ``repr``) format
    the next few blocks while the caller writes one.  The bytes do not depend
    on the helpers; a block that fails raises its ValueError after the blocks
    before it are written, and no helper outlives the call.  For ``-`` the
    bytes go to standard output's binary layer, after a flush of its text
    layer, or are decoded where it has none (an ``io.StringIO``).
    """
    from . import _rk4  # on first use: starting the command line does not need it
    from .integrate import _table_helpers, _tables

    columns = [np.asarray(c) for c in columns]
    if len(columns) != len(header) or len({len(c) for c in columns}) > 1:
        raise ValueError("write_csv needs one column per header name, all of one length")
    integer = [c.dtype.kind in "iu" for c in columns]
    n = len(columns[0]) if columns else 0
    starts = range(0, max(n, 1), _BLOCK)  # no rows is one empty block

    def block(k):  # block k's rows as CSV lines
        rows = np.empty((min(_BLOCK, n - starts[k]), len(columns)))
        for j, c in enumerate(columns):
            rows[:, j] = c[starts[k] : starts[k] + _BLOCK]
        return _rk4.csv_rows(rows, integer)

    head = "".join(f"# {k}={v}\n" for k, v in meta) + ",".join(header) + "\n"
    if path == "-":
        sys.stdout.flush()  # what its text layer holds goes out first
    stdout = getattr(sys.stdout, "buffer", None)
    with open(path, "wb") if path != "-" else contextlib.nullcontext(stdout) as out, \
            contextlib.closing(_tables(block, len(starts), _table_helpers())) as blocks:
        # a standard output with no binary layer (an io.StringIO) takes text
        write = out.write if out is not None else lambda data: sys.stdout.write(data.decode())
        write(head.encode())
        for data in blocks:
            write(data)


def _params_from_args(args) -> SystemParams:
    """The subcommand's default epsilon applies only when no forcing flag is given."""
    eps = args.eps
    if eps is None and args.c1 is None and args.c2 is None:
        eps = args.eps_default
    return SystemParams(omega=args.omega, c1=args.c1, c2=args.c2, epsilon=eps, y0=args.y0)


#: --record-every when not given; a run of fewer steps records its last one.
RECORD_EVERY = 100


def _resolve_record_every(args) -> None:
    """Fill in the default --record-every, or reject a given one above the run's steps.

    ``IntegrationConfig`` rounds a run up to whole record intervals, so a
    record interval longer than the run would set the run's length.  The
    default is ``RECORD_EVERY`` or the run's steps, round(t-max / h), if fewer.
    """
    end = "tau_max" if hasattr(args, "tau_max") else "t_max"
    steps = IntegrationConfig(t_end=getattr(args, end), h=args.h).plan()[0]
    if args.record_every is None:
        args.record_every = min(RECORD_EVERY, steps)
        return
    if args.record_every > steps:
        flag = "--" + end.replace("_", "-")
        raise InvalidInput(f"--record-every {args.record_every} exceeds the run's {steps} steps "
                           f"(round({flag} / --h))")


def _param_meta(params: SystemParams, cfg: IntegrationConfig) -> list[tuple[str, str]]:
    return [
        ("version", __version__),
        ("omega", _fmt(params.omega)),
        ("c1", _fmt(params.c1)),
        ("c2", _fmt(params.c2)),
        ("eps", _fmt(params.epsilon)),
        ("y0", _fmt(params.y0)),
        ("h", _fmt(cfg.h)),
        ("record_every", str(cfg.record_every)),
    ]


def cmd_simulate_y(args) -> int:
    params = _params_from_args(args)
    cfg = IntegrationConfig(t_end=args.tau_max, h=args.h, record_every=args.record_every)
    traj = integrate_y(params, cfg)
    tau = traj.column("tau")
    y_num = traj.column("y")
    o1, o2, o3 = _composites(tau, params, (1, 2, 3))
    abs_err = np.abs(y_num - o3)
    rel_err = abs_err / np.abs(y_num)
    meta = [("kind", "simulate-y")] + _param_meta(params, cfg)
    meta.append(("tau_star", _fmt(validity(params))))
    header = ["tau", "y_numeric", "y_series_o1", "y_series_o2", "y_series_o3",
              "abs_err_o3", "rel_err_o3"]
    write_csv(args.out, meta, header, [tau, y_num, o1, o2, o3, abs_err, rel_err])
    return 0


def cmd_invariant_drift(args) -> int:
    params = _params_from_args(args)
    if args.mode == "exact":
        traj = exact_drift_experiment(
            params, z0=args.z0, p0=args.p0, t_end=args.t_max,
            h=args.h, record_every=args.record_every,
        )
    else:
        traj = drift_experiment(
            params, z0=args.z0, p0=args.p0, t_end=args.t_max, order=args.order,
            h=args.h, record_every=args.record_every,
        )
    cfg = traj.meta["config"]
    meta = [("kind", "invariant-drift"), ("mode", args.mode)] + _param_meta(params, cfg)
    if args.mode == "perturbative":
        meta.append(("order", str(args.order)))
    meta += [
        ("z0", _fmt(args.z0)),
        ("p0", _fmt(args.p0)),
        ("max_drift_pct", _fmt(traj.meta["max_drift_pct"])),
        ("final_drift_pct", _fmt(traj.meta["final_drift_pct"])),
        ("absolute_mode", str(traj.meta["absolute_mode"]).lower()),
    ]
    header = ["t", "I_value", "drift_pct"]
    write_csv(args.out, meta, header, traj.data.T)
    if args.out != "-":
        print(f"mode={args.mode} max_drift_pct={_fmt(traj.meta['max_drift_pct'])} "
              f"final_drift_pct={_fmt(traj.meta['final_drift_pct'])}")
    return 0


def cmd_fourier(args) -> int:
    params = _params_from_args(args)
    cfg = IntegrationConfig(t_end=args.tau_max, h=args.h, record_every=args.record_every)
    traj = integrate_y(params, cfg)
    c, s, fit, resid_s3, (s3_measured, s3_pred) = fourier_windows(params, traj)
    eps = params.epsilon
    y0 = params.y0
    series = resonance_coefficients()
    slope = float(series["secular_slope"])
    # 0 when unforced, where y0^-6 may overflow and log(eps) has no value
    slope_pred = _power_product(slope, (eps, 2.0), (y0, -6.0)) if eps else 0.0
    s1_pred = eps * y0**-2.5 / float(1 / series["s1"])
    meta = [("kind", "fourier")] + _param_meta(params, cfg)
    meta += [
        ("secular_slope_measured", _fmt(fit.slope)),
        ("secular_slope_predicted", _fmt(slope_pred)),
        ("secular_fit_r2", _fmt(fit.r2)),
        ("s1_predicted", _fmt(s1_pred)),
        ("s3_measured", _fmt(s3_measured)),
        ("s3_predicted", _fmt(s3_pred)),
    ]
    header = ["k", "tau_center", "c0", "c1", "c2", "c3", "s1", "s2", "s3",
              "resid_s2", "resid_s3", "s3_pred"]
    k = fit.windows
    write_csv(args.out, meta, header, [k, TWO_PI * (k + 0.5), *c, *s, fit.amplitudes, resid_s3,
                                       np.full(len(k), s3_pred)])
    return 0


def cmd_ermakov(args) -> int:
    driver = LogisticDriver(l0=args.l0, ts=args.ts, f0=args.f0, df=args.df)
    cfg = IntegrationConfig(t_end=args.t_max, h=args.h, record_every=args.record_every)
    traj = integrate_ermakov(driver, z0=args.z0, p0=args.p0, w0=args.w0, dw0=args.dw0,
                             config=cfg)
    I = lewis_invariant(traj.column("z"), traj.column("p"), traj.column("w"),
                        traj.column("dw"))
    drift, absolute = drift_percent(I)
    meta = [
        ("kind", "ermakov"),
        ("version", __version__),
        ("l0", _fmt(args.l0)),
        ("ts", _fmt(args.ts)),
        ("f0", _fmt(args.f0)),
        ("df", _fmt(args.df)),
        ("z0", _fmt(args.z0)),
        ("p0", _fmt(args.p0)),
        ("w0", _fmt(traj.meta["w0"])),
        ("dw0", _fmt(args.dw0)),
        ("h", _fmt(cfg.h)),
        ("record_every", str(cfg.record_every)),
        ("max_drift_pct", _fmt(float(np.max(drift)))),
        ("absolute_mode", str(absolute).lower()),
    ]
    header = ["t", "f", "z", "p", "w", "I", "drift_pct"]
    columns = [traj.column(name) for name in ("t", "f", "z", "p", "w")]
    write_csv(args.out, meta, header, columns + [I, drift])
    return 0


_PLOT_BODIES = {
    "simulate-y": (
        'set xlabel "tau"\nset ylabel "y"\n'
        'plot CSV using 1:2 with lines lc rgb "red" title "numeric", \\\n'
        '     CSV using 1:5 with lines lc rgb "green" title "series order 3"\n'
    ),
    "invariant-drift": (
        'set xlabel "t"\nset ylabel "drift [% of I(0)]"\n'
        "plot CSV using 1:3 with lines title \"drift\"\n"
    ),
    "fourier": (
        'set xlabel "window center tau"\nset ylabel "amplitude"\n'
        'plot CSV using 2:10 with linespoints title "sin(2 tau) residual amplitude", \\\n'
        '     CSV using 2:11 with linespoints title "sin(3 tau) residual amplitude"\n'
    ),
    "ermakov": (
        "set multiplot layout 2,2\n"
        'set ylabel "f"\nplot CSV using 1:2 with lines title "f"\n'
        'set ylabel "z"\nplot CSV using 1:3 with lines title "z"\n'
        'set ylabel "w"\nplot CSV using 1:5 with lines title "w"\n'
        'set ylabel "I"\nplot CSV using 1:6 with lines title "I"\n'
        "unset multiplot\n"
    ),
}


def _plot_script(csv_path: str, kind: str) -> str:
    body = _PLOT_BODIES[kind].replace("CSV", f'"{csv_path}"')
    return (
        "# gnuplot script; run: gnuplot -p <this file>\n"
        'set datafile separator ","\n'
        "set key autotitle columnhead\n"
        "set grid\n" + body
    )


def _csv_kind(path: str) -> str:
    kind = None
    with open(path, encoding="utf-8", errors="replace") as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            key, _, value = line[1:].strip().partition("=")
            if key.strip() == "kind":
                kind = value.strip()
    if kind not in _PLOT_BODIES:
        raise InvalidInput(f"cannot infer plot kind from {path!r} (kind={kind!r})")
    return kind


def cmd_gplot(args) -> int:
    if not Path(args.csv).is_file():
        raise MissingInput(f"CSV file not found: {args.csv!r}")
    kind = args.kind or _csv_kind(args.csv)
    script = _plot_script(args.csv, kind)
    if args.out == "-":
        sys.stdout.write(script)
    else:
        Path(args.out).write_text(script, encoding="utf-8")
    return 0


def _add_common(sub, tau_axis: bool, t_default: float) -> None:
    sub.add_argument("--h", type=float, default=1e-3, help="integration step")
    sub.add_argument("--record-every", type=int, default=None,
                     help=f"store every Nth step (CSV decimation, default {RECORD_EVERY}, or "
                          "the run's steps if fewer); a given value may not exceed the run's "
                          "steps, round(t-max / h)")
    sub.add_argument("--out", default="-", help="output CSV path ('-' = stdout)")
    sub.add_argument("--emit-plot", action="store_true",
                     help="also write a gnuplot script next to the CSV")
    sub.add_argument("--config", default=None,
                     help="key = value file; flags override file values")
    if tau_axis:
        sub.add_argument("--tau-max", type=float, default=t_default,
                         help="final rescaled time")
    else:
        sub.add_argument("--t-max", type=float, default=t_default, help="final time")


def _add_params(sub, eps_default: float = 0.1) -> None:
    sub.add_argument("--omega", type=float, default=1.0, help="angular frequency")
    sub.add_argument("--eps", type=float, default=None,
                     help=f"reduced forcing strength C/omega^3 (default {eps_default} "
                          "unless --c1 or --c2 is given)")
    sub.add_argument("--c1", type=float, default=None,
                     help="cos forcing coefficient; eps is derived from c1, c2 and omega, "
                          "and an explicit --eps must agree")
    sub.add_argument("--c2", type=float, default=None, help="sin forcing coefficient")
    sub.add_argument("--y0", type=float, default=1.0,
                     help="initial coefficient value (> 0)")
    sub.set_defaults(eps_default=eps_default)


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="tubeint",
        description="Simulate the tube-integrable oscillator and verify its invariants.",
        epilog=(
            "experiment one-liners: "
            "`simulate-y --y0 1 --eps 0.1 --tau-max 500` (series vs numerics, valid regime); "
            "`simulate-y --y0 0.7 --eps 0.1 --tau-max 500` (series breakdown); "
            "`invariant-drift --mode perturbative --eps 0.05 --y0 1.2` "
            "(repeat for y0 1.1/0.9/0.8 for the drift table); "
            "`invariant-drift --mode exact --eps 0.05 --y0 1.1` (exact conservation); "
            "`fourier --eps 0.1 --y0 1 --tau-max 300 --record-every 5` (resonance coefficients); "
            "`ermakov --t-max 200` (chaotically driven conserved invariant). "
            "TUBEINT_SEED is reserved and currently unused."
        ),
    )
    parser.add_argument("--version", action="version", version=f"tubeint {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("simulate-y", help="coefficient equation: RK4 vs series orders 1-3")
    _add_params(s)
    _add_common(s, tau_axis=True, t_default=500.0)
    s.set_defaults(func=cmd_simulate_y)

    s = subs.add_parser("invariant-drift", help="invariant deviation along an oscillator run")
    _add_params(s, eps_default=0.05)
    s.add_argument("--mode", choices=("exact", "perturbative"), default="perturbative")
    s.add_argument("--order", type=int, choices=range(1, ORDER + 1), default=ORDER,
                   help="series truncation order (perturbative mode)")
    s.add_argument("--z0", type=float, default=0.2)
    s.add_argument("--p0", type=float, default=0.0)
    _add_common(s, tau_axis=False, t_default=500.0)
    s.set_defaults(func=cmd_invariant_drift)

    s = subs.add_parser("fourier", help="windowed harmonic amplitudes and secular slopes")
    _add_params(s)
    _add_common(s, tau_axis=True, t_default=300.0)
    s.set_defaults(func=cmd_fourier)

    s = subs.add_parser("ermakov", help="logistic-driver run with its conserved invariant")
    s.add_argument("--l0", type=float, default=0.37, help="logistic seed in [0, 1]")
    s.add_argument("--ts", type=float, default=1.0, help="driver sampling period")
    s.add_argument("--f0", type=float, default=1.0, help="driver base level")
    s.add_argument("--df", type=float, default=0.3, help="driver modulation depth")
    s.add_argument("--z0", type=float, default=0.2)
    s.add_argument("--p0", type=float, default=0.0)
    s.add_argument("--w0", type=float, default=None,
                   help="auxiliary amplitude start (default f(0)^(-1/4))")
    s.add_argument("--dw0", type=float, default=0.0)
    _add_common(s, tau_axis=False, t_default=200.0)
    s.set_defaults(func=cmd_ermakov)

    s = subs.add_parser("gplot", help="emit a gnuplot script for an existing CSV")
    s.add_argument("--csv", required=True, help="input CSV produced by another subcommand")
    s.add_argument("--kind", choices=tuple(_PLOT_BODIES), default=None,
                   help="plot layout (default: infer from CSV metadata)")
    s.add_argument("--out", default="-", help="script path ('-' = stdout)")
    s.add_argument("--config", default=None)
    s.set_defaults(func=cmd_gplot)

    return parser, subs.choices  # each subcommand's parser, by name


def _config_tokens(path: str, sub: argparse.ArgumentParser, command: str) -> list[str]:
    """The `key = value` lines of a config file as `--key=value` flags."""
    p = Path(path)
    if not p.is_file():
        raise MissingInput(f"config file not found: {path!r}")
    options = {a.dest: a for a in sub._actions if a.option_strings and a.dest != "help"}
    tokens, unknown = [], set()
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidInput(f"config file is not UTF-8 text: {path!r}") from exc
    if "\0" in text:
        raise InvalidInput(f"config file holds a NUL character: {path!r}")
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidInput(f"bad config line (expect key = value): {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        action = options.get(key.replace("-", "_"))
        if action is None:
            unknown.add(key)
        elif action.nargs != 0:
            tokens.append(f"{action.option_strings[-1]}={value}")
        elif value.lower() == "true":
            tokens.append(action.option_strings[-1])
        elif value.lower() != "false":
            raise InvalidInput(f"config key {key} takes true or false, got {value!r}")
    if unknown:
        raise InvalidInput(f"unknown config keys for {command}: {', '.join(sorted(unknown))}")
    return tokens


def _find_config(argv: list[str]) -> str | None:
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            return argv[i + 1]
        if tok.startswith("--config="):
            return tok.split("=", 1)[1]
    return None


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, table = build_parser()
    try:
        config_path = _find_config(argv)
        if config_path is not None:
            command = next((tok for tok in argv if not tok.startswith("-")), None)
            if command not in table:
                raise InvalidInput("--config requires a subcommand")
            at = argv.index(command) + 1
            argv[at:at] = _config_tokens(config_path, table[command], command)
        args = parser.parse_args(argv)
        if hasattr(args, "record_every"):
            _resolve_record_every(args)
        emit_plot = getattr(args, "emit_plot", False)
        if emit_plot and args.out == "-":
            raise InvalidInput("--emit-plot needs --out pointing to a file")
        # numpy overflow ends as an error class or inf/NaN; a warning breaks one-line stderr
        with np.errstate(all="ignore"):
            code = args.func(args)
        if emit_plot:
            script = _plot_script(args.out, args.command)
            Path(args.out + ".gp").write_text(script, encoding="utf-8")
        return code
    except (TubeIntError, OSError, OverflowError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        if isinstance(exc, TubeIntError):
            return exc.exit_code
        return 2 if isinstance(exc, OSError) else 3


if __name__ == "__main__":
    sys.exit(main())
