"""The coefficient tables of a compiled run, built ahead of the stepping.

On the compiled RK4, ``integrate._drive`` builds the chunk tables on
``_table_helpers()`` helper threads and on the caller.  Every run here is
compared with the same run at 0 helpers, where the caller builds each table
just before stepping its chunk: the bits, the error raised and its time must
not depend on the helper count, and no thread may outlive the run.  Each
system runs: the driven oscillator, the coupled system with N = 0
(``integrate_y``) and N = 1 (``integrate_coupled``) and the Ermakov pair.

``cli.write_csv`` takes its formatted CSV blocks from the same pipeline; the
last section holds its bytes, its errors and its threads to the same rules.
"""

import contextlib
import io
import sys
import threading
import warnings

import numpy as np
import pytest

import tubeint._rk4 as rk4
import tubeint.cli
import tubeint.ermakov
import tubeint.integrate
from tubeint.ermakov import LogisticDriver, integrate_ermakov
from tubeint.errors import Escape, InvalidInput, PositivityViolation
from tubeint.integrate import IntegrationConfig, integrate_coupled, integrate_y, integrate_z
from tubeint.invariant import tube_surface_samples
from tubeint.model import SystemParams, validate_params
from tubeint.perturb import g_of_t

compiled_only = pytest.mark.skipif(rk4.library() is None,
                                   reason="helpers run only beside the compiled RK4")


def params(eps=0.1, y0=1.0):
    return validate_params(SystemParams(epsilon=eps, y0=y0))


def _g(t):
    return g_of_t(t, params(eps=0.1, y0=1.1))


#: system -> run(config, **initial values): each system's own integrator
RUNS = {
    "z": lambda cfg, z0=0.2: integrate_z(_g, z0, 0.1, 1.0, cfg),
    "y": lambda cfg, eps=0.1, y0=1.0: integrate_y(params(eps, y0), cfg),
    "coupled": lambda cfg, z0=0.2: integrate_coupled(params(), z0, 0.1, cfg),
    "ermakov": lambda cfg: integrate_ermakov(LogisticDriver(), config=cfg),
}


def _outcome(run):
    """(times, data, kernel) bytes of a run, or (error class, message, time)."""
    try:
        traj = run()
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "t", None)
    return traj.times.tobytes(), traj.data.tobytes(), traj.meta["kernel"]


def _pinned(mp, helpers, chunk=None):
    mp.setattr(tubeint.integrate, "_table_helpers", lambda: helpers)
    if chunk is not None:
        mp.setattr(tubeint.integrate, "_CHUNK", chunk)


def _each_helper_count(run, chunk=None):
    """The outcome of run at 0, 1 and 2 helpers; the thread count is checked after each."""
    threads = threading.active_count()
    outcomes = []
    for helpers in (0, 1, 2):
        with pytest.MonkeyPatch.context() as mp:
            _pinned(mp, helpers, chunk)
            outcomes.append(_outcome(run))
        assert threading.active_count() == threads, helpers
    return outcomes


@pytest.fixture
def started(monkeypatch):
    """The threads started while the test runs."""
    threads = []
    start = threading.Thread.start

    def counted(self):
        threads.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return threads


class LateCoefficient(Exception):
    pass


def _coefficient_fails_after(mp, t_fail):
    """Every run's coefficient raises LateCoefficient on a table that reaches past t_fail."""
    drive = tubeint.integrate._drive

    def wrapped(system, coef, *args, **kwargs):
        def failing(t):
            if t[-1] > t_fail:
                raise LateCoefficient(f"table from t={float(t[0])!r}")
            return coef(t)

        return drive(system, failing, *args, **kwargs)

    mp.setattr(tubeint.integrate, "_drive", wrapped)
    mp.setattr(tubeint.ermakov, "_drive", wrapped)


@pytest.mark.parametrize("system", list(RUNS))
@pytest.mark.parametrize("chunk", [1, 7, None])
def test_runs_are_bit_identical_at_any_helper_count(system, chunk):
    # at the default chunk of 4,096 steps the run takes 3 chunks, else 15 or more
    cfg = IntegrationConfig(t_end=100.0 if chunk is None else 1.0, h=1e-2, record_every=3)
    outcomes = _each_helper_count(lambda: RUNS[system](cfg), chunk)
    assert outcomes[0][2] == ("c" if rk4.library() is not None else "python")
    assert outcomes[1] == outcomes[0]
    assert outcomes[2] == outcomes[0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rk4, "_lib", None)
        if chunk is not None:
            mp.setattr(tubeint.integrate, "_CHUNK", chunk)
        python = _outcome(lambda: RUNS[system](cfg))
    assert python[:2] == outcomes[0][:2]


# system -> (config, initial values) of a run whose kernel fails in a later chunk than the first
_KERNEL_FAILURES = {
    "z": (IntegrationConfig(t_end=50.0, h=1e-2, record_every=10, escape_z=1e3), dict(z0=-5.0)),
    "y": (IntegrationConfig(t_end=20.0, h=1e-2, record_every=5), dict(eps=0.5, y0=0.3)),
    "coupled": (IntegrationConfig(t_end=50.0, h=1e-2, record_every=10), dict(z0=-3.0)),
}


@pytest.mark.parametrize("system", list(_KERNEL_FAILURES))
def test_a_kernel_failure_comes_before_a_coefficient_error_of_the_next_chunk(system):
    cfg, x0 = _KERNEL_FAILURES[system]
    run = lambda: RUNS[system](cfg, **x0)  # noqa: E731
    with pytest.MonkeyPatch.context() as mp:
        _pinned(mp, 0, 7)
        failure = _outcome(run)
    assert failure[0] in (Escape, PositivityViolation)
    # the failing step's chunk, then a coefficient that fails from the next chunk on
    k = int(failure[2] / cfg.h + 1e-9) // 7
    assert k > 0
    with pytest.MonkeyPatch.context() as mp:
        _coefficient_fails_after(mp, (k + 1.5) * 7 * cfg.h)
        outcomes = _each_helper_count(run, 7)
    assert outcomes == [failure] * 3


@pytest.mark.parametrize("system", list(RUNS))
def test_a_coefficient_error_in_a_late_chunk_is_the_sequential_one(system):
    cfg = IntegrationConfig(t_end=1.0, h=1e-2, record_every=3)
    with pytest.MonkeyPatch.context() as mp:
        _coefficient_fails_after(mp, 0.6)
        outcomes = _each_helper_count(lambda: RUNS[system](cfg), 7)
    # chunk 8 (steps 56 .. 62) is the first whose table reaches past t = 0.6
    assert outcomes[0] == (LateCoefficient, f"table from t={0.005 * 112!r}", None)
    assert outcomes[1] == outcomes[2] == outcomes[0]


@compiled_only
def test_a_first_table_error_arises_before_any_helper_starts(started):
    cfg = IntegrationConfig(t_end=1.0, h=1e-2)

    def g(t):
        raise InvalidInput("no coefficient")

    with pytest.MonkeyPatch.context() as mp:
        _pinned(mp, 2, 7)
        with pytest.raises(InvalidInput, match="no coefficient"):
            integrate_z(g, 0.2, 0.0, 1.0, cfg)
        assert started == []
        integrate_z(_g, 0.2, 0.0, 1.0, cfg)
    assert len(started) == 2


@compiled_only
def test_helper_tables_share_the_callers_numpy_error_state():
    # exp overflows from t = 0.71 on; the caller waits there until a helper
    # has built such a table, so at least one overflow happens on a helper
    caller = threading.current_thread()
    helper_overflowed = threading.Event()

    def f(t):
        return np.minimum(np.exp(1000.0 * t), 1.0)

    def g(t):
        values = f(t)
        if t[-1] > 0.71:
            if threading.current_thread() is caller:
                helper_overflowed.wait(timeout=30)
            else:
                helper_overflowed.set()
        return values

    cfg = IntegrationConfig(t_end=10.0, h=1e-2)
    with pytest.MonkeyPatch.context() as mp:
        _pinned(mp, 0, 7)
        with np.errstate(all="ignore"):
            reference = integrate_z(f, 0.2, 0.0, 1.0, cfg)
        _pinned(mp, 1, 7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="ignore"):
                traj = integrate_z(g, 0.2, 0.0, 1.0, cfg)
    assert helper_overflowed.is_set()
    assert traj.data.tobytes() == reference.data.tobytes()


@compiled_only
def test_a_tube_grid_starts_no_table_helper(started):
    # 3 cores: a grid of one filament runs in one part, on the caller, beside
    # two spare cores that its lockstep run leaves to other parts
    cfg = IntegrationConfig(t_end=1.0, h=1e-2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tubeint.integrate, "_cores", lambda: 3)
        mp.setattr(tubeint.integrate, "_CHUNK", 7)
        tube_surface_samples(params(), [0.1], [0.0], cfg.t_end, cfg.h, cfg.record_every)
        assert started == []
        # the same lockstep run outside a tube grid starts both helpers
        integrate_coupled(params(), 0.1, 0.0, cfg)
    assert len(started) == 2


@compiled_only
def test_many_helpers_under_fast_thread_switching_build_each_table_once():
    # more helpers than cores and a switch interval of 1 us: a lost update of
    # the shared claim count would build some table twice or not at all
    firsts = []

    def g(t):
        firsts.append(float(t[0]))
        return _g(t)

    cfg = IntegrationConfig(t_end=3.0, h=1e-2, record_every=3)
    with pytest.MonkeyPatch.context() as mp:
        _pinned(mp, 0, 1)
        reference = integrate_z(_g, 0.2, 0.1, 1.0, cfg)
        _pinned(mp, 2 * tubeint.integrate._cores() + 2, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            traj = integrate_z(g, 0.2, 0.1, 1.0, cfg)
        finally:
            sys.setswitchinterval(interval)
    assert sorted(firsts) == [0.005 * (2 * k) for k in range(300)]
    assert traj.data.tobytes() == reference.data.tobytes()


# --- CSV blocks: ``cli.write_csv`` ------------------------------------------

# 9,001 rows: three blocks of 4,096 rows, five of the default 2,048
SIMULATE = ["simulate-y", "--tau-max", "9", "--record-every", "1"]


def _csv_at(mp, helpers, block, path):
    _pinned(mp, helpers)
    mp.setattr(tubeint.cli, "_BLOCK", block)
    assert tubeint.cli.main(SIMULATE + ["--out", str(path)]) == 0
    return path.read_bytes()


def test_cli_bytes_do_not_depend_on_helpers_or_block_size(tmp_path):
    threads = threading.active_count()
    with pytest.MonkeyPatch.context() as mp:
        reference = _csv_at(mp, 0, tubeint.cli._BLOCK, tmp_path / "reference.csv")
    assert reference.count(b"\n") == 9001 + 11
    for helpers in (0, 1, 2):
        for block in (1, 7, 4096, tubeint.cli._BLOCK):
            with pytest.MonkeyPatch.context() as mp:
                assert _csv_at(mp, helpers, block, tmp_path / "out.csv") == reference, \
                    (helpers, block)
            assert threading.active_count() == threads


def test_a_failing_late_block_leaves_the_blocks_before_it(tmp_path):
    # row 50 of the integer column is not an integer below 2^53: block 7 of
    # 7 rows fails, after the 49 rows of blocks 0 .. 6 are written
    k = np.arange(200)
    t = 0.25 * k
    bad = k.copy()
    bad[50] = 2**60
    whole = tmp_path / "whole.csv"
    tubeint.cli.write_csv(str(whole), [("kind", "test")], ["k", "t"], [k, t])
    expected = b"".join(whole.read_bytes().splitlines(keepends=True)[:2 + 49])
    threads = threading.active_count()
    for helpers in (0, 1, 2):
        out = tmp_path / f"{helpers}.csv"
        with pytest.MonkeyPatch.context() as mp:
            _pinned(mp, helpers)
            mp.setattr(tubeint.cli, "_BLOCK", 7)
            with pytest.raises(ValueError, match="^an integer column holds a value that is not "
                                                 "an integer below 2\\^53$"):
                tubeint.cli.write_csv(str(out), [("kind", "test")], ["k", "t"], [bad, t])
        assert threading.active_count() == threads
        assert out.read_bytes() == expected, helpers


def test_the_repr_path_starts_no_helper(started, tmp_path):
    columns = [np.arange(100), np.linspace(0.0, 1.0, 100)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tubeint.integrate, "_cores", lambda: 3)
        mp.setattr(tubeint.cli, "_BLOCK", 7)
        mp.setattr(rk4, "_lib", None)
        tubeint.cli.write_csv(str(tmp_path / "python.csv"), [], ["k", "x"], columns)
        assert started == []
        mp.undo()
        if rk4.library() is None:
            return
        # beside the compiled formatter the same write starts both helpers
        mp.setattr(tubeint.integrate, "_cores", lambda: 3)
        mp.setattr(tubeint.cli, "_BLOCK", 7)
        tubeint.cli.write_csv(str(tmp_path / "compiled.csv"), [], ["k", "x"], columns)
    assert len(started) == 2
    assert (tmp_path / "compiled.csv").read_bytes() == (tmp_path / "python.csv").read_bytes()


def test_standard_output_takes_the_same_bytes_through_any_layer(tmp_path, capsys):
    argv = SIMULATE[:2] + ["2"] + SIMULATE[3:]
    assert tubeint.cli.main(argv + ["--out", str(tmp_path / "out.csv")]) == 0
    reference = (tmp_path / "out.csv").read_bytes()
    capsys.readouterr()
    assert tubeint.cli.main(argv + ["--out", "-"]) == 0
    assert capsys.readouterr().out.encode() == reference
    # a text layer with no binary one
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert tubeint.cli.main(argv + ["--out", "-"]) == 0
    assert text.getvalue().encode() == reference
    # a buffered text layer: what it holds goes out before the CSV
    raw = io.BytesIO()
    layered = io.TextIOWrapper(raw, encoding="utf-8")
    with contextlib.redirect_stdout(layered):
        print("before")
        assert tubeint.cli.main(argv + ["--out", "-"]) == 0
        print("after")
    layered.flush()
    assert raw.getvalue() == b"before\n" + reference + b"after\n"
