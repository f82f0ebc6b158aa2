"""The compiled RK4 against the Python RK4.

Each system is the same field in C and in Python, under one RK4 each
(``_rk4.c`` and ``tubeint.integrate``).  Each case runs twice: on the compiled
RK4 and on the Python one, chosen by setting the loaded library to None.  Both
paths must record the same times and data to the bit, or raise the same error
with the same message.  A coupled case carries one (z, p) pair or several
behind its coefficient block; a y case (``integrate_y``) runs the coupled
field with no pairs at omega = 1.
"""

import ctypes
import os
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import tubeint._rk4 as rk4
import tubeint.integrate
from tubeint import perturb
from tubeint.ermakov import LogisticDriver, integrate_ermakov
from tubeint.errors import TubeIntError
from tubeint.integrate import (IntegrationConfig, _coupled, integrate_coupled, integrate_y,
                               integrate_z)
from tubeint.model import SystemParams, validate_params


def _params(a):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # nonzero yp0/ypp0
        return validate_params(SystemParams(omega=a["omega"], c1=a["c1"], c2=a["c2"],
                                            y0=a["y0"], yp0=a["yp0"], ypp0=a["ypp0"]))


def _integrate(system, a, cfg):
    if system == "y":
        return integrate_y(_params(a), cfg)
    if system == "z":
        g0, g1 = a["g"]
        return integrate_z(lambda t: g0 + g1 * np.cos(t), a["z0"], a["p0"], a["omega"], cfg)
    if system == "coupled" and a["pairs"]:  # (times, one state table, path)
        return _coupled(_params(a), [(a["z0"], a["p0"]), *a["pairs"]], cfg)
    if system == "coupled":
        return integrate_coupled(_params(a), a["z0"], a["p0"], cfg)
    return integrate_ermakov(LogisticDriver(*a["driver"]), a["z0"], a["p0"], a["w0"], a["dw0"],
                             config=cfg)


def _outcome(system, a, cfg):
    """(times, data, kernel) of a run, or (error class, message, time)."""
    try:
        run = _integrate(system, a, cfg)
    except TubeIntError as exc:
        return type(exc), str(exc), getattr(exc, "t", None)
    times, data, kernel = run if isinstance(run, tuple) else (run.times, run.data,
                                                              run.meta["kernel"])
    return times.tobytes(), data.tobytes(), kernel


def _both(system, a, cfg, chunk):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tubeint.integrate, "_CHUNK", chunk)
        compiled = _outcome(system, a, cfg)
        mp.setattr(rk4, "_lib", None)
        python = _outcome(system, a, cfg)
    return compiled, python


def _compiler_builds() -> bool:
    """Whether ``rk4.COMPILER`` builds a trivial shared object with ``rk4.FLAGS``."""
    with tempfile.TemporaryDirectory() as tmp:
        probe = Path(tmp, "probe.c")
        probe.write_text("int tubeint_probe(void) { return 0; }\n")
        try:
            done = subprocess.run([rk4.COMPILER, *rk4.FLAGS, "-o", str(probe.with_suffix(".so")),
                                   str(probe)], capture_output=True, timeout=120)
        except (OSError, subprocess.SubprocessError):
            return False
    return done.returncode == 0


# A compiler that builds the probe but not _rk4.c still runs these, and fails them.
needs_compiler = pytest.mark.skipif(not _compiler_builds(),
                                    reason=f"{rk4.COMPILER} cannot build a shared object")


def _args(**kw):
    a = dict(omega=1.0, c1=0.1, c2=0.0, y0=1.0, yp0=0.0, ypp0=0.0, g=(1.0, 0.0), z0=0.2,
             p0=0.0, pairs=[], driver=(0.37, 1.0, 1.0, 0.3), w0=None, dw0=0.0)
    a.update(kw)
    return a


def _num(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def cases(draw):
    system = draw(st.sampled_from(["y", "z", "coupled", "ermakov"]))
    h = draw(_num(1e-3, 0.5))
    cfg = IntegrationConfig(t_end=h * draw(st.integers(1, 400)), h=h,
                            record_every=draw(st.integers(1, 12)))
    a = _args(
        omega=draw(_num(0.2, 3.0)),
        c1=draw(_num(-3.0, 3.0)),
        c2=draw(st.sampled_from([0.0, 0.5, -1.0])),
        y0=draw(_num(0.05, 3.0)),
        yp0=draw(st.sampled_from([0.0, 0.3, -2.0])),
        ypp0=draw(st.sampled_from([0.0, -1.0])),
        g=(draw(_num(-2.0, 2.0)), draw(_num(-2.0, 2.0))),
        z0=draw(_num(-5.0, 5.0)),
        p0=draw(_num(-5.0, 5.0)),
        # 1, 2 or 5 (z, p) pairs in a coupled state
        pairs=[(draw(_num(-5.0, 5.0)), draw(_num(-5.0, 5.0)))
               for _ in range(draw(st.sampled_from([0, 1, 4])))],
        driver=(draw(_num(0.0, 1.0)), draw(_num(0.2, 2.0)), 1.0, draw(_num(0.0, 0.6))),
        w0=draw(st.one_of(st.none(), _num(0.01, 3.0))),
        dw0=draw(_num(-10.0, 10.0)),
    )
    return system, a, cfg, draw(st.sampled_from([1, 7, 4096]))


# Failures of the Python RK4, each with the error it raises.
# y = 0.5 - sin(2 tau) crosses zero near pi/12
_Y_POSITIVITY = ("y", _args(c1=0.0, y0=0.5, yp0=-2.0), IntegrationConfig(t_end=5.0), 4096)
_W_POSITIVITY = ("ermakov", _args(w0=0.01, dw0=-10.0), IntegrationConfig(t_end=5.0, h=0.5), 7)
# in a later chunk than the first
_ESCAPE = ("z", _args(z0=-5.0), IntegrationConfig(t_end=50.0, record_every=10), 4096)
# z0 = 1e200 overflows z*z in the first step, so z is NaN after it
_NAN_ESCAPE = ("coupled", _args(z0=1e200), IntegrationConfig(t_end=1.0, record_every=1000), 7)
# y0^-2.5 overflows: Python's ** raises, C's pow returns inf
_OVERFLOW = ("y", _args(c1=0.0, y0=1e-250), IntegrationConfig(t_end=0.001), 1)
# Nonpositive first at a given stage of a known step, with h a power of two so
# that the stage times are exact: y (coupled) at t + h/2 of step 3, y at t + h
# of step 1, w at t + h of step 12 and w at t of step 13 (constant drivers, so
# that a shorter run sees the same f).
_Y_HALF = ("coupled", _args(c1=0.0, y0=0.5, yp0=-1.0), IntegrationConfig(t_end=5.0, h=0.25), 7)
_Y_END = ("y", _args(c1=0.0, y0=0.2, yp0=-0.5), IntegrationConfig(t_end=5.0, h=0.25), 4096)
_W_END = ("ermakov", _args(w0=0.5, dw0=-0.5, driver=(0.37, 1.0, 1.0, 0.0)),
          IntegrationConfig(t_end=10.0, h=0.5), 7)
_W_START = ("ermakov", _args(w0=0.3, dw0=-2.0, driver=(0.37, 1.0, 4.0, 0.0)),
            IntegrationConfig(t_end=5.0, h=0.125), 4096)
# Three (z, p) pairs, which the compiled RK4 steps in two passes (the block,
# then the pairs).  With y = 0.5 - tau + ... and h = 2^-10, y is nonpositive
# first at t + h/2 of step 804, while g = y^(-5/2) blows up: from z0 = -1e-5
# one oscillator escapes at step 800, before the violation; from z0 = -1e-7
# it is on course to escape just after it (from -3e-7 it escapes at step 804).
_PAIRS_Y = dict(c1=0.0, y0=0.5, yp0=-1.0, z0=0.0, p0=0.0)
_PAIRS_ESCAPE = ("coupled", _args(**_PAIRS_Y, pairs=[(-1e-5, 0.0), (0.0, 0.0)]),
                 IntegrationConfig(t_end=5.0, h=2.0**-10), 4096)
_PAIRS_POSITIVITY = ("coupled", _args(**_PAIRS_Y, pairs=[(-1e-7, 0.0), (0.0, 0.0)]),
                     IntegrationConfig(t_end=5.0, h=2.0**-10), 4096)
_PAIRS_OVERFLOW = ("coupled", _args(c1=0.0, y0=1e-250, z0=0.1, pairs=[(0.2, 0.0), (0.3, 0.0)]),
                   IntegrationConfig(t_end=0.001), 1)
# unforced at y0 = 1e-100, y^(-5/2) = 1e250, so J overflows in step 1 of
# h = 1e60 while every oscillator stays at rest, so no escape comes first:
# the record at step 1 finds it
_PAIRS_J_NAN = ("coupled", _args(c1=0.0, y0=1e-100, z0=0.0, pairs=[(0.0, 0.0), (0.0, 0.0)]),
                IntegrationConfig(t_end=3e60, h=1e60, record_every=1), 7)
# y^(-5/2) = 6e307 and a sine forcing, which is 0 at t = 0: the block stays
# finite, while the sum of p's four stage slopes overflows in step 1 of
# h = 1e-200 and z stays at 1: only the pairs' record finds it
_PAIRS_P_NAN = ("coupled", _args(c1=0.0, c2=1.0, y0=6e307**-0.4, z0=1.0,
                                 pairs=[(0.0, 0.0), (0.0, 0.0)]),
                IntegrationConfig(t_end=3e-200, h=1e-200, record_every=1), 7)
# (case, error, stage): a positivity failure at stage t + stage * h of its step
_FAILURES = [(_Y_POSITIVITY, "PositivityViolation", None),
             (_W_POSITIVITY, "PositivityViolation", 0.5),
             (_ESCAPE, "Escape", None), (_NAN_ESCAPE, "Escape", None),
             (_OVERFLOW, "NonFinite", None),
             (_Y_HALF, "PositivityViolation", 0.5), (_Y_END, "PositivityViolation", 1.0),
             (_W_END, "PositivityViolation", 1.0), (_W_START, "PositivityViolation", 0.0),
             (_PAIRS_ESCAPE, "Escape", None), (_PAIRS_POSITIVITY, "PositivityViolation", 0.5),
             (_PAIRS_OVERFLOW, "NonFinite", None), (_PAIRS_J_NAN, "NonFinite", None),
             (_PAIRS_P_NAN, "NonFinite", None)]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(cases())
@example(_Y_POSITIVITY)
@example(_W_POSITIVITY)
@example(_ESCAPE)
@example(_NAN_ESCAPE)
@example(_OVERFLOW)
@example(_Y_HALF)
@example(_Y_END)
@example(_W_END)
@example(_W_START)
def test_kernel_matches_python_steps(case):
    compiled, python = _both(*case)
    if isinstance(python[0], type):
        assert compiled == python
    else:
        assert compiled[:2] == python[:2]
        assert python[2] == "python"
        assert compiled[2] == ("python" if rk4.library() is None else "c")


@pytest.mark.parametrize("case, error, stage", _FAILURES,
                         ids=[f"case{i}-{error}" for i, (_, error, _) in enumerate(_FAILURES)])
def test_examples_raise_their_failure(case, error, stage):
    compiled, python = _both(*case)
    assert compiled == python
    assert compiled[0].__name__ == error
    if stage is None:
        return
    system, a, cfg, chunk = case
    t, h = compiled[2], cfg.h
    k = round(t / h - stage)
    assert t - k * h == stage * h
    # k is the failing step: a run of k steps completes, one of k + 1 does not
    for steps, fails in ((k, False), (k + 1, True)):
        if steps:
            cut, cut_python = _both(system, a, IntegrationConfig(t_end=steps * h, h=h), chunk)
            if fails:
                assert cut == cut_python == compiled
            else:
                assert cut[:2] == cut_python[:2] and not isinstance(cut[0], type)


_RUNS = [
    ("y", _args(c1=0.1, y0=0.9), IntegrationConfig(t_end=3.0, h=1e-2, record_every=3)),
    ("z", _args(g=(0.5, 0.3)), IntegrationConfig(t_end=3.0, h=1e-2, record_every=3)),
    ("coupled", _args(c1=0.1, y0=1.1), IntegrationConfig(t_end=3.0, h=1e-2, record_every=3)),
    ("ermakov", _args(), IntegrationConfig(t_end=3.0, h=1e-2, record_every=3)),
]


@needs_compiler
def test_kernel_source_compiles_without_warnings():
    # an unused field argument or an implicit conversion keeps the bits, so
    # the parity tests would not see it; nor would they see a variable-length
    # array, which would put a coupled state of any size on the stack; the
    # second build takes the branch of a compiler without target_clones
    flags = ["-std=c99", "-pedantic", "-Wall", "-Wextra", "-Wvla", "-Werror", "-ffp-contract=off"]
    for guard in ([], ["-U__ELF__"]):
        done = subprocess.run([rk4.COMPILER, *flags, *guard, "-fsyntax-only", str(rk4.SOURCE)],
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, (guard, done.stderr)


def test_kernel_flags_keep_the_bits():
    # the C and Python paths agree to the bit only without fused multiply-adds
    # and without math optimisations that change values; an -march build may
    # not run on another machine that shares the cache directory
    assert "-ffp-contract=off" in rk4.FLAGS
    unsafe = {"-Ofast", "-ffast-math", "-funsafe-math-optimizations", "-fassociative-math"}
    assert not unsafe & set(rk4.FLAGS)
    assert not any(flag.startswith("-march") for flag in rk4.FLAGS)


@needs_compiler
def test_kernel_runs_when_a_compiler_exists():
    for system, a, cfg in _RUNS:
        assert _integrate(system, a, cfg).meta["kernel"] == "c"


@needs_compiler
def test_kernel_calls_release_the_gil():
    # tube grid parts run the compiled RK4 on threads at once only because a
    # CDLL call releases the GIL; a PyDLL call holds it
    lib = rk4.library()
    assert isinstance(lib, ctypes.CDLL) and not isinstance(lib, ctypes.PyDLL)


def _fresh_load(mp, cache):
    """Forget the loaded library and point the build cache at ``cache``."""
    mp.setattr(rk4, "_lib", rk4._UNSET)
    mp.setenv("XDG_CACHE_HOME", str(cache))


def test_no_compiler_runs_the_python_steps(tmp_path, capfd):
    reference = [_integrate(system, a, cfg) for system, a, cfg in _RUNS]
    with pytest.MonkeyPatch.context() as mp:
        _fresh_load(mp, tmp_path)
        mp.setattr(rk4, "COMPILER", "no-such-compiler-for-tubeint")
        runs = [_integrate(system, a, cfg) for system, a, cfg in _RUNS]
    for ref, traj in zip(reference, runs):
        assert traj.meta["kernel"] == "python"
        assert traj.times.tobytes() == ref.times.tobytes()
        assert traj.data.tobytes() == ref.data.tobytes()
    assert capfd.readouterr() == ("", "")
    assert not (tmp_path / "tubeint").exists()


@needs_compiler
@pytest.mark.parametrize("damage", ["truncated", "garbage"])
def test_corrupt_cached_build_is_rebuilt(tmp_path, capfd, damage):
    system, a, cfg = _RUNS[2]
    reference = _integrate(system, a, cfg)
    good = Path((rk4.library() or pytest.skip("no kernel"))._name)
    cache = tmp_path / "tubeint"
    cache.mkdir()
    if damage == "truncated":  # the name of an intact build, half of its bytes
        (cache / good.name).write_bytes(good.read_bytes()[: good.stat().st_size // 2])
    else:
        (cache / f"{rk4._key()}-0123456789abcdef.so").write_bytes(b"not a library\n")
    with pytest.MonkeyPatch.context() as mp:
        _fresh_load(mp, tmp_path)
        traj = _integrate(system, a, cfg)
    assert traj.meta["kernel"] == "c"
    assert traj.data.tobytes() == reference.data.tobytes()
    [rebuilt] = cache.iterdir()
    assert rebuilt == rk4._cached(cache, rk4._key())
    assert capfd.readouterr() == ("", "")


@needs_compiler
def test_new_build_removes_builds_of_other_keys(tmp_path, capfd):
    system, a, cfg = _RUNS[0]
    cache = tmp_path / "tubeint"
    cache.mkdir(mode=0o700)
    stale = [cache / "_rk4-0000000000000000-1111111111111111.so", cache / "_rk4-old-x.so"]
    kept = [cache / "notes.txt", cache / "_rk4-0000000000000000.so", cache / ".build-x.so",
            cache / "_rk4-a-b.so.bak"]
    locked = cache / "_rk4-4444444444444444-5555555555555555.so"
    for path in stale + kept + [locked]:
        path.write_bytes(b"an old build\n")
    (cache / "_rk4-dir-x.so").mkdir()
    outside = tmp_path / "outside.so"
    outside.write_bytes(b"not in the cache\n")
    link = cache / "_rk4-2222222222222222-3333333333333333.so"
    link.symlink_to(outside)
    unlink = Path.unlink

    def refuse(path, *args, **kwargs):
        if path == locked:
            raise PermissionError(f"cannot remove {path}")
        return unlink(path, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        _fresh_load(mp, tmp_path)
        mp.setattr(Path, "unlink", refuse)
        assert _integrate(system, a, cfg).meta["kernel"] == "c"
    build = rk4._cached(cache, rk4._key())
    assert build is not None
    left = kept + [locked, cache / "_rk4-dir-x.so", link, build]
    assert sorted(cache.iterdir()) == sorted(left)
    assert outside.read_bytes() == b"not in the cache\n"
    assert capfd.readouterr() == ("", "")


@needs_compiler
@pytest.mark.parametrize("cache", ["unwritable", "shared"])
def test_unusable_cache_builds_in_a_temporary_directory(tmp_path, capfd, cache):
    system, a, cfg = _RUNS[0]
    reference = _integrate(system, a, cfg)
    if cache == "unwritable":  # the cache would sit below a regular file
        root = tmp_path / "file"
        root.write_text("")
    else:  # other users could plant a library there
        root = tmp_path / "shared"
        (root / "tubeint").mkdir(parents=True)
        (root / "tubeint").chmod(0o777)
    temp_root = tmp_path / "tmp"
    temp_root.mkdir()
    with pytest.MonkeyPatch.context() as mp:
        _fresh_load(mp, root)
        mp.setattr(tempfile, "tempdir", str(temp_root))
        traj = _integrate(system, a, cfg)
    assert traj.meta["kernel"] == "c"
    assert traj.data.tobytes() == reference.data.tobytes()
    assert list(temp_root.iterdir()) == []  # the build directory is gone once loaded
    if cache == "shared":
        assert list((root / "tubeint").iterdir()) == []
    assert capfd.readouterr() == ("", "")


# Runs a README one-liner (shortened) on the compiled RK4 with table helpers
# on and off and on the Python RK4, in the child's own numpy dispatch.  Prints
# the enabled dispatch targets first and one sha256 per run last.
_DISPATCH_CHILD = """
import hashlib, pathlib, sys, tempfile
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
import tubeint._rk4 as rk4
import tubeint.integrate
from tubeint.cli import main

print(" ".join(name for name in __cpu_dispatch__ if __cpu_features__.get(name)))
lib = rk4.library()
assert lib is not None
digests = []
for library, helpers in ((lib, 1), (lib, 0), (None, 0)):
    rk4._lib = library
    tubeint.integrate._table_helpers = lambda: helpers
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp, "out.csv")
        assert main(sys.argv[1:] + ["--out", str(out)]) == 0
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
print(" ".join(digests))
"""

_DISABLED = ("AVX512_SPR", "AVX512_ICL", "X86_V4")


@needs_compiler
@pytest.mark.parametrize("argv", [
    ["invariant-drift", "--mode", "perturbative", "--eps", "0.05", "--y0", "0.8", "--t-max", "50"],
    ["simulate-y", "--y0", "1", "--eps", "0.1", "--tau-max", "50"],
])
def test_both_paths_agree_under_another_numpy_dispatch(argv):
    # numpy's exp and power give other bits on their AVX-512 paths, so the
    # bytes of both runs are those of one host and numpy build (on an AVX-512
    # CPU with numpy 2.4 both change when it is off); the two RK4 paths, with
    # table helpers or without, must still agree with each other
    src = Path(tubeint.integrate.__file__).resolve().parents[1]
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(_DISABLED),
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _DISPATCH_CHILD, *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()  # the dispatch targets, summaries, the digests
    assert not set(lines[0].split()) & set(_DISABLED)
    helpers, no_helpers, python = lines[-1].split()
    assert helpers == no_helpers == python


# Each system's _drive arguments: coefficient, initial state, eps and omega.
_DRIVES = {
    "z": (lambda t: 1.0 + 0.3 * np.cos(t), (0.2, 0.1), 0.0, 1.3),
    "y": (np.cos, (1.0, 0.0, 0.0, 0.0), 0.2, 1.0),
    "coupled": (lambda t: np.cos(1.2 * t), (1.1, 0.0, 0.0, 0.0, 0.2, 0.1, -0.3, 0.0, 0.5, 0.2),
                0.1, 1.2),
    "ermakov": (lambda t: 1.0 + 0.2 * np.sin(t), (0.2, 0.0, 1.0, 0.0), 0.0, 0.0),
}


@pytest.mark.parametrize("path", ["c", "python"])
@pytest.mark.parametrize("system", list(_DRIVES))
def test_leading_columns_leave_the_recorded_state_bits(monkeypatch, system, path):
    # the state recorded behind 1 or 3 leading columns is the state recorded
    # alone, over several chunks, with the times (i * record_every) * h
    if path == "python":
        monkeypatch.setattr(rk4, "_lib", None)
    monkeypatch.setattr(tubeint.integrate, "_CHUNK", 7)
    coef, x0, eps, omega = _DRIVES[system]
    cfg = IntegrationConfig(t_end=1.0, h=1e-2, record_every=3)
    kind = "coupled" if system == "y" else system
    runs = {lead: tubeint.integrate._drive(kind, coef, x0, cfg, eps, omega, lead=lead)
            for lead in (0, 1, 3)}
    times, alone, ran = runs[0]
    assert ran == ("c" if rk4.library() is not None else "python")
    assert times.tobytes() == (np.arange(len(alone)) * cfg.record_every * cfg.h).tobytes()
    assert alone.shape == (len(times), len(x0)) and alone.flags.owndata
    for lead in (1, 3):
        t, data, path_ran = runs[lead]
        assert (path_ran, t.tobytes()) == (ran, times.tobytes())
        assert data.shape == (len(times), lead + len(x0)) and data.flags.owndata
        assert data[:, lead:].tobytes() == alone.tobytes()


def _read_only(array):
    array.setflags(write=False)
    return array


def _no_library(mp):
    """Make loading the library, or calling it, fail the test."""
    def fail(*args):
        raise AssertionError("the library was used")

    mp.setattr(rk4, "_lib", rk4._UNSET)
    mp.setattr(rk4, "_load", fail)


@pytest.mark.parametrize("out", [
    np.empty((5, 4))[:, ::2],  # rows not contiguous
    np.empty((5, 2), order="F"),  # column-major
    np.empty((5, 1)),  # rows shorter than the state
    np.empty((5, 3))[:, 1:2],  # a short view of a wider table
    np.empty((5, 2), dtype=np.float32),
    np.empty(10),  # no rows
    np.empty((10, 2))[::-2],  # rows in reverse
    np.lib.stride_tricks.as_strided(np.empty(15), (5, 2), (20, 8)),  # rows not doubles apart
    _read_only(np.zeros((5, 2))),
], ids=["strided", "fortran", "short", "short-view", "float32", "1-d", "reversed",
        "half-double-stride", "read-only"])
def test_kernel_rejects_an_out_it_cannot_record_into_before_any_library_call(out):
    with pytest.MonkeyPatch.context() as mp:
        _no_library(mp)
        with pytest.raises(ValueError, match=r"^z kernel needs a float64 out of 2 contiguous "
                                             r"columns$"):
            rk4.kernel("z", (0.01, 0.0, 1.0), (0.2, 0.0), out, 1e6, 1)


@needs_compiler
def test_compiled_rows_land_at_the_table_stride():
    # the state columns of a wider table: the columns before and after them
    # keep what they held
    if rk4.library() is None:
        pytest.skip("the compiled library did not build")
    coef, x0, eps, omega = _DRIVES["ermakov"]
    cfg = IntegrationConfig(t_end=1.0, h=1e-2, record_every=4)
    times, alone, _ = tubeint.integrate._drive("ermakov", coef, x0, cfg)
    table = np.full((len(times), 1 + len(x0) + 2), -7.0)
    out = table[:, 1:1 + len(x0)]
    out[0] = x0
    run = rk4.kernel("ermakov", (cfg.h, eps, omega), x0, out, tubeint.integrate._ESCAPE_Z,
                     cfg.record_every)
    n = cfg.plan()[0]
    status, _, _ = run(np.ascontiguousarray(coef(0.5 * cfg.h * np.arange(2 * n + 1))), 0, n)
    assert status == rk4.OK
    assert out.tobytes() == alone.tobytes()
    assert (table[:, 0] == -7.0).all() and (table[:, -2:] == -7.0).all()


@needs_compiler
@pytest.mark.parametrize("system, dim", [("z", 3), ("ermakov", 6), ("coupled", 5),
                                         ("coupled", 7)])
def test_compiled_runner_rejects_a_dimension_its_system_does_not_have(system, dim):
    # the C returns -1 before it steps: the runner raises at its first chunk
    # and no row after the initial one is written
    if rk4.library() is None:
        pytest.skip("the compiled library did not build")
    x0 = tuple(0.5 + i / 8 for i in range(dim))
    out = np.full((4, dim), -7.0)
    out[0] = x0
    run = rk4.kernel(system, (1e-2, 0.1, 1.0), x0, out, 1e6, 1)
    with pytest.raises(ValueError, match=rf"^{system} kernel has no state of dimension {dim}$"):
        run(np.ones(2 * 3 + 1), 0, 3)
    assert out[0].tolist() == list(x0)
    assert (out[1:] == -7.0).all()


@needs_compiler
def test_several_oscillators_keep_their_bits_on_a_small_thread_stack():
    # the two-pass stepping keeps its stage values on the C stack; a thread
    # of 128 KiB of stack (musl's default) runs it with the main thread's bits
    if rk4.library() is None:
        pytest.skip("the compiled library did not build")
    params = _params(_args(c1=0.2, y0=1.1))
    pairs = [(0.2, 0.1), (-0.3, 0.0), (0.5, 0.2)]
    cfg = IntegrationConfig(t_end=30.0, h=1e-2, record_every=7)  # three passes of steps

    def run():
        times, data, path = _coupled(params, pairs, cfg, helpers=0)
        return times.tobytes(), data.tobytes(), path

    results = []
    size = threading.stack_size(128 * 1024)
    try:
        thread = threading.Thread(target=lambda: results.append(run()))
        thread.start()
    finally:
        threading.stack_size(size)
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert results == [run()]
    assert results[0][2] == "c"


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """The library built without target_clones (the -U__ELF__ branch): its
    pair pass and series sums are the baseline clones alone, where the default
    build runs the AVX-512 or AVX2 clone that the CPU has."""
    if rk4.library() is None:
        pytest.skip("the compiled library did not build")
    path = tmp_path_factory.mktemp("baseline") / "baseline.so"
    done = subprocess.run([rk4.COMPILER, *rk4.FLAGS, "-U__ELF__", "-o", str(path),
                           str(rk4.SOURCE), *rk4.LIBS], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    library = rk4._open(path)
    assert library is not None
    return library


@needs_compiler
def test_baseline_pair_pass_keeps_the_bits(baseline):
    # the baseline pair_pass gives the bytes and the first failure of the
    # default build's clone, at pair counts below, at and above one 8-lane
    # (AVX-512) vector of pairs
    params = _params(_args(c1=0.2, y0=1.1))
    pairs = [(0.2, 0.1), (-0.3, 0.0), (0.5, 0.2), (0.1, -0.2), (0.0, 0.3), (-0.1, -0.1),
             (0.25, -0.05), (-0.2, 0.2), (0.05, 0.15), (-0.4, 0.1), (0.3, -0.3)]
    cfg = IntegrationConfig(t_end=30.0, h=1e-2, record_every=7)  # 3,000 steps: six passes
    system, a, failing, chunk = _PAIRS_P_NAN

    def outcomes():
        runs = [_coupled(params, pairs[:count], cfg, helpers=0) for count in (5, 8, 11)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tubeint.integrate, "_CHUNK", chunk)
            failure = _outcome(system, a, failing)
        return [(times.tobytes(), data.tobytes()) for times, data, _ in runs], failure

    default = outcomes()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rk4, "_lib", baseline)
        assert outcomes() == default
    assert default[1][0].__name__ == "NonFinite"


@needs_compiler
def test_baseline_series_sums_keep_the_bits(baseline):
    # tubeint_sum's baseline clone gives the default build's bits on blocks
    # shorter than, one past and far beyond one 8-lane vector of points
    weights = perturb._prepare(SystemParams(epsilon=0.1, y0=0.8), 3)
    pairs = [(kind, weights) for kind in ("rho", "drho", "a31", "a4")]
    tau = np.random.default_rng(29).uniform(-600.0, 600.0, perturb._BLOCK)
    for n in (1, 7, 9, perturb._BLOCK):
        default = [out.tobytes() for out in perturb._sum(tau[:n], *pairs)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rk4, "_lib", baseline)
            assert [out.tobytes() for out in perturb._sum(tau[:n], *pairs)] == default
