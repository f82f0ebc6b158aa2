"""Build and load the compiled library of ``_rk4.c``: the RK4 steps, the series
sums and the CSV rows.

``_rk4.c`` writes each of the three systems (z, coupled, Ermakov) once, as a
vector field under one RK4 stage routine and one exported function,
``tubeint_rk4``: the same field in C and in Python (``tubeint.integrate``),
under one RK4 each, with the same expressions in the same order.  A run
passes only what it varies (system, dimension, constants, coefficient table,
record interval and escape limit); each system's escape components are fixed
in the C, as in ``integrate._SYSTEMS``.  The coupled system carries N >= 0
(z, p) pairs behind one coefficient block; ``integrate_y`` is its N = 0 run
at omega = 1.  With N >= 2 the C steps the block and then the pairs, in two
passes, with the bits and the first error of one step at a time.  Its second
export, ``tubeint_sum``, runs the loops over the harmonics of ``perturb._sum``
on one block of points, with the numpy loop's operations in its order.  The
third, ``tubeint_csv``, writes a block of float64 rows as CSV lines, each
float as ``repr`` writes it (``csv_rows``): Schubfach's shortest digits from
128-bit products, written two at a time into their places.

The bits are the same on both paths because ``FLAGS`` hold
``-ffp-contract=off`` and no fast-math flag: no multiply and add is fused and
no operation is reassociated.  ``-O3`` only vectorises loops whose lanes each
do one point's operations in order.  On x86-64 the pair pass and the series
sums are built as AVX-512, AVX2 and baseline clones (``target_clones``), and
the dynamic loader picks the CPU's best; every clone gives the same bits.

On first use, never at import, the file is compiled with the C compiler
``cc`` into a per-user cache, ``$XDG_CACHE_HOME/tubeint`` or else
``~/.cache/tubeint``.  The
file name is keyed by the sha256 of the source and the flags and ends in a
digest of the build's own bytes.  A build is written to a temporary file and
moved into place, so concurrent first runs are safe, and a cached build whose
bytes do not match its digest is removed and rebuilt.  Writing a build removes
the builds of other keys (other sources) from its directory.  If the cache
cannot be written or other users may write to it, the kernel is built in a
per-process temporary directory instead.

The 128-bit products are the compiler's ``unsigned __int128`` (GCC, Clang),
with no fallback in C: a compiler without it fails the build, which then
counts as no compiler.  When there is no compiler, or the build or the load
fails, ``library()`` is None, silently: the driver runs the Python RK4,
``perturb._sum`` its numpy loop, and ``csv_rows`` encodes joined ``repr``
strings.  Either way the bits and bytes are the same.
"""

from __future__ import annotations

import ctypes
import functools
import os
import sys
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_rk4.c")
COMPILER = "cc"
FLAGS = ("-O3", "-shared", "-fPIC", "-ffp-contract=off")
LIBS = ("-lm",)

#: The systems of ``tubeint_rk4``, in the order of its system enum.
KERNELS = ("z", "coupled", "ermakov")

#: Status codes of ``tubeint_rk4`` (the enum in ``_rk4.c``).  A positivity
#: violation is NONPOSITIVE + stage, the stage being 0 at t, 1 at t + h/2 and
#: 2 at t + h.
OK, ESCAPE, NONFINITE, NONPOSITIVE = 0, 1, 2, 3

_ARGTYPES = [
    ctypes.c_int,  # system: its index in KERNELS
    ctypes.c_int,  # dim: the state's number of components
    ctypes.c_void_p,  # par: (h, eps, omega)
    ctypes.c_void_p,  # coef: the chunk's half-step coefficient table
    ctypes.c_int64,  # start
    ctypes.c_int64,  # stop
    ctypes.c_int64,  # record_every
    ctypes.c_double,  # escape limit
    ctypes.c_void_p,  # state, updated in place
    ctypes.c_void_p,  # out: the recorded rows
    ctypes.c_int64,  # ld: doubles from one row of out to the next
    ctypes.POINTER(ctypes.c_int64),  # rows recorded so far, updated
    ctypes.POINTER(ctypes.c_int64),  # step index of a failure
    ctypes.POINTER(ctypes.c_double),  # stage value of a failure
]

_CSV_ARGTYPES = [
    ctypes.c_void_p,  # the rows, C-contiguous float64
    ctypes.c_int64,  # rows
    ctypes.c_int64,  # columns
    ctypes.c_void_p,  # one uint8 per column: nonzero for an integer column
    ctypes.c_void_p,  # the table of 10^-k of _pow10_table
    ctypes.c_void_p,  # out: CSV_BYTES per value
]
#: An upper bound of the bytes of one value and its separator.
CSV_BYTES = 25

_SUM_ARGTYPES = [
    ctypes.c_int64,  # n: the block's points
    ctypes.c_void_p,  # tau, C-contiguous float64
    ctypes.c_void_p,  # cos tau
    ctypes.c_void_p,  # sin tau
    ctypes.c_int,  # pairs
    ctypes.c_int,  # top: the highest harmonic
    ctypes.c_int,  # width: coefficients per row of the table
    ctypes.c_void_p,  # int64 lengths, (pairs, top + 1, 2)
    ctypes.c_void_p,  # coefficients, (pairs, top + 1, 2, width)
    ctypes.c_void_p,  # out: pair p's sums at out + p stride, added to
    ctypes.c_int64,  # stride
]

_UNSET = object()
_lib = _UNSET


def library():
    """The loaded kernel library, built on the first call; None without one."""
    global _lib
    if _lib is _UNSET:
        _lib = _load()
    return _lib


def _cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        root = os.path.join(os.path.expanduser("~"), ".cache")
    return Path(root) / "tubeint"


def _key() -> str:
    """The build's file name stem: keyed by the sha256 of the source and the flags."""
    import platform

    key = "\0".join((COMPILER, *FLAGS, *LIBS, sys.platform, platform.machine())).encode()
    return f"_rk4-{_digest(SOURCE.read_bytes() + key)}"


def _digest(data: bytes) -> str:
    """The first 16 hex digits of the sha256 of data."""
    # The interpreter's own sha256: importing hashlib maps OpenSSL, about
    # 3.5 MB of resident memory for one small hash per process.
    try:
        from _sha2 import sha256  # Python >= 3.12
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(data).hexdigest()[:16]


def _load():
    import tempfile

    try:
        key = _key()
    except OSError:  # the source is missing
        return None
    try:
        cache = _cache_dir()
        path = _cached(cache, key) or _build(cache, key)
        if path is None:  # no compiler, or the build failed
            return None
        lib = _open(path)
        if lib is not None:
            return lib
    except OSError:  # the cache directory cannot be written, or is not private
        pass
    # also when the cache's file system refuses to map the library (noexec)
    with tempfile.TemporaryDirectory(prefix="tubeint-", ignore_cleanup_errors=True) as tmp:
        path = _build(Path(tmp), key)
        return _open(path) if path else None


def _cached(cache: Path, key: str) -> Path | None:
    """The intact build in cache, if any; damaged ones are removed.

    A build is named key-<digest of its bytes>.so, so a truncated or altered
    file is found before it is mapped (loading a truncated library can crash
    the process instead of failing).  Raises PermissionError when another
    user owns the directory or may write to it.
    """
    try:
        info = cache.stat()
    except FileNotFoundError:
        return None
    if hasattr(os, "getuid") and (info.st_uid != os.getuid() or info.st_mode & 0o022):
        raise PermissionError(f"{cache} is writable by other users")
    for path in sorted(cache.glob(f"{key}-*.so")):
        try:
            if path.name == f"{key}-{_digest(path.read_bytes())}.so":
                return path
            path.unlink()
        except OSError:
            pass
    return None


def _open(path: Path):
    """The library at path with its entry point declared, or None if it does not load."""
    try:
        lib = ctypes.CDLL(str(path))
        lib.tubeint_rk4.argtypes = _ARGTYPES
        lib.tubeint_rk4.restype = ctypes.c_int
        lib.tubeint_csv.argtypes = _CSV_ARGTYPES
        lib.tubeint_csv.restype = ctypes.c_int64
        lib.tubeint_sum.argtypes = _SUM_ARGTYPES
        lib.tubeint_sum.restype = None
    except (OSError, AttributeError):
        return None
    return lib


def _build(directory: Path, key: str) -> Path | None:
    """Compile the source into directory; None if there is no compiler or it fails.

    Raises OSError when the directory cannot be created or written.
    """
    import contextlib
    import shutil
    import subprocess
    import tempfile

    compiler = shutil.which(COMPILER)
    if compiler is None:
        return None
    directory.mkdir(mode=0o700, parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=".so", dir=directory)
    os.close(fd)
    try:
        try:
            done = subprocess.run(
                [compiler, *FLAGS, "-o", tmp, str(SOURCE), *LIBS],
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
                timeout=120,
            ).returncode == 0
        except (OSError, subprocess.SubprocessError):
            return None
        if not done:
            return None
        with open(tmp, "rb") as f:
            path = directory / f"{key}-{_digest(f.read())}.so"
        os.replace(tmp, path)
        for old in directory.glob("_rk4-*-*.so"):  # other keys' builds; never a symlink
            with contextlib.suppress(OSError):
                if not old.name.startswith(f"{key}-") and not old.is_symlink() and old.is_file():
                    old.unlink()
        return path
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def kernel(system: str, constants, x, out, escape_z, record_every):
    """A runner of ``system``'s compiled steps for one run, or None.

    constants is (h, eps, omega); a system ignores the ones it does not use.
    x is the initial state, of the run's dimension (4 + 2N for the coupled
    system with N >= 0 oscillators), and out the writable float64 array of
    recorded rows, row 0 already written: each row holds the state's
    components contiguously, and the row stride ``ld`` passed to
    ``tubeint_rk4`` is out's, in doubles, so out may be the state columns of
    a wider table.  Any other out raises ValueError, before the library is
    loaded.  ``run(coef, start, stop)`` advances the state over steps
    start .. stop-1 with the chunk's half-step table coef and returns
    (status, step index, value).  A dimension that the system does not have
    raises ValueError at the first call, with out untouched.

    Each runner owns its state, so runs on concurrent threads share nothing.
    """
    dim = len(x)
    ld, skew = divmod(out.strides[0], out.itemsize)
    if not (out.shape[1:] == (dim,) and out.dtype == np.float64 and out.flags.writeable
            and out.strides[1] == out.itemsize and not skew and ld >= dim):
        raise ValueError(f"{system} kernel needs a float64 out of {dim} contiguous columns")
    lib = library()
    if lib is None:
        return None
    fn = lib.tubeint_rk4
    index = KERNELS.index(system)
    par = (ctypes.c_double * 3)(*constants)
    state = (ctypes.c_double * dim)(*x)
    rows, at, value = ctypes.c_int64(1), ctypes.c_int64(0), ctypes.c_double(0.0)
    dest = out.ctypes.data

    def run(coef, start, stop):
        # coef: float64, C-contiguous, 2 * (stop - start) + 1 values
        status = fn(index, dim, par, coef.ctypes.data, start, stop, record_every, escape_z,
                    state, dest, ld, rows, at, value)
        if status < 0:
            raise ValueError(f"{system} kernel has no state of dimension {dim}")
        return status, at.value, value.value

    return run


@functools.cache
def _pow10_table() -> np.ndarray:
    """The table g of ``tubeint_csv``, rows (g >> 63, g mod 2^63) for k = -324 .. 292.

    g = floor(10^-k 2^-r) + 1 with r = floor(-k log2 10) - 125, in exact integers;
    the floor of the logarithm is the one ``_rk4.c`` computes (flog2pow10).
    """
    rows = []
    for k in range(-324, 293):
        r = ((-k * 913124641741) >> 38) - 125
        g = (10 ** max(-k, 0) << max(-r, 0)) // (10 ** max(k, 0) << max(r, 0)) + 1
        rows.append((g >> 63, g & ((1 << 63) - 1)))
    table = np.array(rows, dtype=np.uint64)
    table.flags.writeable = False
    return table


def csv_rows(block: np.ndarray, integer) -> bytes:
    """The rows of a 2-D float64 block as ASCII CSV lines, each ending in a newline.

    A value is written as ``repr(float(v))`` writes it, and as ``int(v)`` in a
    column whose flag in ``integer`` is set.  The compiled formatter and the
    ``repr`` path give the same bytes.
    """
    block = np.ascontiguousarray(block, dtype=np.float64)
    flags = np.array(integer, dtype=np.uint8)
    if block.ndim != 2 or flags.shape != block.shape[1:]:
        raise ValueError("csv_rows needs a 2-D block and one integer flag per column")
    ints = block[:, flags.astype(bool)]
    if not (np.abs(ints) <= 2.0**53).all() or (ints != np.trunc(ints)).any():
        raise ValueError("an integer column holds a value that is not an integer below 2^53")
    if not block.size:
        return b"\n" * len(block)
    lib = library()
    if lib is None:
        rows = block.tolist()
        for j in np.flatnonzero(flags).tolist():
            for row in rows:
                row[j] = int(row[j])
        return (repr(rows)[2:-2].replace("], [", "\n").replace(", ", ",") + "\n").encode()
    out = np.empty(CSV_BYTES * block.size, dtype=np.uint8)
    n = lib.tubeint_csv(block.ctypes.data, *block.shape, flags.ctypes.data,
                        _pow10_table().ctypes.data, out.ctypes.data)
    return out[:n].tobytes()
