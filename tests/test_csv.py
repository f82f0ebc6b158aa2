"""The CSV rows of ``tubeint._rk4.csv_rows`` against ``repr``, and the CLI bytes.

Each case runs twice: on the compiled formatter and on the ``repr`` path,
chosen by setting the loaded library to None.  Every row must equal
``",".join(repr(float(v)) for v in row)``, and every data subcommand must
write the same bytes on both paths.  The formatter is also built on its own
under the address and undefined-behaviour sanitizers.
"""

import contextlib
import math
import os
import shutil
import subprocess

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import tubeint._rk4 as rk4
from tubeint.cli import main

PATHS = [
    pytest.param("compiled", marks=pytest.mark.skipif(shutil.which("cc") is None,
                                                      reason="no C compiler")),
    "python",
]


@contextlib.contextmanager
def _on(path):
    with pytest.MonkeyPatch.context() as mp:
        if path == "python":
            mp.setattr(rk4, "_lib", None)
        elif rk4.library() is None:
            pytest.skip("the compiled library did not build")
        yield


def _assert_repr_rows(data, block):
    """data holds one line per row of block, each the repr of its values joined by commas."""
    lines = data.split(b"\n")
    assert lines.pop() == b"" and len(lines) == len(block)
    for line, row in zip(lines, block):
        assert line == ",".join(repr(float(v)) for v in row).encode()


def _column(values):
    return np.array(values, dtype=np.float64).reshape(-1, 1)


SPECIAL = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
           2.225073858507201e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
           1e15, 9999999999999998.0, 1e16, 1e-4, 1e-5, 0.1, 1 / 3, 123456.789,
           # both 17-digit neighbours fit and tie: the even one
           2.0**50 + 0.25, 2.0**50 + 0.75]
POWERS_OF_TWO = [2.0**e for e in range(-1074, 1024)]
POWERS_OF_TEN = [float(f"1e{k}") for k in range(-323, 309)]


@st.composite
def blocks(draw):
    """A rows x columns block of doubles drawn as raw 64-bit patterns."""
    rows, cols = draw(st.integers(1, 30)), draw(st.integers(1, 9))
    bits = draw(st.lists(st.integers(0, 2**64 - 1), min_size=rows * cols,
                         max_size=rows * cols))
    return np.array(bits, dtype=np.uint64).view(np.float64).reshape(rows, cols)


@pytest.mark.parametrize("path", PATHS)
@settings(derandomize=True, max_examples=300, deadline=None)
@given(block=blocks())
@example(block=_column(SPECIAL))
@example(block=np.array(SPECIAL[:20]).reshape(4, 5))
@example(block=_column(POWERS_OF_TWO))
@example(block=-_column(POWERS_OF_TWO))
@example(block=_column(POWERS_OF_TEN))
def test_rows_match_repr(path, block):
    with _on(path):
        text = rk4.csv_rows(block, [False] * block.shape[1])
    _assert_repr_rows(text, block)


@pytest.mark.parametrize("path", PATHS)
def test_random_bits_sweep_matches_repr(path):
    bits = np.random.default_rng(20251113).integers(0, 2**64, size=200_000, dtype=np.uint64,
                                                    endpoint=False)
    block = bits.view(np.float64).reshape(-1, 8)
    with _on(path):
        text = rk4.csv_rows(block, [False] * 8)
    _assert_repr_rows(text, block)


@pytest.mark.parametrize("path", PATHS)
def test_integer_columns(path):
    block = np.array([[0.0, 0.5, -3.0], [7.0, -0.0, 2.0**53], [-2.0**53, 1e300, 0.0]])
    with _on(path):
        text = rk4.csv_rows(block, [True, False, True])
        assert rk4.csv_rows(block[:0], [True, False, True]) == b""
        for bad in (0.5, math.nan, math.inf, 2.0**54):
            with pytest.raises(ValueError, match="integer column"):
                rk4.csv_rows(np.array([[bad, 0.0]]), [True, False])
    assert text == (b"0,0.5,-3\n"
                    b"7,-0.0,9007199254740992\n"
                    b"-9007199254740992,1e+300,0\n")


def _layouts():
    """Floats of 1 to 17 significant digits with the leading digit at 10^k,
    k = -7 .. 18, of both signs: every place of the decimal point on both sides
    of the switches to exponent notation (decpt <= -4 and decpt > 16)."""
    values = []
    for digits in ("12345678912345678", "99999999999999999"):
        for n in range(1, 18):
            for k in range(-7, 19):
                v = float(f"{digits[:n]}e{k - n + 1}")
                values += [v, -v]
    return values


def _powers_of_ten_and_neighbours():
    """10^k - 1, 10^k and 10^k + 1 for k = 0 .. 15, 0 and +-2^53: the ends of
    each digit count."""
    return [0.0, 2.0**53, -2.0**53] + [float(10**k + d) for k in range(16) for d in (-1, 0, 1)]


@pytest.mark.parametrize("path", PATHS)
def test_digit_layout_boundaries(path):
    floats = _column(_layouts())
    ints = _column(_powers_of_ten_and_neighbours())
    with _on(path):
        text = rk4.csv_rows(floats, [False])
        as_int = rk4.csv_rows(ints, [True])
        as_float = rk4.csv_rows(ints, [False])
    _assert_repr_rows(text, floats)
    assert as_int == "".join(f"{int(v)}\n" for v in ints[:, 0]).encode()
    _assert_repr_rows(as_float, ints)


@pytest.mark.parametrize("path", PATHS)
def test_time_columns_and_trailing_zeros(path):
    # the recorded times k h of a run, and values whose shortest digits end in
    # zeros, which random bit patterns almost never give
    k = np.arange(100_001)
    block = np.stack([k * 1e-3, k * (2 * math.pi / 4096)], axis=1)
    zeros = _column([1.5e-7, 120.0, 1e22, 123456789012345680.0, 1e-7, 1e16, 1e17,
                     1234567.0, 0.001, 1000.0])
    with _on(path):
        text = rk4.csv_rows(block, [False, False])
        zeros_text = rk4.csv_rows(np.concatenate([zeros, -zeros]), [False])
    _assert_repr_rows(text, block)
    _assert_repr_rows(zeros_text, np.concatenate([zeros, -zeros]))


# 24 characters, the longest repr: with the separator, CSV_BYTES
LONGEST = [-2.2250738585072014e-308, -1.7976931348623157e308, -1.2345678901234567e-100]

SANITIZER_MAIN = """
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

int64_t tubeint_csv(const double *x, int64_t rows, int64_t cols, const unsigned char *integer,
                    const uint64_t *g, char *out);

static const uint64_t G[] = {%(g)s};
static const uint64_t BITS[] = {%(x)s};
static const unsigned char FLOATS[%(cols)d];

/* The block, then each value alone, each into a heap buffer of exactly
 * CSV_BYTES per value, so that a write past its end is reported. */
int main(void)
{
    const int64_t rows = %(rows)d, cols = %(cols)d;
    double *x = malloc(sizeof BITS);
    char *out = malloc(%(bytes)d * rows * cols);
    int64_t i, n;

    memcpy(x, BITS, sizeof BITS);
    n = tubeint_csv(x, rows, cols, FLOATS, G, out);

    fwrite(out, 1, (size_t)n, stdout);
    free(out);
    for (i = 0; i < rows * cols; i++) {
        out = malloc(%(bytes)d);
        n = tubeint_csv(x + i, 1, 1, FLOATS, G, out);
        fwrite(out, 1, (size_t)n, stdout);
        free(out);
    }
    free(x);
    return 0;
}
"""


def test_formatter_under_address_and_undefined_sanitizers(tmp_path):
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler")
    flags = ["-std=c99", "-g", "-O1", "-fsanitize=address,undefined",
             "-fno-sanitize-recover=all", "-ffp-contract=off"]
    probe = tmp_path / "probe.c"
    probe.write_text("int main(void) { return 0; }\n")
    if subprocess.run([cc, *flags, "-o", str(tmp_path / "probe"), str(probe)],
                      capture_output=True, timeout=120).returncode != 0:
        pytest.skip("no sanitizer runtime")
    values = (SPECIAL + _layouts()[::7] + [0.001 * k for k in range(0, 5000, 37)]
              + [1.5e-7, 120.0, 1e22, 123456789012345680.0])
    cols = len(LONGEST)
    values += [0.0] * (-len(values) % cols) + LONGEST
    block = np.array(values).reshape(-1, cols)
    assert all(len(repr(v)) + 1 == rk4.CSV_BYTES for v in LONGEST)
    main_c = tmp_path / "main.c"
    main_c.write_text(SANITIZER_MAIN % {
        "g": ",".join(f"UINT64_C({int(v)})" for v in rk4._pow10_table().ravel()),
        "x": ",".join(f"UINT64_C({v})" for v in block.ravel().view(np.uint64).tolist()),
        "rows": block.shape[0], "cols": cols, "bytes": rk4.CSV_BYTES})
    exe = tmp_path / "csv"
    built = subprocess.run([cc, *flags, "-o", str(exe), str(main_c), str(rk4.SOURCE), "-lm"],
                           capture_output=True, text=True, timeout=300)
    assert built.returncode == 0, built.stderr[-2000:]
    done = subprocess.run([str(exe)], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "ASAN_OPTIONS": "detect_leaks=0"})
    assert done.returncode == 0 and done.stderr == "", done.stderr[-2000:]
    lines = done.stdout.split("\n")
    assert lines.pop() == ""
    _assert_repr_rows(("\n".join(lines[:len(block)]) + "\n").encode(), block)
    assert lines[len(block):] == [repr(v) for v in block.ravel().tolist()]


# short runs recording every step; fourier needs five complete 2 pi windows
COMMANDS = [
    ["simulate-y", "--tau-max", "2"],
    ["invariant-drift", "--mode", "exact", "--t-max", "2"],
    ["invariant-drift", "--mode", "perturbative", "--t-max", "2"],
    ["fourier", "--tau-max", "32"],
    ["ermakov", "--t-max", "2"],
]


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: "-".join(argv[:3]))
def test_cli_bytes_equal_on_both_paths(argv, tmp_path, capsys):
    argv = argv + ["--record-every", "1"]
    outputs = {}
    for path in ("compiled", "python"):
        with pytest.MonkeyPatch.context() as mp:
            if path == "python":
                mp.setattr(rk4, "_lib", None)
            out = tmp_path / f"{path}.csv"
            assert main(argv + ["--out", str(out)]) == 0
            capsys.readouterr()
            assert main(argv + ["--out", "-"]) == 0
            stdout = capsys.readouterr().out
        assert stdout.encode() == out.read_bytes()
        outputs[path] = out.read_bytes()
    assert outputs["compiled"] == outputs["python"]
    body = outputs["python"].decode().splitlines()[-1].split(",")
    if argv[0] == "fourier":
        assert body[0] == "4"  # the window index k stays an integer
    else:
        assert all(repr(float(v)) == v for v in body)
