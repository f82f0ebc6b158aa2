"""The CSV rows of ``tubeint._rk4.csv_rows`` against ``repr``, and the CLI bytes.

Each case runs twice: on the compiled formatter and on the ``repr`` path,
chosen by setting the loaded library to None.  Every row must equal
``",".join(repr(float(v)) for v in row)``, and every data subcommand must
write the same bytes on both paths.
"""

import contextlib
import math
import shutil

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


def _assert_repr_rows(text, block):
    """text holds one line per row of block, each the repr of its values joined by commas."""
    lines = text.split("\n")
    assert lines.pop() == "" and len(lines) == len(block)
    for line, row in zip(lines, block):
        assert line == ",".join(repr(float(v)) for v in row)


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
        assert rk4.csv_rows(block[:0], [True, False, True]) == ""
        for bad in (0.5, math.nan, math.inf, 2.0**54):
            with pytest.raises(ValueError, match="integer column"):
                rk4.csv_rows(np.array([[bad, 0.0]]), [True, False])
    assert text == ("0,0.5,-3\n"
                    "7,-0.0,9007199254740992\n"
                    "-9007199254740992,1e+300,0\n")


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
