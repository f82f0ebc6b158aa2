"""The README's six data one-liners and one tube grid against their recorded sha256.

``golden_csv.json`` holds the sha256 of each one-liner's CSV at full length,
and of the filaments of an 8 x 8 ``tube_surface_samples`` grid, with the numpy
version and the numpy dispatch targets enabled where they were recorded.  The
one-liners step at most one oscillator; the tube grid steps several in one
run, the coupled path they do not reach.  numpy's exp, power, sin and cos give
other bits on other dispatch paths, so the hashes are asserted only under the
recorded fingerprint, and elsewhere the tests skip, naming the difference.
Both run on the compiled path (about 0.5 s and 0.2 s; the Python RK4 takes
20 s for the one-liners); the parity tests of ``test_kernel.py`` tie the
Python path to it.

A change that means to change the bytes records them again, from the
repository root:

    PYTHONPATH=src python tests/test_golden.py

The recorder prints each entry whose digest changed, with the first 8 hex
digits of the old and the new digest, so that the change can say what moved.
"""

import hashlib
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import tubeint._rk4 as rk4
import tubeint.invariant
from tubeint.cli import main
from tubeint.model import SystemParams

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden_csv.json")


def _one_liners() -> list[str]:
    """The README's data one-liners, each without its ``--out``."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    lines = re.findall(r"^tubeint (.*) --out \S+\.csv$", text, re.MULTILINE)
    return [line for line in lines if not line.startswith("gplot")]


def _fingerprint() -> dict:
    """numpy's version and its enabled dispatch targets, as test_kernel's child lists them."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    return {"numpy": np.__version__,
            "dispatch": [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]}


def _digest(args: str, directory: Path) -> str:
    out = directory / "out.csv"
    assert main([*shlex.split(args), "--out", str(out)]) == 0, args
    return hashlib.sha256(out.read_bytes()).hexdigest()


def _tube_digest() -> str:
    """The sha256 of an 8 x 8 tube grid's filaments, serialised as the
    benchmark's tube job does: z0, p0, K and max_abs_deviation, then t, z and p.

    The grid runs in two parts of 32 filaments, whatever the host's cores, so
    each part steps 32 oscillators behind one coefficient block; the bits do
    not depend on the parts.
    """
    grid = np.linspace(-0.3, 0.3, 8)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tubeint.integrate, "_cores", lambda: 2)
        filaments = tubeint.invariant.tube_surface_samples(
            SystemParams(epsilon=0.05, y0=1.1), grid, grid, t_end=25, h=1e-3, record_every=10)
    digest = hashlib.sha256()
    for f in filaments:
        digest.update(np.array([f.z0, f.p0, f.K, f.max_abs_deviation]).tobytes())
        for column in (f.t, f.z, f.p):
            digest.update(column.tobytes())
    return digest.hexdigest()


def _golden() -> dict:
    """The recorded digests; skips where they cannot be asserted."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    here = _fingerprint()
    recorded = {key: golden[key] for key in here}
    if recorded != here:
        pytest.skip(f"recorded under {recorded}, this host has {here}")
    if rk4.library() is None:
        pytest.skip("the compiled library did not build")
    return golden


def _changed(old: dict, new: dict) -> list[tuple[str, str, str]]:
    """(key, old prefix, new prefix) of each digest of ``new`` that differs
    from ``old``'s, in ``new``'s order; a key ``old`` lacks reads ``-``."""
    def digests(record):
        return {**record.get("sha256", {}), "tube": record.get("tube")}

    before = digests(old)
    return [(key, (before.get(key) or "-")[:8], digest[:8])
            for key, digest in digests(new).items() if before.get(key) != digest]


def test_readme_one_liners_keep_their_bytes(tmp_path):
    assert list(json.loads(GOLDEN.read_text(encoding="utf-8"))["sha256"]) == _one_liners()
    golden = _golden()
    digests = {args: _digest(args, tmp_path) for args in golden["sha256"]}
    assert digests == golden["sha256"]


def test_tube_grid_keeps_its_bits():
    golden = _golden()
    assert _tube_digest() == golden["tube"]


def test_recorder_names_each_changed_digest():
    old = {"sha256": {"a": "1" * 64, "b": "2" * 64}, "tube": "3" * 64}
    new = {"sha256": {"a": "1" * 64, "b": "4" * 64, "c": "5" * 64}, "tube": "6" * 64}
    assert _changed(old, new) == [("b", "22222222", "44444444"), ("c", "-", "55555555"),
                                  ("tube", "33333333", "66666666")]
    assert _changed(new, new) == []
    assert _changed({}, new)[-1] == ("tube", "-", "66666666")


if __name__ == "__main__":
    import tempfile

    assert rk4.library() is not None, "record on the compiled path"
    with tempfile.TemporaryDirectory() as tmp:
        record = {**_fingerprint(),
                  "sha256": {args: _digest(args, Path(tmp)) for args in _one_liners()},
                  "tube": _tube_digest()}
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    for key, before, after in _changed(old, record):
        print(f"changed: {key}: {before} -> {after}")
    GOLDEN.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
