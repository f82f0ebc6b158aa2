"""The README's six data one-liners against their recorded sha256.

``golden_csv.json`` holds the sha256 of each one-liner's CSV at full length,
with the numpy version and the numpy dispatch targets enabled where it was
recorded.  numpy's exp, power, sin and cos give other bits on other dispatch
paths, so the hashes are asserted only under the recorded fingerprint, and
elsewhere the test skips, naming the difference.  The one-liners run on the
compiled path (about 0.5 s; the Python RK4 takes 20 s); the parity tests of
``test_kernel.py`` tie the Python path to it.

A change that means to change the bytes records them again, from the
repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import tubeint._rk4 as rk4
from tubeint.cli import main

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


def test_readme_one_liners_keep_their_bytes(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert list(golden["sha256"]) == _one_liners()
    here = _fingerprint()
    recorded = {key: golden[key] for key in here}
    if recorded != here:
        pytest.skip(f"recorded under {recorded}, this host has {here}")
    if rk4.library() is None:
        pytest.skip("the compiled library did not build")
    digests = {args: _digest(args, tmp_path) for args in golden["sha256"]}
    assert digests == golden["sha256"]


if __name__ == "__main__":
    import tempfile

    assert rk4.library() is not None, "record on the compiled path"
    with tempfile.TemporaryDirectory() as tmp:
        record = {**_fingerprint(),
                  "sha256": {args: _digest(args, Path(tmp)) for args in _one_liners()}}
    GOLDEN.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
