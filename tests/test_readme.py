"""The README's library example, run unchanged: the package root must serve it."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    [code] = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.DOTALL | re.MULTILINE)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})
    drift = re.search(r"^max relative drift: (\S+)$", out.getvalue(), re.MULTILINE)
    assert drift is not None, out.getvalue()
    assert float(drift.group(1)) < 1e-6
