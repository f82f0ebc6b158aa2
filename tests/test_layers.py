"""The package's import layers, read from the source with ``ast``, and the
table of RK4 systems, read from the C source.

The series layer (``model`` and ``perturb``) sits below the integrators: it
must not import them, or anything built on them, at module level or inside a
function.  The driver's systems, the compiled kernel's names for them and the
system enum of ``_rk4.c`` must list the same systems in the same order, since
the kernel is called with a system's index.  Outside ``_rk4`` itself, the
compiled library is loaded only where a path is chosen: the series sums of
``perturb._sum`` and the helper-thread count of ``integrate._table_helpers``,
the one function that turns "the library loaded" into threads.
"""

import ast
import re
from pathlib import Path

import pytest

import tubeint
from tubeint import _rk4, integrate, perturb

PACKAGE = Path(tubeint.__file__).parent
ABOVE_SERIES = {"integrate", "invariant", "resonance", "ermakov", "cli"}


def relative_imports(module: str) -> set[str]:
    """The package modules that ``module`` imports with a relative import."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:  # from .x import y
                found.add(node.module.split(".")[0])
            else:  # from . import x
                found.update(alias.name for alias in node.names)
    return found


def test_relative_imports_are_found():
    assert {"errors", "model", "perturb"} <= relative_imports("invariant")
    assert "_rk4" in relative_imports("integrate")  # imported inside _drive


@pytest.mark.parametrize("module", ["model", "perturb"])
def test_series_layer_does_not_import_the_integrators(module):
    assert relative_imports(module) & ABOVE_SERIES == set()


def test_cli_imports_no_private_resonance_name():
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level == 1
             and node.module == "resonance" for alias in node.names]
    assert "fourier_windows" in names
    assert [name for name in names if name.startswith("_")] == []


def test_system_tables_agree_with_the_c_enum():
    source = _rk4.SOURCE.read_text(encoding="utf-8")
    [body] = re.findall(r"^enum \{([^}]*)\}; /\* the systems", source, re.MULTILINE)
    enum = tuple(name.strip().lower() for name in body.split(","))
    assert tuple(integrate._SYSTEMS) == _rk4.KERNELS == enum == ("z", "coupled", "ermakov")


def test_the_kernel_writes_its_rk4_stage_combination_once():
    # every system, the coupled block and each coupled pair step through the
    # one stage routine rk4, not through a hand-written copy of its stages
    source = _rk4.SOURCE.read_text(encoding="utf-8")
    assert source.count("sixth * (") == 1


def test_the_invariant_writes_its_formula_once():
    # the perturbative invariant is the exact one on the series' alpha2: one
    # cubic coefficient, and a cube formed by products, not numpy's power
    source = (PACKAGE / "invariant.py").read_text(encoding="utf-8")
    assert source.count("(2.0 / 3.0)") == 1
    assert "np.power(" not in source


def library_calls() -> set[tuple[str, str | None]]:
    """(module, top-level function or class) of each ``library()`` call in the
    package; None for a call at module level."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "library" in (
                        getattr(node.func, "attr", None), getattr(node.func, "id", None)):
                    found.add((path.stem, getattr(top, "name", None)))
    return found


def test_only_the_series_sums_and_the_helper_count_load_the_library():
    outside = {call for call in library_calls() if call[0] != "_rk4"}
    assert outside == {("perturb", "_sum"), ("integrate", "_table_helpers")}
    assert ("_rk4", "kernel") in library_calls()  # the finder sees the module's own calls
    assert "_rk4" not in relative_imports("invariant")


def test_the_series_block_is_one_chunks_half_step_grid():
    # the series layer may not import the driver, so its block size is typed twice
    assert perturb._BLOCK == 2 * integrate._CHUNK + 1
