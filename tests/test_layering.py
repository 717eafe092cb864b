"""Layering: the runtime modules import nothing from the check-side modules,
and no module imports anything but numpy and the standard library.

weylrep (the cyclic modules), sampling (random test data) and selftest (the
identity battery and its reference oracles) serve the checks; qdilog,
characters, rmatrix and braidgrpd compute R-matrices and state sums without
them.  numpy is the one declared runtime dependency.  Every import statement
counts, at module level or inside a function.
"""

import ast
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "holorm"
RUNTIME = ("qdilog", "characters", "rmatrix", "braidgrpd")
CHECK_SIDE = {"weylrep", "sampling", "selftest"}


def _holorm_imports(source: str) -> set:
    """The holorm modules that a module's source imports, anywhere in it."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("holorm."))
        elif isinstance(node, ast.ImportFrom):
            parts = node.module.split(".") if node.module else []
            if node.level == 0:
                if parts[:1] != ["holorm"]:
                    continue
                parts = parts[1:]
            # "from .m import x" names m; "from . import m" names m itself
            found.update(parts[:1] or [a.name for a in node.names])
    return found


@pytest.mark.parametrize("module", RUNTIME)
def test_runtime_module_imports_no_check_side_module(module):
    imports = _holorm_imports((SRC / f"{module}.py").read_text())
    assert not imports & CHECK_SIDE


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_module_imports_only_numpy_and_the_standard_library(path):
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    assert found - {"holorm"} <= set(sys.stdlib_module_names) | {"numpy"}
