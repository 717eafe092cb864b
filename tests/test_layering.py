"""Layering: the runtime modules import nothing from the check-side modules,
and no module imports anything but numpy and the standard library.

weylrep (the cyclic modules), sampling (random test data) and selftest (the
identity battery and its reference oracles) serve the checks; qdilog,
characters, rmatrix and braidgrpd compute R-matrices and state sums without
them.  numpy is the one declared runtime dependency.  Every import statement
counts, at module level or inside a function.  Every function, class and
module constant of the runtime modules, public or private, is read by
runtime code, or named with its reason in UNREAD_BY_RUNTIME.  No module
holds a statement that cannot run because it follows a return, raise,
continue or break in its block.
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


# Functions, classes and module constants of the runtime modules that no
# runtime code (the four modules and cli.py) reads, with the reason each one
# stays.
UNREAD_BY_RUNTIME = {
    "cyc_dilog": "the paper's cyclic dilogarithm; test_qdilog checks it against mpmath",
    "s_norm": "the paper's S-normalization; the Fourier rows and test_qdilog read it",
    "fusion_f": "the paper's fusion function; the fusion rows and test_qdilog read it",
    "factorized_ops": "the four-factor theorem; the factorization rows and perfbench read it",
    "det_braiding": "the closed-form determinant as a number; perfbench reads it",
    "apply": "the matrix-free state sum; the tests read it (the braid-level "
             "rows read the private _apply_crossings), and so will the closure "
             "of braids into knot invariants",
    "pin_bottom": "closes a coloring onto its top; the braid-level rows read "
                  "it, and so will the closure of braids into knot invariants",
}


def _names_read(tree) -> set:
    """The names and attributes a module's code reads; a top-level
    definition's reads of its own name do not count, nor does an
    assignment to a name."""
    read = set()
    for stmt in tree.body:
        own = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(stmt):
            if (isinstance(node, ast.Name) and node.id != own
                    and not isinstance(node.ctx, ast.Store)):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and node.attr != own:
                read.add(node.attr)
    return read


def _top_level_names(tree) -> set:
    """The functions, classes and module constants a module defines."""
    found = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            found.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            found.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return found


def test_every_public_runtime_name_is_read_by_runtime_code():
    # check-only code belongs in selftest, next to the rows that read it;
    # that holds for private helpers and constants too
    trees = {m: ast.parse((SRC / f"{m}.py").read_text()) for m in RUNTIME + ("cli",)}
    read = set().union(*map(_names_read, trees.values()))
    defined = set().union(*(_top_level_names(trees[m]) for m in RUNTIME))
    assert defined - read == set(UNREAD_BY_RUNTIME)


def _unreachable(path) -> list:
    """'file:line' of each statement that follows a return, raise, continue
    or break in the same block of path's module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        for _, block in ast.iter_fields(node):
            if not (isinstance(block, list) and block and isinstance(block[0], ast.stmt)):
                continue
            for before, stmt in zip(block, block[1:]):
                if isinstance(before, (ast.Return, ast.Raise, ast.Continue, ast.Break)):
                    found.append(f"{path.name}:{stmt.lineno}")
                    break
    return found


def test_no_statement_follows_a_jump_in_its_block():
    assert [at for path in sorted(SRC.glob("*.py")) for at in _unreachable(path)] == []
