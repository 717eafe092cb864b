"""Exception handlers: no module under src/holorm catches every exception.

A bare ``except:``, ``except Exception`` or ``except BaseException`` turns a
bug into whatever the handler does next (a retry, a fallback), so the bug
never surfaces.  Every holorm error subclasses ValueError; a handler names
that or a narrower class.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "holorm"
CATCH_ALL = {"Exception", "BaseException"}


def _catch_all_lines(source: str) -> list:
    """Line numbers of the handlers in source that catch every exception."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ExceptHandler):
            continue
        types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        if node.type is None or any(isinstance(t, ast.Name) and t.id in CATCH_ALL
                                    for t in types):
            lines.append(node.lineno)
    return lines


def test_catch_all_detector():
    source = ("try:\n    f()\nexcept:\n    pass\n"
              "try:\n    f()\nexcept (KeyError, Exception):\n    pass\n"
              "try:\n    f()\nexcept BaseException as exc:\n    pass\n"
              "try:\n    f()\nexcept ValueError:\n    pass\n")
    assert _catch_all_lines(source) == [3, 7, 11]


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")))
def test_no_handler_catches_every_exception(module):
    assert _catch_all_lines((SRC / f"{module}.py").read_text()) == []
