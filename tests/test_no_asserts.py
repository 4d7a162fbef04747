"""Checks are real exceptions: ``python -O`` removes ``assert`` statements
and sets ``__debug__`` to False, so the library may use neither.  This
is the static check: it reads every module's source, so it covers code
paths that no test reaches.  The dynamic check is the whole suite run
under ``PYTHONOPTIMIZE=1``, which reaches the interpreters that tests
start too; pytest rewrites the asserts of test modules into raises, so
the tests themselves still check there."""

import ast
from pathlib import Path

import pytest

import packinglab

MODULES = sorted(Path(packinglab.__file__).parent.rglob("*.py"))


def test_every_module_is_found():
    names = {p.name for p in MODULES}
    assert {"__init__.py", "cli.py", "orbit.py", "exactnum.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_assert_or_debug_flag(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [
        "line %d: %s" % (node.lineno, "assert" if isinstance(node, ast.Assert) else "__debug__")
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
        or (isinstance(node, ast.Name) and node.id == "__debug__")
    ]
    assert found == []
