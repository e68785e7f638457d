"""Rules on the library's source text."""

import ast
import pathlib

import qtsym


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so invariants raise typed exceptions
    found = []
    for path in sorted(pathlib.Path(qtsym.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append("%s:%d" % (path.name, node.lineno))
    assert not found, found
