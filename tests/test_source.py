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


def test_ratfun_imports_no_other_qtsym_module():
    # the scalar layer and its text grammar sit below every other module
    path = pathlib.Path(qtsym.__file__).parent / "ratfun.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("qtsym")):
            found.append("line %d: from %s%s" % (node.lineno, "." * node.level, node.module or ""))
        elif isinstance(node, ast.Import):
            found.extend("line %d: import %s" % (node.lineno, a.name) for a in node.names if a.name.startswith("qtsym"))
    assert not found, found
