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


def _unused_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for a in node.names:
                bound[(a.asname or a.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return ["%s:%d %s" % (path.name, line, name) for name, line in bound.items() if name not in used]


def test_library_module_imports_are_used():
    # __init__ re-exports its imports; every other module uses what it imports
    found = []
    for path in sorted(pathlib.Path(qtsym.__file__).parent.glob("*.py")):
        if path.name != "__init__.py":
            found.extend(_unused_imports(path))
    assert not found, found


def _references(tree):
    # (name, line) for every identifier read, attribute taken or name imported
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for a in node.names:
                yield a.name, node.lineno


def test_library_reads_no_files_or_environment():
    # every cache lives in memory: no module reads os.environ or os.getenv,
    # or calls open
    found = []
    for path in sorted(pathlib.Path(qtsym.__file__).parent.glob("*.py")):
        for name, line in _references(ast.parse(path.read_text(), str(path))):
            if name in ("environ", "getenv", "open"):
                found.append("%s:%d %s" % (path.name, line, name))
    assert not found, found


def test_every_library_definition_is_named_elsewhere():
    # a deleted path must not leave an orphan function or class behind
    library = sorted(pathlib.Path(qtsym.__file__).parent.glob("*.py"))
    sources = library + sorted(pathlib.Path(__file__).parent.glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sources}
    named = {}
    for path, tree in trees.items():
        for name, line in _references(tree):
            named.setdefault(name, []).append((path, line))
    found = []
    for path in library:
        for node in trees[path].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not any(
                other != path or not node.lineno <= line <= node.end_lineno
                for other, line in named.get(node.name, ())
            ):
                found.append("%s:%d %s" % (path.name, node.lineno, node.name))
    assert not found, found


LAYERS = ("ratfun", "partitions", "symfun", "families", "macops", "verify", "cli")


def test_library_imports_follow_layer_order():
    # a module imports at module level only from the layers below it;
    # imports inside functions (symfun reaching families) are exempt
    rank = {name: i for i, name in enumerate(LAYERS)}
    root = pathlib.Path(qtsym.__file__).parent
    found = []
    for name in LAYERS:
        path = root / (name + ".py")
        for node in ast.parse(path.read_text(), str(path)).body:
            if not (isinstance(node, ast.ImportFrom) and node.level):
                continue
            targets = [node.module] if node.module else [a.name for a in node.names]
            for target in targets:
                if rank.get(target, len(LAYERS)) >= rank[name]:
                    found.append("%s:%d from .%s" % (path.name, node.lineno, target))
    assert not found, found
    assert sorted(LAYERS) == sorted(p.stem for p in root.glob("*.py") if p.stem != "__init__")


def test_memo_keys_end_with_field():
    # clear_field_caches drops a field's entries by the last element of each key
    keys = []
    for path in sorted(pathlib.Path(qtsym.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_memo":
                keys.append(("%s:%d" % (path.name, node.lineno), node.args[0] if node.args else None))
    found = [where for where, key in keys if not (
        isinstance(key, ast.Tuple) and key.elts
        and isinstance(key.elts[-1], ast.Name) and key.elts[-1].id == "field")]
    assert keys and not found, found


def test_no_library_module_imports_permutations():
    # alternants are formed and recognised through the Schur index of
    # symfun.antisymmetrize, never by summing N! relabelled copies
    found = []
    for path in sorted(pathlib.Path(qtsym.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "itertools":
                found.extend("%s:%d" % (path.name, node.lineno) for a in node.names if a.name == "permutations")
            elif (isinstance(node, ast.Attribute) and node.attr == "permutations"
                  and isinstance(node.value, ast.Name) and node.value.id == "itertools"):
                found.append("%s:%d" % (path.name, node.lineno))
    assert not found, found


def test_verify_reports_through_one_path():
    # only verify._check times a check body and builds its CheckReport, and
    # every check_* is a body decorated by it
    path = pathlib.Path(qtsym.__file__).parent / "verify.py"
    tree = ast.parse(path.read_text(), str(path))
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    wrapper = defs.get("_check")
    found = ["line %d: %s" % (line, name) for name, line in _references(tree)
             if name in ("perf_counter", "CheckReport")
             and not (wrapper and wrapper.lineno <= line <= wrapper.end_lineno)]
    for name, node in defs.items():
        if name.startswith("check_") and not any(
            isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "_check"
            for d in node.decorator_list
        ):
            found.append("line %d: %s is not decorated by _check" % (node.lineno, name))
    assert wrapper and found == [], found
