"""Surface lint: every top-level function and class of the package is used,
and so is every method (dunders exempt) and annotated field of its classes.

A definition counts as used when its name appears as a `Name`, an
`Attribute` or an import alias in a package module (its own included, but
not `__init__.py`, whose re-exports prove nothing), in
`tests/test_acceptance.py` or in `tests/conftest.py`.  Code that only its
own unit tests reach belongs in `tests/`, or nowhere.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "msreg"


def _used_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
            if node.asname:
                names.add(node.asname)
    return names


def test_every_definition_is_used():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules, f"no package modules under {PACKAGE}"
    trees = {path: ast.parse(path.read_text(), str(path)) for path in modules}
    used = set()
    for path in modules + [TESTS / "test_acceptance.py", TESTS / "conftest.py"]:
        tree = trees.get(path) or ast.parse(path.read_text(), str(path))
        used |= _used_names(tree)
    unused = [
        f"{path.name}:{lineno} {label}"
        for path, tree in trees.items()
        for lineno, label, name in _definitions(tree)
        if name not in used
    ]
    assert not unused, "unused definitions: " + ", ".join(unused)


def _definitions(tree):
    """(line, label, name) of each top-level function and class, and of
    each method other than a dunder and each annotated field of those
    classes."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)):
            yield node.lineno, node.name, node.name
        if not isinstance(node, ast.ClassDef):
            continue
        for member in node.body:
            if isinstance(member, functions):
                name = member.name
                if name.startswith("__") and name.endswith("__"):
                    continue
            elif isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                name = member.target.id
            else:
                continue
            yield member.lineno, f"{node.name}.{name}", name


def test_every_import_is_used():
    """Every name that a package module (not `__init__.py`, whose imports
    are its re-exports) imports appears in it as a `Name`."""
    unused = []
    for path in sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"):
        tree = ast.parse(path.read_text(), str(path))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound not in names:
                        unused.append(f"{path.name}:{node.lineno} {bound}")
    assert not unused, "unused imports: " + ", ".join(unused)


def test_no_environment_reads():
    """No package module reads `os.environ` or calls `os.getenv`: a run is
    set by its config alone."""
    reads = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
                reads.append(f"{path.name}:{node.lineno} {node.attr}")
            elif isinstance(node, ast.alias) and node.name in ("environ", "getenv"):
                reads.append(f"{path.name}:{node.lineno} import {node.name}")
    assert not reads, "environment reads: " + ", ".join(reads)
