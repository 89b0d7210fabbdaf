"""The library keeps only what the library calls.

Every top-level function, class and method in src/posetlab and scripts/
must be referenced by a name, an attribute or an import outside its own
body, be a dunder, be exported from posetlab/__init__.py, or sit on the
allowlist below with its reason.  References are matched by name only, so
any `.rank` keeps every method called `rank`; calls from tests do not
count, so an API that only tests use fails here and belongs in
tests/helpers.py.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "posetlab"

ALLOWLIST = {
    "sheaves.Sheaf.validate": "a user-side check on hand-built sheaves",
    "linalg.mat_rank": "traced by perfbench until its benchmark change deletes it",
    "linalg.mat_nullspace": "traced by perfbench until its benchmark change deletes it",
}


def _trees():
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in paths}


def _definitions(tree):
    """(qualified name, node) of each top-level function, class and method."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, defs):
                    yield f"{node.name}.{member.name}", member


def _references(node):
    """The names that `node` reads, calls or imports."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name.rpartition(".")[2]] += 1
    return out


def _unreferenced():
    trees = _trees()
    everywhere = sum((_references(tree) for tree in trees.values()), Counter())
    exported = {alias.name for node in trees["__init__"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    for module, tree in trees.items():
        for qualified, node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if name in exported or everywhere[name] > _references(node)[name]:
                continue
            yield f"{module}.{qualified}"


def test_every_definition_has_a_library_caller():
    unreferenced = sorted(set(_unreferenced()) - set(ALLOWLIST))
    assert not unreferenced, f"no library or script caller: {unreferenced}"


def test_allowlist_names_only_uncalled_definitions():
    # an entry whose definition is gone, or has gained a caller, goes
    assert set(ALLOWLIST) <= set(_unreferenced())
