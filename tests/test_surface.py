"""The library keeps only what the library calls.

Every top-level function, class and method in src/posetlab and scripts/
must be referenced outside its own body, be a dunder, be exported from
posetlab/__init__.py, or sit on the allowlist below with its reason.  A
method or property counts as referenced only through an attribute
(`.rank` keeps every member called `rank`); a top-level definition also
through a bare name that is read, not assigned, or an import.  So a local
variable `total` keeps no property `total` alive.  Dataclass fields are no
definitions here and stay out of scope.  Calls from tests do not count,
so an API that only tests use fails here and belongs in tests/helpers.py.
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
    """The bare names that `node` reads or imports, and the attributes it
    accesses, as two counters."""
    names, attributes = Counter(), Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            attributes[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names[sub.name.rpartition(".")[2]] += 1
    return names, attributes


def _unreferenced():
    trees = _trees()
    names, attributes = Counter(), Counter()
    for tree in trees.values():
        tree_names, tree_attributes = _references(tree)
        names += tree_names
        attributes += tree_attributes
    exported = {alias.name for node in trees["__init__"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    for module, tree in trees.items():
        for qualified, node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            own_names, own_attributes = _references(node)
            outside = attributes[name] - own_attributes[name]
            if "." not in qualified:  # a top-level definition
                outside += names[name] - own_names[name]
            if name in exported or outside > 0:
                continue
            yield f"{module}.{qualified}"


def test_every_definition_has_a_library_caller():
    unreferenced = sorted(set(_unreferenced()) - set(ALLOWLIST))
    assert not unreferenced, f"no library or script caller: {unreferenced}"


def test_allowlist_names_only_uncalled_definitions():
    # an entry whose definition is gone, or has gained a caller, goes
    assert set(ALLOWLIST) <= set(_unreferenced())
