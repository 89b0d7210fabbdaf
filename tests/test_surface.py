"""The library keeps only what the library calls.

Every top-level function, class and method in src/posetlab must be
referenced outside its own body, be a dunder, or sit on the allowlist below
with its reason.  The callers are the package's modules and perfbench/ (its
self-test excluded); `__init__` is no caller, so an export alone keeps
nothing alive.

A top-level definition counts as referenced only through its own module:
a bare name read, not assigned, inside that module; an import of it from
that module (`from .ncpoly import to_text`); an attribute of a name bound
to that module (`poset_mod.from_json`); or `getattr(module, "name")`.  So
same-named functions in two modules do not keep each other alive.  A
method or property counts as referenced through any attribute (`.rank`
keeps every member called `rank`), so a local variable `total` keeps no
property `total` alive.  Dataclass fields are no definitions here and
stay out of scope.  Calls from tests do not count, so an API that only
tests use fails here and belongs in tests/helpers.py.
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
    """(module, tree, checked) of every caller: the package's modules but
    `__init__`, and perfbench/; only the package's are checked."""
    checked = [p for p in sorted(PACKAGE.glob("*.py")) if p.stem != "__init__"]
    bench = [p for p in sorted((ROOT / "perfbench").glob("*.py"))
             if p.stem != "test_perfbench"]
    return [(path.stem, ast.parse(path.read_text(encoding="utf-8")), path in checked)
            for path in checked + bench]


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


def _package_module(node):
    """The posetlab module an ImportFrom imports names from: `from .x` and
    `from posetlab.x` give x, `from .` and `from posetlab` give None (the
    names are modules), anything else gives False."""
    if node.level == 1:
        return node.module
    if node.module == "posetlab":
        return None
    prefix, _, rest = (node.module or "").partition(".")
    return rest if prefix == "posetlab" and rest else False


def _module_aliases(tree):
    """{local name: posetlab module} for the modules `tree` imports."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _package_module(node) is None:
            for alias in node.names:
                aliases[alias.asname or alias.name] = alias.name
    return aliases


def _references(node, module, aliases, own):
    """The (module, name) pairs that `node`, inside `module`, references as
    top-level names, and the attributes it accesses, as two counters; `own`
    is the set of `module`'s top-level names."""
    names, attributes = Counter(), Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            if sub.id in own:
                names[module, sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            attributes[sub.attr] += 1
            if isinstance(sub.value, ast.Name) and sub.value.id in aliases:
                names[aliases[sub.value.id], sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom) and _package_module(sub):
            for alias in sub.names:
                names[_package_module(sub), alias.name] += 1
        elif (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
              and sub.func.id == "getattr" and len(sub.args) >= 2
              and isinstance(sub.args[0], ast.Name) and sub.args[0].id in aliases
              and isinstance(sub.args[1], ast.Constant)):
            names[aliases[sub.args[0].id], sub.args[1].value] += 1
    return names, attributes


def _unreferenced():
    trees = _trees()
    contexts = {module: (_module_aliases(tree),
                         {name for name, _ in _definitions(tree) if "." not in name})
                for module, tree, _ in trees}
    names, attributes = Counter(), Counter()
    for module, tree, _ in trees:
        tree_names, tree_attributes = _references(tree, module, *contexts[module])
        names += tree_names
        attributes += tree_attributes
    for module, tree, checked in trees:
        if not checked:
            continue
        for qualified, node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            own_names, own_attributes = _references(node, module, *contexts[module])
            outside = attributes[name] - own_attributes[name]
            if "." not in qualified:  # a top-level definition
                outside = names[module, name] - own_names[module, name]
            if outside <= 0:
                yield f"{module}.{qualified}"


def test_every_definition_has_a_library_caller():
    unreferenced = sorted(set(_unreferenced()) - set(ALLOWLIST))
    assert not unreferenced, f"no library or script caller: {unreferenced}"


def test_allowlist_names_only_uncalled_definitions():
    # an entry whose definition is gone, or has gained a caller, goes
    assert set(ALLOWLIST) <= set(_unreferenced())
