"""The package surface: every name in `src/gkpphase` has a caller.

A module-level name is reached when a root refers to it, or reached code
does.  The roots are the console scripts of pyproject.toml (the `gkpphase`
command, whose parser hands each subcommand its `cmd_*` function), the
top-level statements of each module that define nothing (such as the
`__main__` guard of `cli`), and everything `perfbench/*.py` refers to,
including its span table's ("module", "name") pairs.  Functions, classes
and assignments count, private ones too.

A class member (method, property or annotated dataclass field) of a reached
class is reached when reached code or `perfbench/*.py` names it, as an
attribute (`x.name`) or as a keyword argument (`Cls(name=...)`), or the
span table holds it ("Class.name").  The match is by name alone, so the
rule is conservative.  Reached code is a reached function, a reached class
without the bodies of its members, and the body of a reached member; dunder
methods run implicitly, so they are reached with their class and never
flagged.  A name or member only the tests reach belongs in
`tests/oracles.py`.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "gkpphase"
INIT = "__init__"
MODULE = object()  # scope tag: the name is bound to a module of the package


def _defined(tree: ast.Module) -> dict[str, ast.stmt]:
    """Module-level functions, classes and assigned names, by name."""
    out: dict[str, ast.stmt] = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[stmt.name] = stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name):
                        out[node.id] = stmt
    return out


def _scope(module: str, tree: ast.AST, modules: dict[str, dict]) -> dict:
    """Names bound in `tree` to package modules or to names defined in them."""
    scope: dict = {name: (module, name) for name in modules.get(module, {})}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == PACKAGE:
                    scope[alias.asname or PACKAGE] = (MODULE, INIT)
        elif isinstance(node, ast.ImportFrom):
            if (node.level == 1 and node.module is None) or node.module == PACKAGE:
                source = INIT
            elif node.level == 1:
                source = node.module
            elif (node.module or "").startswith(PACKAGE + "."):
                source = node.module.split(".", 1)[1]
            else:
                continue
            for alias in node.names:
                if source == INIT and alias.name in modules:
                    scope[alias.asname or alias.name] = (MODULE, alias.name)
                else:
                    scope[alias.asname or alias.name] = (source, alias.name)
    return scope


def _resolve(node: ast.AST, scope: dict, modules: dict[str, dict]):
    if isinstance(node, ast.Name):
        return scope.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _resolve(node.value, scope, modules)
        if base is not None and base[0] is MODULE:
            if base[1] == INIT and node.attr in modules:
                return (MODULE, node.attr)
            return (base[1], node.attr)
    return None


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _members(tree: ast.Module) -> dict[str, dict[str, ast.stmt]]:
    """Per module-level class: its methods, properties and annotated fields
    by name, dunders left out."""
    out: dict[str, dict[str, ast.stmt]] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            out[stmt.name] = {}
            for node in stmt.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = node.name
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    name = node.target.id
                else:
                    continue
                if not _dunder(name):
                    out[stmt.name][name] = node
    return out


def _walk(node: ast.AST, skip: set[ast.AST]):
    """`ast.walk` from `node` that does not enter the nodes in `skip`."""
    todo = [node]
    while todo:
        sub = todo.pop()
        yield sub
        todo.extend(child for child in ast.iter_child_nodes(sub) if child not in skip)


def _refs(node: ast.AST, scope: dict, modules: dict[str, dict],
          skip: set[ast.AST] = frozenset()) -> set[tuple[str, str]]:
    """(module, name) pairs of package definitions that `node` refers to."""
    out = set()
    for sub in _walk(node, skip):
        hit = _resolve(sub, scope, modules)
        if hit is not None and hit[0] is not MODULE and hit[1] in modules.get(hit[0], {}):
            out.add(hit)
    return out


def _names(node: ast.AST, skip: set[ast.AST] = frozenset()) -> set[str]:
    """The attribute names and keyword-argument names in `node`."""
    out = set()
    for sub in _walk(node, skip):
        if isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.keyword) and sub.arg is not None:
            out.add(sub.arg)
    return out


def unreached(sources: dict[str, str], roots: set[tuple[str, str]],
              names: set[str] = frozenset()) -> set[str]:
    """"module.name" of every definition in `sources` (module -> source text),
    and "module.Class.member" of every member of a reached class, that nothing
    reaches from `roots`, from the member `names` the roots name, or from a
    module's defining-nothing top-level statements."""
    trees = {m: ast.parse(text) for m, text in sources.items()}
    modules = {m: _defined(tree) for m, tree in trees.items()}
    members = {m: _members(tree) for m, tree in trees.items()}
    scopes = {m: _scope(m, tree, modules) for m, tree in trees.items()}
    # a reached class is read without its members; each member is read once reached
    skip = {node for classes in members.values() for table in classes.values()
            for node in table.values()}
    todo: set = set(roots)
    named = set(names)

    def read(m: str, node: ast.AST) -> None:
        todo.update(_refs(node, scopes[m], modules, skip))
        named.update(_names(node, skip))

    for m, tree in trees.items():
        for stmt in tree.body:
            if stmt not in modules[m].values() and not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                read(m, stmt)
    seen: set[tuple] = set()  # (module, name) and (module, class, member)
    while todo:
        key = todo.pop()
        m, name, *member = key
        node = members[m][name][member[0]] if member else modules.get(m, {}).get(name)
        if key not in seen and node is not None:
            seen.add(key)
            read(m, node)
        if not todo:  # the members of reached classes that reached code names
            todo.update({(m, c, x) for m, c, *_ in seen for x in members[m].get(c, {})
                         if x in named} - seen)
    stray = {f"{m}.{name}" for m, defined in modules.items() for name in defined
             if (m, name) not in seen and not _dunder(name)}
    return stray | {f"{m}.{c}.{x}" for m, classes in members.items()
                    for c, table in classes.items() if (m, c) in seen
                    for x in table if (m, c, x) not in seen}


def _package_sources() -> dict[str, str]:
    return {p.stem: p.read_text() for p in sorted((ROOT / "src" / PACKAGE).glob("*.py"))}


def _command_roots() -> set[tuple[str, str]]:
    """The console scripts' entry points, "gkpphase.cli:main" -> ("cli", "main")."""
    text = (ROOT / "pyproject.toml").read_text()
    return set(re.findall(rf'"{PACKAGE}\.(\w+):(\w+)"', text))


def _perfbench_roots(sources: dict[str, str]) -> tuple[set[tuple[str, str]], set[str]]:
    """The package names `perfbench/*.py` refers to, and the member names it names."""
    modules = {m: _defined(ast.parse(text)) for m, text in sources.items()}
    roots, names = set(), set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        roots |= _refs(tree, _scope("", tree, modules), modules)
        names |= _names(tree)
        for node in ast.walk(tree):  # span table rows ("channel", "ChannelEngine.__init__", ...)
            if isinstance(node, ast.Tuple) and len(node.elts) >= 2 and all(
                isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts[:2]
            ):
                module, dotted = node.elts[0].value, node.elts[1].value
                head, *rest = dotted.split(".")
                if head in modules.get(module, {}):
                    roots.add((module, head))
                    names.update(rest)
    return roots, names


def test_every_package_name_has_a_caller():
    sources = _package_sources()
    assert {"cli", "channel", "fock", "polyalg"} <= set(sources)
    roots, names = _perfbench_roots(sources)
    roots |= _command_roots()
    assert ("cli", "main") in roots and ("channel", "vacuum_match_fraction") in roots
    assert "pauli_expectations" in names
    stray = unreached(sources, roots, names)
    assert not stray, f"reached by no command and no benchmark (move to tests/oracles.py): {sorted(stray)}"


def test_walker_flags_exactly_the_unreached_function():
    source = '''
import math
from . import other

def entry():
    return _helper(2.0)

def _helper(x):
    return used(x) + other.shared

def used(x):
    return math.sqrt(x)

def unused():
    return used(1.0)
'''
    other = "shared = 1\nlonely = 2\n"
    assert unreached({"m": source}, {("m", "entry")}) == {"m.unused"}
    assert unreached({"m": source, "other": other}, {("m", "entry")}) == {"m.unused", "other.lonely"}
    # with no root, nothing is reached
    assert unreached({"m": source}, set()) == {"m.entry", "m._helper", "m.used", "m.unused"}


def test_walker_flags_the_unread_members():
    source = '''
from dataclasses import dataclass

@dataclass(frozen=True)
class Point:
    x: float
    y: float
    label: str = ""
    weight: float = 1.0

    def __post_init__(self):
        _check(self.x)

    @property
    def norm2(self):
        return self.x ** 2 + self.y ** 2

    def scaled(self, s):
        return _scale(self, s)

def _check(x):
    return x

def _scale(p, s):
    return Point(s * p.x, s * p.y)

def entry():
    return Point(1.0, 2.0, label="a").norm2
'''
    # `label` is only set by keyword; `weight` is never named, `scaled` never
    # called, and `_scale` is reached only from the unread method
    assert unreached({"m": source}, {("m", "entry")}) == {"m.Point.weight", "m.Point.scaled", "m._scale"}
    # naming a member from outside, as perfbench may, reaches it and what it reads
    assert unreached({"m": source}, {("m", "entry")}, {"scaled", "weight"}) == set()
    # an unreached class is flagged whole, not member by member
    assert unreached({"m": source}, set()) == {"m.Point", "m._check", "m._scale", "m.entry"}
