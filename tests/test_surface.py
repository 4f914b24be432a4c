"""The package surface: every module-level name in `src/gkpphase` has a caller.

A name is reached when a root refers to it, or a reached name's definition
does.  The roots are the console scripts of pyproject.toml (the `gkpphase`
command, whose parser hands each subcommand its `cmd_*` function), the
top-level statements of each module that define nothing (such as the
`__main__` guard of `cli`), and everything `perfbench/*.py` refers to,
including its span table's ("module", "name") pairs.  Functions, classes
and assignments count, private ones too; methods and dunder names are out
of scope.  A name only the tests reach belongs in `tests/oracles.py`.
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


def _refs(node: ast.AST, scope: dict, modules: dict[str, dict]) -> set[tuple[str, str]]:
    """(module, name) pairs of package definitions that `node` refers to."""
    out = set()
    for sub in ast.walk(node):
        hit = _resolve(sub, scope, modules)
        if hit is not None and hit[0] is not MODULE and hit[1] in modules.get(hit[0], {}):
            out.add(hit)
    return out


def unreached(sources: dict[str, str], roots: set[tuple[str, str]]) -> set[str]:
    """"module.name" of every definition in `sources` (module -> source text)
    that nothing reaches from `roots` or from a module's defining-nothing
    top-level statements."""
    trees = {m: ast.parse(text) for m, text in sources.items()}
    modules = {m: _defined(tree) for m, tree in trees.items()}
    scopes = {m: _scope(m, tree, modules) for m, tree in trees.items()}
    todo = set(roots)
    for m, tree in trees.items():
        for stmt in tree.body:
            if stmt not in modules[m].values() and not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                todo |= _refs(stmt, scopes[m], modules)
    seen: set[tuple[str, str]] = set()
    while todo:
        m, name = todo.pop()
        if (m, name) in seen or name not in modules.get(m, {}):
            continue
        seen.add((m, name))
        todo |= _refs(modules[m][name], scopes[m], modules)
    return {
        f"{m}.{name}"
        for m, names in modules.items()
        for name in names
        if (m, name) not in seen and not (name.startswith("__") and name.endswith("__"))
    }


def _package_sources() -> dict[str, str]:
    return {p.stem: p.read_text() for p in sorted((ROOT / "src" / PACKAGE).glob("*.py"))}


def _command_roots() -> set[tuple[str, str]]:
    """The console scripts' entry points, "gkpphase.cli:main" -> ("cli", "main")."""
    text = (ROOT / "pyproject.toml").read_text()
    return set(re.findall(rf'"{PACKAGE}\.(\w+):(\w+)"', text))


def _perfbench_roots(sources: dict[str, str]) -> set[tuple[str, str]]:
    modules = {m: _defined(ast.parse(text)) for m, text in sources.items()}
    roots = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        roots |= _refs(tree, _scope("", tree, modules), modules)
        for node in ast.walk(tree):  # span table rows ("fock", "q_eigensystem", ...)
            if isinstance(node, ast.Tuple) and len(node.elts) >= 2 and all(
                isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts[:2]
            ):
                module, dotted = node.elts[0].value, node.elts[1].value
                if dotted.split(".")[0] in modules.get(module, {}):
                    roots.add((module, dotted.split(".")[0]))
    return roots


def test_every_package_name_has_a_caller():
    sources = _package_sources()
    assert {"cli", "channel", "fock", "polyalg"} <= set(sources)
    roots = _command_roots() | _perfbench_roots(sources)
    assert ("cli", "main") in roots and ("channel", "vacuum_match_fraction") in roots
    stray = unreached(sources, roots)
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
