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
rule is conservative, and blind where names repeat: a member counts as
reached when any class's member of that name is read.  `FockVector.d` was
hidden so by `op.d` of the Gaussian ops, and `GkpParams.n_bar`, which only
a test read, by `SweepRow.n_bar`; a member that shares its name with
another class's read member needs a check by hand.  Reached code is a
reached function, a reached class without the bodies of its members, and
the body of a reached member; dunder methods run implicitly, so they are
reached with their class and never flagged.  A name or member only the
tests reach belongs in `tests/oracles.py`.

A parameter with a default, of a reached function or member, and a field
with a default of a reached dataclass, must be passed by a call in reached
code or in `perfbench/*.py`, by keyword or by position.  A call counts for
the package definition it resolves to (a class call for its dataclass fields
or its `__init__`, `cls(...)` in a classmethod for its class), and a call
through an attribute (`x.name(...)`) for every member of that name.  A
default no caller overrides is a constant; one only tests override belongs
in the tests.  The mirror holds too: a default that every such call
overrides is used by no caller, and the parameter is made required
(`overridden`).
"""

from __future__ import annotations

import ast
import math
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


def _calls(node: ast.AST, scope: dict, modules: dict[str, dict],
           skip: set[ast.AST] = frozenset(), cls: tuple[str, str] | None = None):
    """(callee, positional count, keyword names) of each call in `node`.

    The callee is ("def", module, name) for a package definition (the class
    `cls`, given as (module, name), for a call of the name `cls`), or
    ("attr", name) for a call through an attribute; other calls are left out.  A *splat counts as every position,
    a **splat as every keyword ("**")."""
    for sub in _walk(node, skip):
        if not isinstance(sub, ast.Call):
            continue
        hit = _resolve(sub.func, scope, modules)
        if hit is not None and hit[0] is not MODULE and hit[1] in modules.get(hit[0], {}):
            callee = ("def", *hit)
        elif isinstance(sub.func, ast.Name) and sub.func.id == "cls" and cls is not None:
            callee = ("def", *cls)
        elif isinstance(sub.func, ast.Attribute) and hit is None:
            callee = ("attr", sub.func.attr)
        else:
            continue
        starred = any(isinstance(a, ast.Starred) for a in sub.args)
        yield (callee, math.inf if starred else len(sub.args),
               {k.arg or "**" for k in sub.keywords})


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def _defaulted(fn: ast.FunctionDef, bound: bool) -> list[tuple[str, float]]:
    """(name, position) of each parameter of `fn` with a default; the first
    parameter is dropped when bound, and keyword-only ones have no position."""
    args = fn.args.posonlyargs + fn.args.args
    pos = args[len(args) - len(fn.args.defaults):]
    offset = len(args) - len(pos) - (1 if bound else 0)
    kw = [(a.arg, math.inf) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
          if d is not None]
    return [(a.arg, offset + i) for i, a in enumerate(pos)] + kw


def _params(m: str, cls: ast.ClassDef | None, fn: ast.stmt | None):
    """(callee, label, position) of each defaulted parameter or dataclass field:
    of a module function `fn`, of a class's constructor (`fn` None), or of a
    member method `fn` of `cls`."""
    if cls is None:
        return [(("def", m, fn.name), f"{m}.{fn.name}.{a}", i) for a, i in _defaulted(fn, False)]
    if fn is None:
        init = next((n for n in cls.body if isinstance(n, ast.FunctionDef)
                     and n.name == "__init__"), None)
        if init is not None:
            return [(("def", m, cls.name), f"{m}.{cls.name}.{a}", i)
                    for a, i in _defaulted(init, True)]
        if not _is_dataclass(cls):
            return []
        fields = [n for n in cls.body if isinstance(n, ast.AnnAssign)
                  and isinstance(n.target, ast.Name)]
        return [(("def", m, cls.name), f"{m}.{cls.name}.{n.target.id}", i)
                for i, n in enumerate(fields) if n.value is not None]
    static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
    return [(("attr", fn.name), f"{m}.{cls.name}.{fn.name}.{a}", i)
            for a, i in _defaulted(fn, not static)]


def _reach(sources: dict[str, str], roots: set[tuple[str, str]],
           names: set[str] = frozenset()):
    """What reached code reaches: the parsed modules, the seen definitions and
    members, and the calls reached code makes."""
    trees = {m: ast.parse(text) for m, text in sources.items()}
    modules = {m: _defined(tree) for m, tree in trees.items()}
    members = {m: _members(tree) for m, tree in trees.items()}
    scopes = {m: _scope(m, tree, modules) for m, tree in trees.items()}
    # a reached class is read without its members; each member is read once reached
    skip = {node for classes in members.values() for table in classes.values()
            for node in table.values()}
    todo: set = set(roots)
    named = set(names)
    calls: list = []

    def read(m: str, node: ast.AST, cls: tuple[str, str] | None = None) -> None:
        todo.update(_refs(node, scopes[m], modules, skip))
        named.update(_names(node, skip))
        calls.extend(_calls(node, scopes[m], modules, skip, cls))

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
            read(m, node, (m, name) if member else None)
        if not todo:  # the members of reached classes that reached code names
            todo.update({(m, c, x) for m, c, *_ in seen for x in members[m].get(c, {})
                         if x in named} - seen)
    return modules, members, seen, calls


def unreached(sources: dict[str, str], roots: set[tuple[str, str]],
              names: set[str] = frozenset()) -> set[str]:
    """"module.name" of every definition in `sources` (module -> source text),
    and "module.Class.member" of every member of a reached class, that nothing
    reaches from `roots`, from the member `names` the roots name, or from a
    module's defining-nothing top-level statements."""
    modules, members, seen, _ = _reach(sources, roots, names)
    stray = {f"{m}.{name}" for m, defined in modules.items() for name in defined
             if (m, name) not in seen and not _dunder(name)}
    return stray | {f"{m}.{c}.{x}" for m, classes in members.items()
                    for c, table in classes.items() if (m, c) in seen
                    for x in table if (m, c, x) not in seen}


def _default_passes(sources: dict[str, str], roots: set[tuple[str, str]],
                    names: set[str] = frozenset(), calls=()) -> dict[str, list[bool]]:
    """Per defaulted parameter ("module.function.param",
    "module.Class.method.param") and dataclass field or constructor parameter
    ("module.Class.param") of a reached definition: whether each reached call
    to it, and each of `calls` (as `_calls` yields them), passes it."""
    modules, members, seen, reached_calls = _reach(sources, roots, names)
    params = []
    for m, name, *member in seen:
        node = modules[m][name]
        if member:
            fn = members[m][name][member[0]]
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                params += _params(m, node, fn)
        elif isinstance(node, ast.ClassDef):
            params += _params(m, node, None)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            params += _params(m, None, node)
    every = [*reached_calls, *calls]
    return {label: [n_pos > i or bool(kws & {label.rsplit(".", 1)[1], "**"})
                     for c, n_pos, kws in every if c == callee]
            for callee, label, i in params}


def unpassed(sources: dict[str, str], roots: set[tuple[str, str]],
             names: set[str] = frozenset(), calls=()) -> set[str]:
    """The defaults (labelled as in `_default_passes`) that no call passes."""
    return {label for label, passes in _default_passes(sources, roots, names, calls).items()
            if not any(passes)}


def overridden(sources: dict[str, str], roots: set[tuple[str, str]],
               names: set[str] = frozenset(), calls=()) -> set[str]:
    """The defaults (labelled as in `_default_passes`) that some call reaches and
    every call passes: the mirror of `unpassed`, a default no caller uses."""
    return {label for label, passes in _default_passes(sources, roots, names, calls).items()
            if passes and all(passes)}


def _package_sources() -> dict[str, str]:
    return {p.stem: p.read_text() for p in sorted((ROOT / "src" / PACKAGE).glob("*.py"))}


def _command_roots() -> set[tuple[str, str]]:
    """The console scripts' entry points, "gkpphase.cli:main" -> ("cli", "main")."""
    text = (ROOT / "pyproject.toml").read_text()
    return set(re.findall(rf'"{PACKAGE}\.(\w+):(\w+)"', text))


def _perfbench_roots(sources: dict[str, str]) -> tuple[set[tuple[str, str]], set[str], list]:
    """The package names `perfbench/*.py` refers to, the member names it
    names, and its calls into the package (as `_calls` yields them)."""
    modules = {m: _defined(ast.parse(text)) for m, text in sources.items()}
    roots, names, calls = set(), set(), []
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        scope = _scope("", tree, modules)
        roots |= _refs(tree, scope, modules)
        names |= _names(tree)
        calls.extend(_calls(tree, scope, modules))
        for node in ast.walk(tree):  # span table rows ("channel", "ChannelEngine.__init__", ...)
            if isinstance(node, ast.Tuple) and len(node.elts) >= 2 and all(
                isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts[:2]
            ):
                module, dotted = node.elts[0].value, node.elts[1].value
                head, *rest = dotted.split(".")
                if head in modules.get(module, {}):
                    roots.add((module, head))
                    names.update(rest)
    return roots, names, calls


def test_every_package_name_has_a_caller():
    sources = _package_sources()
    assert {"cli", "channel", "fock", "polyalg"} <= set(sources)
    roots, names, _ = _perfbench_roots(sources)
    roots |= _command_roots()
    assert ("cli", "main") in roots and ("channel", "vacuum_match_fraction") in roots
    assert "pauli_expectations" in names
    stray = unreached(sources, roots, names)
    assert not stray, f"reached by no command and no benchmark (move to tests/oracles.py): {sorted(stray)}"


def test_every_default_is_passed_by_a_caller():
    sources = _package_sources()
    roots, names, calls = _perfbench_roots(sources)
    assert (("def", "channel", "ChannelConfig"), 0, {"gate", "params", "plan", "target"}) in calls
    unset = unpassed(sources, roots | _command_roots(), names, calls)
    assert not unset, f"defaults no command and no benchmark overrides (make them constants): {sorted(unset)}"


def test_no_default_is_overridden_by_every_caller():
    sources = _package_sources()
    roots, names, calls = _perfbench_roots(sources)
    dead = overridden(sources, roots | _command_roots(), names, calls)
    assert not dead, f"defaults every command and benchmark call overrides (make them required): {sorted(dead)}"


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


def test_walker_flags_the_unpassed_defaults():
    source = '''
from dataclasses import dataclass

@dataclass(frozen=True)
class Config:
    size: int
    scale: float = 1.0
    mode: str = "a"
    label: str = ""

    @classmethod
    def square(cls, n, scale=2.0):
        return cls(n, scale)

    def grown(self, by=1, *, clip=False):
        return Config(self.size + by, self.scale)

def run(x, tol=1e-9, steps=10, verbose=False):
    return x

def entry():
    c = Config.square(3).grown(2)
    return run(c.size, 1e-6, verbose=True), Config(1, mode="b").mode, c.label

def unused():
    return run(1.0, 1e-3, 5), Config(2, label="b").grown(clip=True)
'''
    # `scale` goes by position through `cls`, `mode` and `verbose` by keyword,
    # `by` and `tol` by position; what only the unread `unused` passes, as only
    # a test might, counts not
    want = {"m.Config.label", "m.Config.square.scale", "m.Config.grown.clip", "m.run.steps"}
    assert unpassed({"m": source}, {("m", "entry")}) == want
    # a call from outside, as perfbench's, passes by keyword or by a *splat
    outside = [(("def", "m", "run"), 0, {"steps"}), (("attr", "grown"), 0, {"**"}),
               (("def", "m", "Config"), math.inf, set())]
    assert unpassed({"m": source}, {("m", "entry")}, calls=outside) == {"m.Config.square.scale"}


def test_walker_flags_the_overridden_defaults():
    source = '''
from dataclasses import dataclass

@dataclass(frozen=True)
class Config:
    size: int
    scale: float = 1.0
    mode: str = "a"

    @classmethod
    def square(cls, n, scale=2.0):
        return cls(n, scale, "b")

    def grown(self, by=1, *, clip=False):
        return Config(self.size + by, self.scale, mode="c")

def run(x, tol=1e-9, steps=10, verbose=False):
    return x

def entry():
    c = Config.square(3).grown(2)
    return run(c.size, 1e-6, verbose=True), run(1, tol=1e-3, steps=4), c.grown(clip=True)

def unused():
    return run(1.0), Config(2)
'''
    # every reached call passes `scale`, `mode` (by position through `cls`, and by
    # keyword) and `tol`; `steps`, `by` and `clip` are left out by some call, and
    # `verbose` by one; `square.scale` is passed by none, which is `unpassed`'s
    # case; the unread `unused`, as only a test might, counts not
    want = {"m.Config.scale", "m.Config.mode", "m.run.tol"}
    assert overridden({"m": source}, {("m", "entry")}) == want
    assert unpassed({"m": source}, {("m", "entry")}) == {"m.Config.square.scale"}
    # a call from outside, as perfbench's, that leaves a default out keeps it;
    # one that passes it by keyword or by a **splat does not
    leaves = [(("def", "m", "run"), 1, set())]
    assert overridden({"m": source}, {("m", "entry")}, calls=leaves) == {"m.Config.scale", "m.Config.mode"}
    passes = [(("def", "m", "run"), 0, {"**"}), (("def", "m", "Config"), 1, {"scale"})]
    assert overridden({"m": source}, {("m", "entry")}, calls=passes) == {"m.Config.scale", "m.run.tol"}
