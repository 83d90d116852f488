"""Every module-level function and class of ``src/pebblegames`` is reached,
and every imported name is used.

A unit counts as reached when its name appears somewhere in ``src/`` outside
its own definition: as a name, as an attribute or in an import.  The match
is by name only, so it can be fooled by an unrelated attribute of the same
name, but it catches a helper that nothing calls any more.  The units that
stay although ``src/`` never reaches them are listed in ``TEST_REFERENCES``
with the reason they stay.  A name that a module of ``src/`` or ``tests/``
imports must be used in that module, or be listed in its ``__all__``.  A
method or property of a module-level class of ``src/``, other than a dunder,
is reached in the same way: its name appears in ``src/`` outside its own
definition, matched by name as units are.  No two module-level functions or
classes of ``src/`` share a body.  Every annotated field of a module-level
dataclass of ``src/`` is read: its name appears in ``src/`` outside the
field's own definition, as a name, an attribute or a keyword, matched by
name as units are; a dataclass listed in ``TEST_REFERENCES`` keeps its
unread fields.  Every parameter with a default, of a module-level function
or of a method as above, is set by some call in ``src/`` or ``benchmarks/``,
matched by the called name: by a keyword, by a positional argument at its
index, or by a call that unpacks ``*`` or ``**`` arguments; otherwise its
default is the only value it takes and it should be a constant.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pebblegames"
TESTS = Path(__file__).resolve().parent
BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"

INDEPENDENT = "an independent reference the tests compare the engine against"
LOOP_BOUND = "the tests compare the loop-bound sweep against it"

# "module.name" or "module.Class.method" -> why the unit or method stays
# though no code in src/ reaches it, or, for a dataclass, why its unread
# fields stay; "module.unit.parameter" -> why a parameter keeps a default
# that no call sets.  A helper that only such a unit uses
# (``trees.component``, for one) counts as reached through it, and the
# parameters of a listed unit keep their defaults.
TEST_REFERENCES = {
    "trees.lex_compare": INDEPENDENT + ": the padded vertex order",
    "trees.is_nc_tree": INDEPENDENT + ": the board-tree shape bounds",
    "trees.format_tree": "the round trip of the tree parser the order command reads",
    "simple_game.path_consistency": INDEPENDENT + ": the walk and consistency flags",
    "simple_game.PathFlags": INDEPENDENT + ": the flags path_consistency returns",
    "matching.all_matchings": INDEPENDENT + ": every partial matching of a board",
    "matching.covers": INDEPENDENT + ": what a minimal cover must cover",
    "figures.example_strategy": "loads the shipped data/fig1.strat table",
    "php_tree.PhpTree.children": INDEPENDENT + ": the per-node successor lists",
    "php_tree.shortest_loop_witness": "the scalar loop witness: " + LOOP_BOUND,
    "verify.loop_bound_batch": "the loop bound's decode route: " + LOOP_BOUND,
    "matching.Query.of.holes": "a query may name holes: minimal_covers answers them "
    "and the tests play them",
}


FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef)
UNIT = (*FUNCTION, ast.ClassDef)


def _names_in(node: ast.AST) -> set[str]:
    out: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def _scan(sources: dict[str, str]) -> tuple[dict[str, str], set[str]]:
    """The module-level units of ``{module: source text}`` as ``{"module.name":
    name}``, and every name used outside the definition that binds it."""
    units: dict[str, str] = {}
    used: set[str] = set()
    for module, text in sources.items():
        for stmt in ast.parse(text).body:
            names = _names_in(stmt)
            if isinstance(stmt, UNIT):
                units[f"{module}.{stmt.name}"] = stmt.name
                names.discard(stmt.name)
            used |= names
    return units, used


def _scan_methods(sources: dict[str, str]) -> tuple[dict[str, str], set[str]]:
    """The methods and properties of the module-level classes of ``{module:
    source text}``, dunders aside, as ``{"module.Class.name": name}``, and
    every name used outside the method that defines it."""
    methods: dict[str, str] = {}
    used: set[str] = set()
    for module, text in sources.items():
        for stmt in ast.parse(text).body:
            for part in stmt.body if isinstance(stmt, ast.ClassDef) else [stmt]:
                names = _names_in(part)
                method = part is not stmt and isinstance(part, FUNCTION)
                if method and not part.name[:2] == part.name[-2:] == "__":
                    methods[f"{module}.{stmt.name}.{part.name}"] = part.name
                    names.discard(part.name)
                used |= names
    return methods, used


def _src_sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def _scan_src() -> tuple[dict[str, str], set[str]]:
    return _scan(_src_sources())


def test_every_unit_is_reached_or_kept_as_a_reference():
    units, used = _scan_src()
    unreached = sorted(
        key for key, name in units.items() if name not in used and key not in TEST_REFERENCES
    )
    assert not unreached, f"units nothing in src/ reaches: {unreached}"


def test_every_method_is_reached_or_kept_as_a_reference():
    methods, used = _scan_methods(_src_sources())
    unreached = sorted(
        key for key, name in methods.items() if name not in used and key not in TEST_REFERENCES
    )
    assert not unreached, f"methods nothing in src/ reaches: {unreached}"


def test_no_stale_reference_entry():
    units, used = _scan_src()
    methods, method_used = _scan_methods(_src_sources())
    defaults = _defaults(_src_sources())
    gone = sorted(
        key for key in TEST_REFERENCES if key not in units and key not in methods and key not in defaults
    )
    assert not gone, f"TEST_REFERENCES names units that no longer exist: {gone}"
    with_unread_fields = {key.rsplit(".", 1)[0] for key in _unread_fields(_src_sources())}
    unset = _unset_defaults(_src_sources(), _caller_sources())
    reached = sorted(
        key
        for key in TEST_REFERENCES
        if (
            methods[key] in method_used
            if key in methods
            else key not in unset
            if key in defaults
            else units[key] in used and key not in with_unread_fields
        )
    )
    assert not reached, f"TEST_REFERENCES names units src/ now reaches and reads: {reached}"


def test_the_scan_tells_a_call_from_a_self_reference():
    units, used = _scan(
        {
            "a": "def f(x):\n    return f(x - 1) if x else 0\n\nclass K:\n    pass\n",
            "b": "from a import K\n\ndef g():\n    return helper.h()\n\ndef h():\n    pass\n",
        }
    )
    assert set(units) == {"a.f", "a.K", "b.g", "b.h"}
    # f only calls itself and g is called by nothing; K is imported and h is
    # reached as an attribute.
    assert {name for name in units.values() if name not in used} == {"f", "g"}


def test_the_method_scan_tells_a_call_from_a_self_reference():
    methods, used = _scan_methods(
        {
            "a": "class K:\n    def __init__(self):\n        self.f(0)\n\n"
            "    def f(self, x):\n        return self.f(x - 1) if x else self.g\n\n"
            "    @property\n    def g(self):\n        return 1\n\n"
            "    def h(self):\n        return self.h()\n",
            "b": "def k(obj):\n    return obj.j()\n\nclass L:\n    def j(self):\n        pass\n",
        }
    )
    assert set(methods) == {"a.K.f", "a.K.g", "a.K.h", "b.L.j"}
    # f is called by __init__, the property g is read by f and j is reached
    # as an attribute in another module; h only calls itself.
    assert {name for name in methods.values() if name not in used} == {"h"}


def _unread_fields(sources: dict[str, str]) -> list[str]:
    """The annotated fields of the module-level dataclasses of ``{module:
    source text}``, as ``"module.Class.field"``, whose name is used nowhere
    outside the field's own definition as a name, an attribute or a keyword."""
    fields: dict[str, str] = {}
    used: set[str] = set()
    for module, text in sources.items():
        tree = ast.parse(text)
        own: set[int] = set()
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef) and any(
                "dataclass" in _names_in(d) for d in stmt.decorator_list
            ):
                for item in stmt.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        fields[f"{module}.{stmt.name}.{item.target.id}"] = item.target.id
                        own.add(id(item.target))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and id(node) not in own:
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg:
                used.add(node.arg)
    return sorted(key for key, name in fields.items() if name not in used)


def test_every_dataclass_field_is_read():
    unread = [
        key
        for key in _unread_fields(_src_sources())
        if key.rsplit(".", 1)[0] not in TEST_REFERENCES
    ]
    assert not unread, f"dataclass fields nothing in src/ reads: {unread}"


def test_the_field_scan_sees_names_attributes_and_keywords():
    assert _unread_fields(
        {
            "a": "@dataclass(frozen=True)\nclass P:\n    x: int\n    y: int\n    z: int = 0\n"
            "\nclass Q:\n    w: int\n",
            "b": "import dataclasses\n\n@dataclasses.dataclass\nclass R:\n    u: int\n    v: int\n"
            "\ndef f(p, x):\n    return p.y + x, R(u=1)\n",
        }
    ) == ["a.P.z", "b.R.v"]


def _defaults(sources: dict[str, str]) -> dict[str, tuple[str, int | None, str]]:
    """The parameters with a default of the module-level functions, and of
    the methods of the module-level classes, dunders aside, of ``{module:
    source text}``, as ``{"module.unit.parameter": (called name, position,
    parameter)}``; the position is the parameter's index among a call's
    positional arguments, None for a keyword-only one."""
    out: dict[str, tuple[str, int | None, str]] = {}
    for module, text in sources.items():
        for stmt in ast.parse(text).body:
            if isinstance(stmt, FUNCTION):
                defs = [(f"{module}.{stmt.name}", stmt, 0)]
            elif isinstance(stmt, ast.ClassDef):
                defs = [
                    (
                        f"{module}.{stmt.name}.{fn.name}",
                        fn,
                        0 if any("staticmethod" in _names_in(d) for d in fn.decorator_list) else 1,
                    )
                    for fn in stmt.body
                    if isinstance(fn, FUNCTION) and not fn.name[:2] == fn.name[-2:] == "__"
                ]
            else:
                continue
            for key, fn, bound in defs:  # bound: the self or cls a call does not pass
                args = fn.args
                positional = [*args.posonlyargs, *args.args][bound:]
                first = len(positional) - len(args.defaults)
                for i, arg in enumerate(positional[first:], start=first):
                    out[f"{key}.{arg.arg}"] = (fn.name, i, arg.arg)
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        out[f"{key}.{arg.arg}"] = (fn.name, None, arg.arg)
    return out


def _unset_defaults(sources: dict[str, str], callers: dict[str, str]) -> list[str]:
    """The keys of ``_defaults(sources)`` that no call in ``{module: source
    text}`` ``callers`` sets, matched by the called name: a keyword sets its
    parameter, positional arguments set the parameters at their indices, and
    a call that unpacks ``*`` or ``**`` arguments sets every parameter."""
    unpacked: set[str] = set()
    positional: dict[str, int] = {}
    keywords: set[tuple[str, str]] = set()
    for text in callers.values():
        for call in ast.walk(ast.parse(text)):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            if any(isinstance(a, ast.Starred) for a in call.args) or any(
                k.arg is None for k in call.keywords
            ):
                unpacked.add(name)
            positional[name] = max(positional.get(name, 0), len(call.args))
            keywords.update((name, k.arg) for k in call.keywords)
    return sorted(
        key
        for key, (name, i, param) in _defaults(sources).items()
        if name not in unpacked
        and (name, param) not in keywords
        and (i is None or positional.get(name, 0) <= i)
    )


def _caller_sources() -> dict[str, str]:
    return {
        **_src_sources(),
        **{f"benchmarks.{path.stem}": path.read_text() for path in sorted(BENCHMARKS.glob("*.py"))},
    }


def test_every_default_is_set_by_some_call():
    def referenced(key: str) -> bool:
        parts = key.split(".")
        return any(".".join(parts[:i]) in TEST_REFERENCES for i in range(2, len(parts) + 1))

    unset = [
        key for key in _unset_defaults(_src_sources(), _caller_sources()) if not referenced(key)
    ]
    assert not unset, f"defaults no call in src/ or benchmarks/ overrides: {unset}"


def test_the_default_scan_sees_keywords_positions_and_unpacking():
    sources = {
        "a": "def f(x, y=1, z=2, *, w=3):\n    pass\n\ndef g(u=0):\n    pass\n\n"
        "class K:\n    def m(self, v=1):\n        pass\n\n"
        "    @staticmethod\n    def s(t=1):\n        pass\n\n"
        "    def __init__(self, r=1):\n        pass\n",
    }
    callers = {**sources, "b": "f(0, 1)\nh.f(0, w=4)\nK().m(5)\nK.s()\ng(*args)\n"}
    assert set(_defaults(sources)) == {"a.f.y", "a.f.z", "a.f.w", "a.g.u", "a.K.m.v", "a.K.s.t"}
    # y is set by position and w by keyword, m's v by position past self,
    # and g's u by the unpacking call; z and the static method's t are not.
    assert _unset_defaults(sources, callers) == ["a.K.s.t", "a.f.z"]


def _body_key(unit: ast.AST) -> str:
    """The ``ast.dump`` of a unit's body without its docstring and ``pass``
    statements; empty when nothing else is left."""
    body = [
        stmt
        for stmt in unit.body
        if not isinstance(stmt, ast.Pass)
        and not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
    ]
    return "".join(ast.dump(stmt) for stmt in body)


def _duplicate_units(sources: dict[str, str]) -> list[list[str]]:
    """The groups of module-level units of ``{module: source text}`` that
    share a nonempty body."""
    by_body: dict[str, list[str]] = {}
    for module, text in sources.items():
        for stmt in ast.parse(text).body:
            if isinstance(stmt, UNIT) and (key := _body_key(stmt)):
                by_body.setdefault(key, []).append(f"{module}.{stmt.name}")
    return [names for names in by_body.values() if len(names) > 1]


def test_no_two_units_share_a_body():
    duplicates = _duplicate_units(_src_sources())
    assert not duplicates, f"units defined twice: {duplicates}"


def test_the_duplicate_scan_skips_empty_bodies_and_docstrings():
    pair = "    x: int\n    y: int\n"
    assert _duplicate_units(
        {
            "a": f'class P:\n    """A point."""\n{pair}\nclass E(Exception):\n    """Bad."""\n',
            "b": f"class Q:\n{pair}\nclass F(Exception):\n    pass\n\ndef g():\n    return 1\n",
            "c": "def h():\n    return 2\n",
        }
    ) == [["a.P", "b.Q"]]


def _unused_imports(text: str) -> list[str]:
    """The names the module ``text`` imports and never uses; a name in its
    ``__all__`` counts as used."""
    imported: set[str] = set()
    used: set[str] = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant))
    return sorted(imported - used)


def test_every_import_is_used():
    paths = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    unused = {
        f"{path.parent.name}/{path.name}": names
        for path in paths
        if (names := _unused_imports(path.read_text()))
    }
    assert not unused, f"imported but never used: {unused}"


def test_the_import_scan_sees_every_form_of_import():
    text = (
        "from __future__ import annotations\n"
        "import os\nimport os.path\nimport numpy as np\n"
        "from a import b, c as d, e\n"
        "__all__ = ['e']\n"
        "def f():\n    from g import h\n    return np.zeros(1), d\n"
    )
    assert _unused_imports(text) == ["b", "h", "os"]
