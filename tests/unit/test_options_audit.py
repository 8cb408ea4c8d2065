"""Options audit: every ``*Config`` field must be given a value by someone.

The rule (docs/architecture.md, "Options"): a field earns its place on a
config dataclass when some caller sets it; a value nobody ever sets is a
module constant, and a value the code can work out from its inputs is a
function.  This walks the tree with :mod:`ast` and fails naming every
field of every ``*Config`` dataclass under ``src/repro`` that no
constructor call, ``replace(...)``, ``*Spec(...)``/``*_mesh(...)``
pass-through or dict-coerced config in ``src/``, ``benchmarks/``
(``benchmarks/e2e`` pins specs by hash and is left out), ``examples/``
or ``tests/`` ever sets.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[2]
SCANNED = ("src", "benchmarks", "examples", "tests")


def _trees(*tops):
    for top in tops:
        for path in sorted((ROOT / top).rglob("*.py")):
            if "benchmarks/e2e" not in path.as_posix():
                yield ast.parse(path.read_text())


def _name(node):
    """Terminal name of a call target or decorator (``a.b.C(...)`` -> ``C``)."""
    node = node.func if isinstance(node, ast.Call) else node
    return getattr(node, "attr", getattr(node, "id", ""))


def _config_classes():
    """``{class name: {field name: annotation source}}`` in field order."""
    return {
        cls.name: {
            stmt.target.id: ast.unparse(stmt.annotation)
            for stmt in cls.body if isinstance(stmt, ast.AnnAssign)
        }
        for tree in _trees("src")
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name.endswith("Config")
        and any(_name(d) == "dataclass" for d in cls.decorator_list)
    }


def test_every_config_field_is_set_by_someone():
    configs = _config_classes()
    assert len(configs) >= 10, "the walk lost the config dataclasses"
    #: field name -> the config class its annotation names (``node`` ->
    #: NodeConfig, ``cache`` -> CacheConfig): how a nested ``replace`` or
    #: a dict literal is tied to the class it ends up in
    carried = {}
    for fields in configs.values():
        for field, annotation in fields.items():
            for inner in re.findall(r"\w+Config\b", annotation):
                if inner in configs:
                    carried[field] = inner
    unset = {(cls, f) for cls, fields in configs.items() for f in fields}

    def credit(names, owners):
        unset.difference_update((o, n) for o in owners for n in names)

    for tree in _trees(*SCANNED):
        calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)]
        #: local helpers that forward their ``**kw`` into a config
        #: (``def controller(**kw): ... FlowControlConfig(**kw)``)
        forwards = {
            fn.name: _name(call)
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.args.kwarg
            for call in ast.walk(fn)
            if isinstance(call, ast.Call) and _name(call) in configs
            and any(kw.arg is None and _name(kw.value) == fn.args.kwarg.arg
                    for kw in call.keywords)
        }
        for call in calls:
            callee = _name(call)
            keywords = [kw.arg for kw in call.keywords if kw.arg]
            callee = forwards.get(callee, callee)
            if callee in configs:
                credit(list(configs[callee])[: len(call.args)] + keywords,
                       [callee])
            elif callee == "replace" and call.args:
                # A config re-deriving itself is not a caller choosing.
                target = _name(call.args[0])
                if target != "self":
                    credit(keywords,
                           [carried[target]] if target in carried else configs)
            elif callee.endswith(("Spec", "_mesh")):
                credit(keywords, configs)
            for kw in call.keywords:
                for node in [kw.value, *getattr(kw.value, "elts", ())]:
                    if isinstance(node, ast.Dict) and kw.arg in carried:
                        credit([k.value for k in node.keys
                                if isinstance(k, ast.Constant)],
                               [carried[kw.arg]])

    assert not unset, "config fields no caller ever sets: " + ", ".join(
        f"{cls}.{field}" for cls, field in sorted(unset)
    )
