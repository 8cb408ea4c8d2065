"""Options audit: whatever a caller could set, some caller must set.

The rule (docs/architecture.md, "Options"): a field earns its place on a
config dataclass when some caller sets it; a value nobody ever sets is a
module constant, and a value the code can work out from its inputs is a
function.  This walks the tree with :mod:`ast` and fails naming every
field of every ``*Config`` dataclass under ``src/repro`` that no
constructor call, ``replace(...)``, ``*Spec(...)``/``*_mesh(...)``
pass-through or dict-coerced config in ``src/``, ``benchmarks/``
(``benchmarks/e2e`` pins specs by hash and is left out), ``examples/``
or ``tests/`` ever sets.

The same rule holds for the two other places an option hides: a
defaulted parameter of a public function, method or constructor must be
passed by some call, and an optional param of a ``WORKLOAD_KINDS`` row
must be carried by some ``WorkloadSpec``.  A ``WORKLOAD_KINDS`` row
itself must be declared by a ``WorkloadSpec`` of the library, a bench
or an example: tests do not count as callers.
"""

import ast
import inspect
import pathlib
import re

from repro.workloads import PARAM_KEYWORDS, WORKLOAD_KINDS

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


def _dict_keys(node):
    """Constant keys of a dict literal or a ``dict(k=...)`` call."""
    if isinstance(node, ast.Dict):
        return [k.value for k in node.keys if isinstance(k, ast.Constant)]
    if isinstance(node, ast.Call) and _name(node) == "dict":
        return [kw.arg for kw in node.keywords if kw.arg]
    return []


def _workload_specs(*tops):
    """``(kind, {keyword: value node})`` of every ``WorkloadSpec(...)``
    call; ``kind`` is None unless it is spelt as a constant."""
    for tree in _trees(*tops):
        for call in ast.walk(tree):
            if isinstance(call, ast.Call) and _name(call) == "WorkloadSpec":
                given = {kw.arg: kw.value for kw in call.keywords}
                kind = call.args[0] if call.args else given.get("kind")
                yield getattr(kind, "value", None), given


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


#: Every ``*Config`` dataclass under ``src/repro``, each with its reason
#: to be a class rather than the keyword arguments of the one
#: constructor that reads it.
CONFIG_CLASSES = {
    "RouterConfig": "rides inside ScenarioSpec.to_dict() (a pinned "
                    "scenario's topology)",
    "ResilienceConfig": "rides inside ScenarioSpec.to_dict() (a router's "
                        "resilience policy)",
    "CacheConfig": "rides inside ScenarioSpec.to_dict() (a router's "
                   "on-path cache)",
    "FlowControlConfig": "shared by the ring MAC and the router port's "
                         "insertion controller",
    "ControlGroupConfig": "one group definition handed to every member",
}


def test_every_config_class_has_a_reason():
    """A bundle of one constructor's arguments is that constructor's
    keywords: a new ``*Config`` dataclass needs a reason entered here
    (and a deleted one leaves, so the walk cannot lose one unseen)."""
    assert set(_config_classes()) == set(CONFIG_CLASSES)


def test_every_config_field_is_set_by_someone():
    configs = _config_classes()
    #: field name -> the config class its annotation names (``cache`` ->
    #: CacheConfig): how a nested ``replace`` or
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
                        credit(_dict_keys(node), [carried[kw.arg]])

    assert not unset, "config fields no caller ever sets: " + ", ".join(
        f"{cls}.{field}" for cls, field in sorted(unset)
    )


#: The only escape from the parameter rule: defaulted parameters kept
#: although no call passes them, each with its reason.  Five at most.
ALLOWED_PARAMETERS = {}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _defaulted(fn, bound):
    """``[(parameter, positional index or None for keyword-only)]`` for
    every parameter of ``fn`` that has a default; ``bound`` discounts
    the ``self``/``cls`` a caller never writes."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    return [
        (arg.arg, i - bound) for i, arg in enumerate(positional) if i >= first
    ] + [
        (arg.arg, None)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]


def _public_defaulted_parameters():
    """``{(callee name, parameter): [(label, positional index)]}`` for
    every defaulted parameter of a public module-level function, public
    method or constructor of a public class under ``src/repro``.  The
    callee name is what a call site spells: the function or method name,
    or the class name for ``__init__``."""
    found = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        rel = path.relative_to(ROOT / "src").as_posix()
        for stmt in ast.parse(path.read_text()).body:
            if getattr(stmt, "name", "_").startswith("_"):
                continue
            if isinstance(stmt, _FUNCTIONS):
                members = [(stmt.name, stmt.name, stmt, 0)]
            elif isinstance(stmt, ast.ClassDef):
                members = [
                    (stmt.name if m.name == "__init__" else m.name,
                     f"{stmt.name}.{m.name}", m,
                     not any(_name(d) == "staticmethod"
                             for d in m.decorator_list))
                    for m in stmt.body if isinstance(m, _FUNCTIONS)
                    and (m.name == "__init__" or not m.name.startswith("_"))
                ]
            else:
                continue
            for callee, qual, fn, bound in members:
                for param, index in _defaulted(fn, bound):
                    found.setdefault((callee, param), []).append(
                        (f"{rel}: {qual}({param})", index)
                    )
    return found


def unpassed_parameters():
    """Labels of the defaulted parameters nothing passes.

    A call passes a parameter by keyword, by reaching its position, or
    through ``**name`` when ``name`` is assigned a dict literal or a
    ``dict(...)`` call in the same module.  Calls are matched to
    definitions by name alone, so a method is credited by a call to any
    method of that name.  Two dispatch tables pass parameters no call
    site spells: a ``WORKLOAD_KINDS`` row names the constructor keywords
    the runner forwards from a spec (to the row's class and the bases
    it forwards to), and a declarative ``{"shape": s, ...}`` rate
    profile names the keywords of ``<s>_profile``.
    """
    defined = _public_defaulted_parameters()
    unpassed = {label for sites in defined.values() for label, _ in sites}

    def credit(callee, keywords, n_positional=0):
        for (name, param), sites in defined.items():
            if name == callee:
                unpassed.difference_update(
                    label for label, index in sites
                    if param in keywords
                    or (index is not None and index < n_positional)
                )

    for tree in _trees(*SCANNED):
        #: name -> keys of the dict literals / dict(...) calls assigned to it
        spread = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and isinstance(
                    node.targets[0], ast.Name):
                spread.setdefault(node.targets[0].id, set()).update(
                    _dict_keys(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                keywords = {kw.arg for kw in node.keywords if kw.arg}
                for kw in node.keywords:
                    if kw.arg is None:
                        keywords |= spread.get(_name(kw.value), set())
                # ``f(*args)`` may reach any position.
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                credit(_name(node), keywords,
                       float("inf") if starred else len(node.args))
            elif isinstance(node, ast.Dict):
                keys = dict(zip(_dict_keys(node), node.values))
                shape = keys.get("shape")
                if isinstance(shape, ast.Constant):
                    credit(f"{shape.value}_profile", set(keys))
    for row in WORKLOAD_KINDS.values():
        named = set(row.fields) | set(row.optional)
        for need in row.required:
            named |= {need} if isinstance(need, str) else set(need)
        for cls in row.cls.__mro__:
            credit(cls.__name__, {PARAM_KEYWORDS.get(n, n) for n in named})
    return unpassed


def test_every_defaulted_parameter_is_passed_by_someone():
    assert len(ALLOWED_PARAMETERS) <= 5
    unpassed = unpassed_parameters()
    stale = set(ALLOWED_PARAMETERS) - unpassed
    assert not stale, f"allowlisted but passed (drop the entry): {sorted(stale)}"
    unpassed -= set(ALLOWED_PARAMETERS)
    assert not unpassed, (
        "defaulted parameters no call passes (make each the constant it "
        "defaults to, or delete it with the branch it selects):\n  "
        + "\n  ".join(sorted(unpassed))
    )


def test_every_optional_workload_param_is_given_by_someone():
    """An optional param belongs to the constructor that names its
    keyword, so the stream options ``MessageStream`` declares are given
    once for every kind that forwards to it."""

    def owner(kind, param):
        keyword = PARAM_KEYWORDS.get(param, param)
        for cls in WORKLOAD_KINDS[kind].cls.__mro__:
            init = vars(cls).get("__init__")
            if init and keyword in inspect.signature(init).parameters:
                return f"{cls.__name__}({keyword})"
        raise AssertionError(f"{kind}: no constructor takes {param!r}")

    ungiven = {
        owner(kind, param): f"{kind}.{param}"
        for kind, row in WORKLOAD_KINDS.items() for param in row.optional
    }
    assert len(ungiven) >= 8, "the walk lost the kinds table"
    for kind, given in _workload_specs(*SCANNED):
        if kind in WORKLOAD_KINDS:
            for param in _dict_keys(given.get("params")):
                if param in WORKLOAD_KINDS[kind].optional:
                    ungiven.pop(owner(kind, param), None)
    assert not ungiven, (
        "optional workload params no WorkloadSpec gives: "
        + ", ".join(sorted(ungiven.values()))
    )


def test_every_workload_kind_is_declared_outside_the_tests():
    """A kind earns its row, its generator and its validation when the
    library, a bench or an example sends that traffic; a row only its
    own tests declare is an input format no caller uses."""
    declared = {kind for kind, _ in
                _workload_specs("src", "benchmarks", "examples")}
    assert len(declared) >= 8, "the walk lost the WorkloadSpec calls"
    undeclared = set(WORKLOAD_KINDS) - declared
    assert not undeclared, (
        "workload kinds no library scenario, bench or example declares: "
        + ", ".join(sorted(undeclared))
    )
