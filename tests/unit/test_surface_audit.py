"""Public-surface audit: a public name must have a caller that is not a test.

The rule (docs/architecture.md, "Public surface"): a public module-level
function or class, and a public method or property, under ``src/repro``
exists only if something other than its own module and its own unit
test uses it.  This walks the tree with :mod:`ast` and fails naming
every one that nothing reaches from another module of ``src/``,
``benchmarks/`` or ``examples/``, from its own module's top-level
statements (dispatch tables such as ``SCENARIOS``, a ``__main__``
guard), or from another definition of its own module that is itself
reached.  ``tests/`` is not a caller.

What counts as a reference: a bare name or an attribute access
(``x.name``) for module-level definitions, an attribute access for
methods (a local variable called ``step`` does not call
``Simulator.step``), and the literal in ``getattr(x, "name")`` /
``hasattr(x, "name")``.  Imports, ``__init__`` re-exports and
``__all__`` strings are not references.  Dunders, private names and
overrides of a method a base class under ``src/repro`` declares are not
audited (dataclass fields and Enum members are not definitions at
all).  Names reached only through a dispatch table of strings are read
from that table: ``FaultKind`` values name the cluster methods and
``FaultSchedule`` builders that ``getattr`` resolves
(``spec.INVARIANT_NAMES`` resolves to private ``_check_*`` judges and
``WORKLOAD_KINDS`` names its classes directly, so neither needs help).
"""

import ast
import pathlib

from repro.faults import FaultKind
from repro.scenarios.spec import FAULT_KINDS

ROOT = pathlib.Path(__file__).resolve().parents[2]
CALLERS = ("src", "benchmarks", "examples")

#: The only escape: public names kept although nothing outside their
#: module and the tests reaches them, each with its reason.  Ten at most.
ALLOWED = {
    "repro/rostering/roster.py: Roster.validate_against":
        "reference oracle: property and fault tests hold every installed "
        "roster against the physical ground truth with it",
    "repro/phys/topology.py: PhysicalTopology.live_attachment":
        "the ground truth validate_against is fed (which fibres carry "
        "light right now)",
    "repro/micropacket/encoding.py: max_run_length":
        "the 8b/10b run-length measure the encoder's property tests "
        "bound at five",
    "repro/micropacket/crc.py: crc16_ccitt":
        "second CRC of the frame layer, held to the published "
        "CCITT-FALSE check value; no packet type carries it yet",
    "repro/phys/frame.py: Frame.damaged":
        "the only way to make a corrupt frame: the link's CRC-reject "
        "path is tested through it",
    "repro/resilience/breaker.py: CircuitBreaker.state_of":
        "the breaker's observation point: unit tests walk CLOSED -> "
        "OPEN -> HALF_OPEN through it",
    "repro/node.py: AmpNode.unregister_handler":
        "release half of register_handler's claim contract, tested as "
        "a pair",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _public(name):
    return not name.startswith("_")


def _references(nodes):
    """``(names, attrs)`` referenced anywhere under ``nodes``."""
    names, attrs = set(), set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif (isinstance(node, ast.Call)
                  and getattr(node.func, "id", "") in ("getattr", "hasattr")
                  and len(node.args) >= 2
                  and isinstance(node.args[1], ast.Constant)):
                attrs.add(node.args[1].value)
    return names, attrs


def _hooks(cls, classes, seen=()):
    """Method names ``cls`` inherits from base classes under ``src/repro``."""
    found = set()
    for base in cls.bases:
        name = getattr(base, "attr", getattr(base, "id", ""))
        if name in classes and name not in seen:
            found |= {s.name for s in classes[name].body if isinstance(s, _DEFS)}
            found |= _hooks(classes[name], classes, seen + (name,))
    return found


def _definitions(tree, classes):
    """``{qualified name: (own name, owning class or None, statements
    whose references it contributes once reached)}`` for one module."""
    found = {}
    for stmt in tree.body:
        if not isinstance(stmt, _DEFS):
            continue
        if not isinstance(stmt, ast.ClassDef):
            found[stmt.name] = (stmt.name, None, [stmt])
            continue
        inherited = _hooks(stmt, classes)
        methods = [
            s for s in stmt.body if isinstance(s, _DEFS)
            and _public(s.name) and s.name not in inherited
        ]
        # Private methods, dunders and hook overrides live and die with
        # their class; each audited method is a definition of its own.
        rest = [s for s in stmt.body if s not in methods]
        found[stmt.name] = (
            stmt.name, None, stmt.bases + stmt.decorator_list + rest
        )
        for method in methods:
            found[f"{stmt.name}.{method.name}"] = (
                method.name, stmt.name, [method]
            )
    return found


def unreached_public_names(allowed=()):
    """``{"path: Qualified.name"}`` for every audited definition nothing
    reaches; names in ``allowed`` count as reached (and so does what
    they call)."""
    trees = {
        path: ast.parse(path.read_text())
        for top in CALLERS
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    whole = {path: _references([tree]) for path, tree in trees.items()}
    audited = {p: t for p, t in trees.items() if (ROOT / "src") in p.parents}
    classes = {
        node.name: node
        for tree in audited.values() for node in tree.body
        if isinstance(node, ast.ClassDef)
    }
    dispatched = {kind.value for kind in FaultKind} | set(FAULT_KINDS)
    unreached = set()
    for path, tree in audited.items():
        rel = path.relative_to(ROOT / "src").as_posix()
        # Roots: every other module, this one's top-level statements,
        # and the string-keyed dispatch tables.
        names, attrs = _references(
            [s for s in tree.body if not isinstance(s, _DEFS)]
        )
        attrs |= dispatched
        for other, (other_names, other_attrs) in whole.items():
            if other != path:
                names |= other_names
                attrs |= other_attrs
        pending = _definitions(tree, classes)
        live = set()
        progress = True
        while progress:
            progress = False
            for qual, (name, owner, body) in list(pending.items()):
                if owner is not None and owner not in live:
                    continue
                if (_public(name) and name not in attrs
                        and (owner is not None or name not in names)
                        and f"{rel}: {qual}" not in allowed):
                    continue
                del pending[qual]
                live.add(qual)
                more_names, more_attrs = _references(body)
                names |= more_names
                attrs |= more_attrs
                progress = True
        unreached |= {
            f"{rel}: {qual}" for qual, (name, owner, _) in pending.items()
            if _public(name) and (owner is None or owner in live)
        }
    return unreached


def test_every_public_name_has_a_caller_that_is_not_a_test():
    assert len(ALLOWED) <= 10
    stale = set(ALLOWED) - unreached_public_names()
    assert not stale, f"allowlisted but reached (drop the entry): {sorted(stale)}"
    unreached = unreached_public_names(ALLOWED)
    assert not unreached, (
        "public names only their own module or tests use "
        "(delete, make private, or give a real caller):\n  "
        + "\n  ".join(sorted(unreached))
    )
