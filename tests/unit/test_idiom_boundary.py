"""Scheduling-idiom audit: the network model schedules callbacks only.

The rule (docs/architecture.md, "One scheduling idiom, and the host
programs on top"): below the host API everything posts plain callbacks
with ``call_at`` / ``call_in`` and guards them; generator processes and
the events they wait on are the host-program API.  This walks
``src/repro`` (less ``sim/``, which defines the idiom) with :mod:`ast`
and fails on every ``.process(``, ``.timeout(`` or ``.event(`` call
outside ``ALLOWED``, whose keys are a directory or ``"<file>:
<Class.method>"`` — the definition the call sits in — each with its
reason.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

ALLOWED = {
    "repro/services/": "host services are sequential host programs",
    "repro/hostapi/": "the host API: applications and the MPI-like "
                      "collectives are sequential host code",
    "repro/netcache/network_cache.py: NetworkCache.read":
        "the seqlock read a host program runs with `yield from`",
    "repro/netcache/semaphore.py: SemaphoreService.acquire":
        "the lock a host program waits for with `yield from`",
    "repro/kernel/control_group.py: ControlGroup.__init__":
        "became_primary, the event host scripts wait on for a takeover",
    "repro/kernel/control_group.py: ControlGroup._takeover":
        "starts the app (GroupApp.run is a host program) and re-arms "
        "became_primary",
    "repro/transport/messaging.py: Messenger._send_fragments":
        "MessageHandle.delivered, the confirmation a host program waits on",
}


def _scan():
    """``(calls outside ALLOWED, ALLOWED keys that matched)``."""
    bad, used = [], set()

    def visit(node, rel, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif (isinstance(child, ast.Call)
                  and isinstance(child.func, ast.Attribute)
                  and child.func.attr in ("process", "timeout", "event")):
                key = f"{rel}: {'.'.join(scope)}"
                hit = [k for k in ALLOWED
                       if k == key or (k.endswith("/") and rel.startswith(k))]
                used.update(hit)
                if not hit:
                    bad.append(f"{key} (line {child.lineno})")
            visit(child, rel, inner)

    for path in sorted((SRC / "repro").rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if not rel.startswith("repro/sim/"):
            visit(ast.parse(path.read_text()), rel, ())
    return bad, used


def test_model_schedules_callbacks_only():
    bad, used = _scan()
    assert not bad, ("generator-process idiom below the host API; post a "
                     "guarded call_in callback instead:\n  " + "\n  ".join(bad))
    assert used == set(ALLOWED), f"stale ALLOWED: {set(ALLOWED) - used}"
