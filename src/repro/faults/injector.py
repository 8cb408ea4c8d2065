"""Scripted fault injection.

A :class:`FaultSchedule` is a list of timed fault actions applied to an
:class:`~repro.cluster.AmpNetCluster`.  Schedules are plain data, so the
benchmarks and tests can describe failure scenarios declaratively and
reproducibly.

Beyond the single-shot faults, the schedule builders express *churn*:
:meth:`FaultSchedule.flap_node` expands into a crash/recover train, and
:meth:`FaultSchedule.partition` / :meth:`FaultSchedule.heal_partition`
split the segment into two halves that keep running but cannot see each
other — the scenarios the gossip membership layer exists to survive.

Every schedule is validated against the cluster when it is armed (see
:meth:`FaultSchedule.validate`): a typo'd node or switch id fails with a
clear error at build time instead of a ``KeyError`` mid-simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Tuple, TYPE_CHECKING

from ..sim import Counter

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster import AmpNetCluster

__all__ = ["FaultKind", "FaultAction", "FaultSchedule", "FaultScheduleError"]


class FaultScheduleError(ValueError):
    """A schedule references targets the cluster does not have."""


#: Target signatures: ``(FaultAction field, what it names)`` pairs, in
#: the argument order of the cluster method that applies the kind.
#: "What it names" is also the :class:`~repro.scenarios.FaultSpec` field
#: carrying that target, and picks the check :meth:`FaultAction.validate`
#: runs on it.
_LINK = (("target", "node"), ("switch", "switch"))
_NODE = (("target", "node"),)
_SWITCH = (("target", "switch"),)
_SIDES = (("group", "nodes"), ("switch_group", "switches"))
_ROUTER = (("target", "router"),)


class FaultKind(Enum):
    """The fault vocabulary.  A kind's value is the name of the cluster
    method that applies it (and of the :class:`FaultSchedule` builder
    that schedules it); ``signature`` says which targets it takes.
    Router kinds arm against a :class:`~repro.routing.RoutedCluster`,
    every other kind against one segment."""

    CUT_LINK = "cut_link", _LINK
    RESTORE_LINK = "restore_link", _LINK
    FAIL_SWITCH = "fail_switch", _SWITCH
    REPAIR_SWITCH = "repair_switch", _SWITCH
    CRASH_NODE = "crash_node", _NODE
    RECOVER_NODE = "recover_node", _NODE
    PARTITION = "partition", _SIDES
    HEAL_PARTITION = "heal_partition", _SIDES
    CRASH_ROUTER = "crash_router", _ROUTER
    RECOVER_ROUTER = "recover_router", _ROUTER

    def __new__(cls, value, signature):
        kind = object.__new__(cls)
        kind._value_ = value
        kind.signature = signature
        return kind

    @property
    def roles(self) -> Tuple[str, ...]:
        """What the targets name, in argument order."""
        return tuple(role for _field, role in self.signature)


#: How ``__post_init__`` words a missing :class:`FaultAction` field.
_FIELD_NOUN = {
    "target": "target id",
    "switch": "switch id",
    "group": "node group",
    "switch_group": "switch group",
}


def _known_ids(cluster, role: str):
    """``(noun, ids the cluster has, how an error lists them)`` for the
    kind of thing a target role names."""
    if role in ("node", "nodes"):
        return "node", cluster.nodes, f"nodes {sorted(cluster.nodes)}"
    if role in ("switch", "switches"):
        n = len(cluster.topology.switches)
        return "switch", range(n), f"switches 0..{n - 1}"
    n = len(cluster.routers)
    return "router", range(n), f"routers 0..{n - 1}"


@dataclass(frozen=True)
class FaultAction:
    """One fault at one instant.

    ``target`` is overloaded by kind — a **node id** for
    crash/recover/link faults, a **switch id** for switch faults, a
    **router index** for router faults (armed against a
    :class:`~repro.routing.RoutedCluster`), and unused (``None``) for
    partition faults, which carry their node and switch sets in
    ``group`` / ``switch_group``; :attr:`FaultKind.signature` is the
    authority.  :meth:`validate` checks the referenced ids against a
    real cluster.
    """

    at_ns: int
    kind: FaultKind
    #: node id (node/link faults) or switch id (switch faults); None for
    #: partition faults
    target: Optional[int] = None
    #: switch id carrying the fibre, for link faults only
    switch: Optional[int] = None
    #: node ids on side A of a partition
    group: Optional[Tuple[int, ...]] = None
    #: switch ids granted to side A of a partition (side B keeps the rest)
    switch_group: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.at_ns < 0:
            raise ValueError("fault time must be non-negative")
        for field_name, _role in self.kind.signature:
            if getattr(self, field_name) in (None, ()):
                raise ValueError(
                    f"{self.kind.value} needs a {_FIELD_NOUN[field_name]}"
                )

    def targets(self) -> tuple:
        """The kind's targets, in its cluster method's argument order."""
        return tuple(getattr(self, f) for f, _role in self.kind.signature)

    def validate(self, cluster: "AmpNetCluster") -> None:
        """Check every referenced id exists; raise FaultScheduleError."""
        where = f"{self.kind.value} at t={self.at_ns}ns"
        for role, value in zip(self.kind.roles, self.targets()):
            if role == "router" and not cluster.routers:
                raise FaultScheduleError(
                    f"{where} needs a routed cluster (this cluster has "
                    "no segment routers)"
                )
            noun, known, shown = _known_ids(cluster, role)
            for one in value if role in ("nodes", "switches") else (value,):
                if one not in known:
                    raise FaultScheduleError(
                        f"{where} references {noun} {one}, but the "
                        f"cluster only has {shown}"
                    )
            if role == "switches" and set(value) >= set(known):
                raise FaultScheduleError(
                    f"{where} grants every switch to side A; side B "
                    "would have no fabric at all"
                )

    def apply(self, cluster: "AmpNetCluster") -> None:
        getattr(cluster, self.kind.value)(*self.targets())


@dataclass
class FaultSchedule:
    """A reproducible failure scenario."""

    actions: List[FaultAction] = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)

    def add(self, action: FaultAction) -> "FaultSchedule":
        self.actions.append(action)
        return self

    def cut_link(self, at_ns: int, node: int, switch: int) -> "FaultSchedule":
        return self.add(FaultAction(at_ns, FaultKind.CUT_LINK, node, switch))

    def restore_link(self, at_ns: int, node: int, switch: int) -> "FaultSchedule":
        return self.add(FaultAction(at_ns, FaultKind.RESTORE_LINK, node, switch))

    def fail_switch(self, at_ns: int, switch: int) -> "FaultSchedule":
        return self.add(FaultAction(at_ns, FaultKind.FAIL_SWITCH, switch))

    def repair_switch(self, at_ns: int, switch: int) -> "FaultSchedule":
        return self.add(FaultAction(at_ns, FaultKind.REPAIR_SWITCH, switch))

    def crash_node(self, at_ns: int, node: int) -> "FaultSchedule":
        return self.add(FaultAction(at_ns, FaultKind.CRASH_NODE, node))

    def recover_node(self, at_ns: int, node: int) -> "FaultSchedule":
        return self.add(FaultAction(at_ns, FaultKind.RECOVER_NODE, node))

    def crash_router(self, at_ns: int, router: int) -> "FaultSchedule":
        """Power-fail a segment router (routed clusters only): its state
        and gateway nodes die; redundant routers take over."""
        return self.add(FaultAction(at_ns, FaultKind.CRASH_ROUTER, router))

    def recover_router(self, at_ns: int, router: int) -> "FaultSchedule":
        return self.add(FaultAction(at_ns, FaultKind.RECOVER_ROUTER, router))

    # ---------------------------------------------------------------- churn
    def flap_node(
        self,
        at_ns: int,
        node: int,
        flaps: int = 3,
        down_ns: int = 1_000_000,
        up_ns: int = 1_000_000,
    ) -> "FaultSchedule":
        """A flapping node: ``flaps`` crash/recover cycles starting at
        ``at_ns``, each ``down_ns`` dark then ``up_ns`` lit."""
        if flaps < 1:
            raise ValueError("flaps must be >= 1")
        if down_ns <= 0 or up_ns <= 0:
            raise ValueError("flap phases must be positive")
        t = at_ns
        for _ in range(flaps):
            self.crash_node(t, node)
            self.recover_node(t + down_ns, node)
            t += down_ns + up_ns
        return self

    def partition(
        self, at_ns: int, nodes: Tuple[int, ...], switches: Tuple[int, ...]
    ) -> "FaultSchedule":
        """Split the segment: ``nodes`` keep only ``switches``, everyone
        else keeps only the remaining switches."""
        return self.add(
            FaultAction(
                at_ns, FaultKind.PARTITION,
                group=tuple(nodes), switch_group=tuple(switches),
            )
        )

    def heal_partition(
        self, at_ns: int, nodes: Tuple[int, ...], switches: Tuple[int, ...]
    ) -> "FaultSchedule":
        """Undo :meth:`partition` (same arguments restore the same fibres)."""
        return self.add(
            FaultAction(
                at_ns, FaultKind.HEAL_PARTITION,
                group=tuple(nodes), switch_group=tuple(switches),
            )
        )

    # ----------------------------------------------------------------- arm
    def validate(self, cluster: "AmpNetCluster") -> None:
        """Check every action against the cluster; raise on bad targets."""
        for action in self.actions:
            action.validate(cluster)

    def arm(self, cluster: "AmpNetCluster") -> None:
        """Validate, then schedule every action on the cluster's simulator."""
        self.validate(cluster)
        for action in sorted(self.actions, key=lambda a: a.at_ns):
            def fire(a: FaultAction = action) -> None:
                a.apply(cluster)
                self.counters.incr(a.kind.value)
                cluster.tracer.record(
                    cluster.sim.now, "fault", "injector",
                    kind=a.kind.value, target=a.target, switch=a.switch,
                    group=a.group, switch_group=a.switch_group,
                )

            cluster.sim.call_at(action.at_ns, fire)
