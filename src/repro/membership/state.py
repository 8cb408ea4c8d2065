"""Peer state model: the join-semilattice gossip converges on.

Every node keeps a :class:`PeerView` — its current belief about every
cluster member.  Beliefs are exchanged as flat digests and combined with
:func:`merge_states`, which is a *join* over a total order on
``(incarnation, dead?, heartbeat, status severity)``:

* a higher **incarnation** supersedes everything said about the previous
  one (only the subject node itself ever bumps its incarnation — that is
  the SWIM refutation mechanism);
* within one incarnation, **DEAD is final**: no heartbeat can resurrect a
  peer once some observer declared it dead — rejoining requires a fresh
  incarnation;
* otherwise the higher **heartbeat sequence** wins (the subject is
  provably more recently alive);
* at equal heartbeats the *more severe* status wins, so a suspicion is
  never lost in transit.

Because the merge is the max of a total order it is commutative,
associative and idempotent — gossip may deliver digests late, twice, or
in any interleaving and every node still converges to the same view
(``tests/property/test_membership_invariants.py`` machine-checks this).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import IntEnum
from typing import Dict, List, Optional, Tuple

__all__ = [
    "PeerStatus",
    "PeerState",
    "PeerView",
    "merge_states",
    "state_key",
]


class PeerStatus(IntEnum):
    """Liveness verdict, ordered by severity."""

    ALIVE = 0
    SUSPECT = 1
    DEAD = 2


@dataclass(frozen=True)
class PeerState:
    """One node's claim about one peer (the unit gossip exchanges)."""

    node_id: int
    incarnation: int
    heartbeat: int
    status: PeerStatus = PeerStatus.ALIVE

    def __post_init__(self) -> None:
        if not 0 <= self.node_id <= 0xFE:
            raise ValueError(f"node id {self.node_id} out of range 0..254")
        if self.incarnation < 0 or self.heartbeat < 0:
            raise ValueError("incarnation and heartbeat must be non-negative")


def state_key(state: PeerState) -> Tuple[int, int, int, int]:
    """Total-order key whose max is the merge result (see module doc)."""
    return (
        state.incarnation,
        1 if state.status == PeerStatus.DEAD else 0,
        state.heartbeat,
        int(state.status),
    )


def merge_states(a: PeerState, b: PeerState) -> PeerState:
    """Join two claims about the *same* peer (commutative/idempotent)."""
    if a.node_id != b.node_id:
        raise ValueError(f"merge across peers {a.node_id} != {b.node_id}")
    return a if state_key(a) >= state_key(b) else b


class PeerView:
    """A node's membership table plus local freshness bookkeeping.

    The gossiped truth lives in ``self.states``; ``heartbeat_seen_at`` and
    ``status_since`` are *local* observations (when did *this* node last
    see the peer's heartbeat advance / its status change) used by the
    failure detector's timeouts.  They deliberately stay out of the merge
    so the merge remains order-independent.
    """

    def __init__(self, owner_id: int):
        self.owner_id = owner_id
        self.states: Dict[int, PeerState] = {}
        #: local time when the peer's heartbeat last advanced
        self.heartbeat_seen_at: Dict[int, int] = {}
        #: local time when the peer's status last changed
        self.status_since: Dict[int, int] = {}

    # ------------------------------------------------------------- queries
    def get(self, node_id: int) -> Optional[PeerState]:
        return self.states.get(node_id)

    def ids(self) -> List[int]:
        return sorted(self.states)

    def ids_with_status(self, status: PeerStatus) -> List[int]:
        return sorted(n for n, s in self.states.items() if s.status == status)

    def alive_ids(self) -> List[int]:
        return self.ids_with_status(PeerStatus.ALIVE)

    def dead_ids(self) -> List[int]:
        return self.ids_with_status(PeerStatus.DEAD)

    def considers_live(self, node_id: int) -> bool:
        """Liveness verdict for the roster layer: only DEAD is disqualifying."""
        state = self.states.get(node_id)
        return state is None or state.status != PeerStatus.DEAD

    def digest(self) -> List[PeerState]:
        """Flat snapshot in node-id order (what push gossip sends)."""
        return [self.states[n] for n in sorted(self.states)]

    # -------------------------------------------------------------- update
    def apply(self, incoming: PeerState, now: int) -> Optional[Tuple[PeerState, PeerState]]:
        """Merge one claim; returns ``(old, new)`` when the entry changed.

        ``old`` is None-safe: a first sighting reports ``(incoming, incoming)``
        only through the returned new value — callers get ``(None, new)``.
        """
        current = self.states.get(incoming.node_id)
        if current is None:
            self.states[incoming.node_id] = incoming
            self.heartbeat_seen_at[incoming.node_id] = now
            self.status_since[incoming.node_id] = now
            return (None, incoming)  # type: ignore[return-value]
        merged = merge_states(current, incoming)
        if merged == current:
            return None
        self.states[incoming.node_id] = merged
        if (merged.incarnation, merged.heartbeat) > (current.incarnation, current.heartbeat):
            self.heartbeat_seen_at[incoming.node_id] = now
        if merged.status != current.status or merged.incarnation != current.incarnation:
            self.status_since[incoming.node_id] = now
        return (current, merged)

    def override(self, state: PeerState, now: int) -> None:
        """Install a claim unconditionally (own-entry bumps, local verdicts).

        Only used for entries this node is *authoritative* about under the
        SWIM rules: its own row, and local detector verdicts that move
        strictly up the semilattice.
        """
        self.states[state.node_id] = state
        self.heartbeat_seen_at.setdefault(state.node_id, now)
        self.status_since[state.node_id] = now

    def suspect(self, node_id: int, now: int) -> Optional[PeerState]:
        """Locally raise ALIVE -> SUSPECT; returns the new state if raised."""
        current = self.states.get(node_id)
        if current is None or current.status != PeerStatus.ALIVE:
            return None
        raised = replace(current, status=PeerStatus.SUSPECT)
        self.states[node_id] = raised
        self.status_since[node_id] = now
        return raised

    def declare_dead(self, node_id: int, now: int) -> Optional[PeerState]:
        """Locally raise to DEAD (final for this incarnation)."""
        current = self.states.get(node_id)
        if current is None or current.status == PeerStatus.DEAD:
            return None
        dead = replace(current, status=PeerStatus.DEAD)
        self.states[node_id] = dead
        self.status_since[node_id] = now
        return dead

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        rows = ", ".join(
            f"{n}:{s.status.name[0]}i{s.incarnation}h{s.heartbeat}"
            for n, s in sorted(self.states.items())
        )
        return f"<PeerView of {self.owner_id} [{rows}]>"
