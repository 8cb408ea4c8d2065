"""Spanning-tree election: a pure function of the claims heard.

Classic STP with segments as LANs and routers as bridges.  Every ad
carries the sender's bridge id ``(priority, router_id)`` (lower wins),
the root it believes in, its cost to that root and the claim's age.
From the claims heard per attached segment a router elects the lowest
root heard anywhere, takes the cheapest port towards it as its root
port, and is *designated* on every segment where no peer offers a
better ``(cost, bridge id)`` path to the same root.  Ports that are
neither root port nor designated are blocked.

Time enters only through ``now`` and the advertise periods, always in
real nanoseconds against the *slower* of the two cadences involved:
routers bridging different-sized rings advertise at different rates and
must not declare each other dead or ghost.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Mapping, Optional, Tuple

from .ads import AGE_UNIT_NS

__all__ = ["Election", "PeerClaim", "PortRole", "elect", "silent_peers"]

BridgeId = Tuple[int, int]

#: Advertise periods a *root claim* may age before it is discarded
#: (classic STP Max Age).  Peer expiry handles a dead neighbour; this
#: bound handles a dead root two-plus hops of routers away, whose stale
#: claim surviving routers would otherwise echo to each other forever.
#: Ads carry the claim's age and it keeps growing while it is only
#: being relayed, so the ghost dies within the bound and the election
#: falls back to the live bridges.
MAX_ROOT_AGE_PERIODS = 8


class PortRole(Enum):
    """Spanning-tree verdict for one router port."""

    FORWARDING = "forwarding"
    BLOCKED = "blocked"


@dataclass(frozen=True)
class PeerClaim:
    """What another router last advertised on one of our segments."""

    priority: int
    root: BridgeId
    cost: int                 # the peer's advertised cost to that root
    period_ns: int            # the peer's own advertise period
    root_age_ns: int          # claimed age of its root info
    last_heard: int


@dataclass(frozen=True)
class Election:
    """The outcome of :func:`elect`."""

    root: BridgeId
    root_cost: int
    root_port: Optional[int]
    #: provenance of the adopted claim (its claimed age, and when the
    #: backing ad arrived) — what our own ads age onward
    offer_age_ns: int
    offer_heard_at: int
    #: segment -> are we the designated router there
    designated: Dict[int, bool]

    @classmethod
    def self_rooted(cls, bid: BridgeId, segments) -> "Election":
        """No claims heard: we are the root, designated everywhere."""
        return cls(bid, 0, None, 0, 0, dict.fromkeys(segments, True))

    def role(self, segment: int) -> PortRole:
        if self.designated[segment] or segment == self.root_port:
            return PortRole.FORWARDING
        return PortRole.BLOCKED

    def advertised_root_age_ns(self, now: int) -> int:
        """The root age to put in our own ads: 0 when we *are* the root,
        else the adopted claim's age plus the time it has sat here
        un-refreshed, plus one wire unit per relay hop so a chain of
        instant relays still ages monotonically."""
        if self.root_port is None:
            return 0
        return self.offer_age_ns + (now - self.offer_heard_at) + AGE_UNIT_NS


def elect(
    bid: BridgeId,
    peers: Mapping[int, Mapping[int, PeerClaim]],
    now: int,
    period_ns: int,
) -> Election:
    """Elect root, root port and per-segment designation for bridge
    ``bid`` from ``peers`` (attached segment -> router id -> claim).

    Root claims older than ``MAX_ROOT_AGE_PERIODS`` (STP Max Age) are
    ignored: survivors of a dead root would otherwise relay its claim
    to each other forever, each refresh keeping the ghost alive.  The
    carried age only resets at the root itself, so a dead root's claim
    ages out everywhere and the election falls back to live bridges.
    """
    valid: Dict[int, List[Tuple[int, BridgeId, PeerClaim]]] = {}
    for seg, claims in peers.items():
        valid[seg] = [
            (claim.cost, (claim.priority, rid), claim)
            for rid, claim in claims.items()
            if claim.root_age_ns + (now - claim.last_heard)
            <= MAX_ROOT_AGE_PERIODS * max(period_ns, claim.period_ns)
        ]
    root = min(
        [bid] + [c.root for offers in valid.values() for _, _, c in offers]
    )
    if root == bid:
        cost, root_port, age, heard = 0, None, 0, 0
    else:
        cost, _peer, root_port, claim = min(
            ((peer_cost + 1, peer_bid, seg, claim)
             for seg, offers in valid.items()
             for peer_cost, peer_bid, claim in offers
             if claim.root == root),
            key=lambda offer: offer[:3],
        )
        age, heard = claim.root_age_ns, claim.last_heard
    designated = {
        seg: all(
            (cost, bid) <= (peer_cost, peer_bid)
            for peer_cost, peer_bid, claim in offers
            if claim.root == root
        )
        for seg, offers in valid.items()
    }
    return Election(root, cost, root_port, age, heard, designated)


def silent_peers(
    peers: Mapping[int, Mapping[int, PeerClaim]],
    now: int,
    period_ns: int,
    miss_deadline_periods: int,
) -> List[Tuple[int, int]]:
    """``(segment, router id)`` of every peer silent past the miss
    deadline — the failover trigger, on blocked ports as much as
    forwarding ones."""
    return [
        (seg, rid)
        for seg, claims in peers.items()
        for rid, claim in claims.items()
        if now - claim.last_heard
        > miss_deadline_periods * max(period_ns, claim.period_ns)
    ]
