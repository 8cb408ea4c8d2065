"""Roster computation: the largest possible logical ring (slide 16).

Given the surviving attachment map (which nodes still have live fibres to
which switches), the master must construct "the largest possible logical
ring".  Because every hop of the ring runs node → switch → node, two
nodes can be ring-adjacent iff they share a live switch — the
reachability graph is a *union of cliques*, one clique per switch.

The search below exploits that structure: a ring is a cyclic *switch
chain* ``s_0, s_1, ... s_{k-1}`` (repeats allowed — a ring may pass
through the same switch twice when it bridges disjoint segments) with
distinct *bridge nodes* ``b_i ∈ members(s_i) ∩ members(s_{i+1})``.  Every
node attached to any chained switch joins the ring inside one of the
chain's segments, so coverage is the size of the union of the chain's
memberships.  We enumerate chains (depth-first with pruning, bounded by
the at-most-four switches of slide 15) and keep the best coverage.

The result is deterministic: ties break toward fewer switches, then
lexicographically smallest chain, so every node that runs the same
computation over the same reports commits the same roster — the paper's
masterless consistency requirement.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

__all__ = ["Roster", "compute_roster", "hop_switches", "RosterError"]


class RosterError(Exception):
    """Roster construction/validation failure."""


@dataclass(frozen=True)
class Roster:
    """An installed logical ring.

    ``members[i]`` sends to ``members[(i+1) % size]`` through switch
    ``hop_switches[i]``.  A singleton roster has no hops.
    """

    round_no: int
    members: Tuple[int, ...]
    hop_switches: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(set(self.members)) != len(self.members):
            raise RosterError("duplicate roster member")
        if len(self.members) >= 2 and len(self.hop_switches) != len(self.members):
            raise RosterError("one hop switch required per member")
        if len(self.members) == 1 and self.hop_switches:
            raise RosterError("singleton roster has no hops")
        if not self.members:
            raise RosterError("empty roster")

    @property
    def size(self) -> int:
        return len(self.members)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self.members

    def index_of(self, node_id: int) -> int:
        try:
            return self.members.index(node_id)
        except ValueError as exc:
            raise RosterError(f"node {node_id} not in roster") from exc

    def hop_switch_from(self, node_id: int) -> int:
        """The switch carrying this node's outgoing hop (= its tx port)."""
        if self.size < 2:
            raise RosterError("singleton roster has no hops")
        return self.hop_switches[self.index_of(node_id)]

    def switch_maps(self) -> Dict[int, Dict[int, int]]:
        """Crossconnect configuration: switch -> {ingress port: egress}.

        Port convention (slide 14 wiring): switch *s*'s port *i* is node
        *i*'s fibre, and node *i*'s port *s* is its fibre to switch *s*.
        """
        maps: Dict[int, Dict[int, int]] = {}
        for i, node in enumerate(self.members):
            if self.size < 2:
                break
            nxt = self.members[(i + 1) % self.size]
            sw = self.hop_switches[i]
            entry = maps.setdefault(sw, {})
            if node in entry:  # pragma: no cover - construction prevents it
                raise RosterError(f"conflicting ring map at switch {sw}")
            entry[node] = nxt
        return maps

    def validate_against(self, attachment: Dict[int, Set[int]]) -> None:
        """Check every hop is physically realizable (test oracle)."""
        for i, node in enumerate(self.members):
            if self.size < 2:
                break
            nxt = self.members[(i + 1) % self.size]
            sw = self.hop_switches[i]
            live = attachment.get(sw, set())
            if node not in live or nxt not in live:
                raise RosterError(
                    f"hop {node}->{nxt} via switch {sw} is not live"
                )


def _chain_coverage(
    chain: Sequence[int], attachment: Dict[int, Set[int]]
) -> Set[int]:
    covered: Set[int] = set()
    for sw in chain:
        covered |= attachment[sw]
    return covered


def _assign_bridges(
    chain: Sequence[int], attachment: Dict[int, Set[int]]
) -> Optional[List[int]]:
    """Pick distinct bridge nodes b_i in s_i ∩ s_{i+1}, or None.

    Backtracking over the (tiny) intersection sets, preferring low node
    ids for determinism.
    """
    k = len(chain)
    options: List[List[int]] = []
    for i in range(k):
        inter = attachment[chain[i]] & attachment[chain[(i + 1) % k]]
        if not inter:
            return None
        options.append(sorted(inter))

    chosen: List[int] = []
    used: Set[int] = set()

    def backtrack(i: int) -> bool:
        if i == k:
            return True
        for cand in options[i]:
            if cand in used:
                continue
            used.add(cand)
            chosen.append(cand)
            if backtrack(i + 1):
                return True
            used.discard(cand)
            chosen.pop()
        return False

    return chosen if backtrack(0) else None


def _build_ring(
    chain: Sequence[int],
    bridges: Sequence[int],
    attachment: Dict[int, Set[int]],
) -> Tuple[int, ...]:
    """Lay out the members of a bridged switch chain in ring order.

    Segment *i* consists of nodes assigned to switch ``chain[i]`` ending
    with bridge ``bridges[i]``, whose hop into the next segment travels
    via ``chain[i+1]``.
    """
    assigned: Set[int] = set(bridges)
    members: List[int] = []
    for i, sw in enumerate(chain):
        seg = [n for n in sorted(attachment[sw]) if n not in assigned]
        assigned |= set(seg)
        members += seg
        members.append(bridges[i])
    return tuple(members)


def compute_roster(attachment: Dict[int, Set[int]]) -> Optional[Tuple[int, ...]]:
    """The members of the largest constructible logical ring, in ring
    order.

    ``attachment`` is switch id -> set of node ids with live fibres to
    that switch (as collected from REPORT cells).  Consecutive members
    always share a live switch; which one each hop crosses is
    :func:`hop_switches`' rule, the one every member derives too.

    Switch chains are bounded at ``2 * live switches`` long, enough to
    bridge any union-of-cliques arrangement of at most four switches.

    Returns None when no node is attached to anything.
    """
    live = {sw: set(nodes) for sw, nodes in attachment.items() if nodes}
    if not live:
        return None
    all_nodes: Set[int] = set()
    for nodes in live.values():
        all_nodes |= nodes

    # Singleton degenerate ring (a lone survivor keeps its cache warm).
    if len(all_nodes) == 1:
        return (next(iter(all_nodes)),)

    switch_ids = sorted(live)
    cap = 2 * len(switch_ids)

    best: Optional[Tuple[int, int, Tuple[int, ...], List[int]]] = None

    # Single-switch rings first (the common, fastest case).
    for sw in switch_ids:
        if len(live[sw]) >= 2:
            cov = len(live[sw])
            cand = (-cov, 1, (sw,), [])
            if best is None or cand < best:
                best = cand

    # Multi-switch chains, shortest first so ties prefer fewer switches.
    def chains(prefix: List[int], depth: int):
        if 2 <= len(prefix) <= cap:
            yield list(prefix)
        if depth == cap:
            return
        for sw in switch_ids:
            if prefix and sw == prefix[-1]:
                continue  # consecutive repeats are pointless
            prefix.append(sw)
            yield from chains(prefix, depth + 1)
            prefix.pop()

    full_cover = len(all_nodes)
    for chain in sorted(chains([], 0), key=lambda c: (len(c), c)):
        if best is not None and -best[0] == full_cover and len(chain) >= best[1]:
            break  # cannot beat a full-coverage shorter chain
        cov_set = _chain_coverage(chain, live)
        cov = len(cov_set)
        if best is not None and (-cov, len(chain)) >= (best[0], best[1]):
            continue
        bridges = _assign_bridges(chain, live)
        if bridges is None:
            continue
        cand = (-cov, len(chain), tuple(chain), bridges)
        if best is None or cand < best:
            best = cand

    if best is None:
        # No switch with >= 2 nodes and no bridgeable chain: fall back to
        # the largest clique even if it is a single node.
        return (min(all_nodes),)

    _negcov, _k, chain, bridges = best
    if not bridges:  # single-switch ring
        return tuple(sorted(live[chain[0]]))
    return _build_ring(chain, bridges, live)


def hop_switches(
    members: Sequence[int], live_ports: Dict[int, int]
) -> Optional[Tuple[int, ...]]:
    """The switch each hop of the ring ``members`` crosses: the
    lowest-numbered one both of its ends reported a live port to.

    ``live_ports`` is a round's reports as node -> live-port bitmap.
    This is the rule the master configures the switches by and every
    member derives its tx port by, from the same reports.  None when
    some hop has no common live switch: a report has not arrived.
    """
    if len(members) == 1:
        return ()
    hops = []
    for i, node in enumerate(members):
        nxt = members[(i + 1) % len(members)]
        common = live_ports.get(node, 0) & live_ports.get(nxt, 0)
        if not common:
            return None
        hops.append((common & -common).bit_length() - 1)
    return tuple(hops)
