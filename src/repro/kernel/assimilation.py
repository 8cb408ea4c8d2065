"""Assimilation rules: how nodes are admitted to the network (slide 17).

    "Conforms to assimilation rules before coming online.  Enforces
     version compatibilities across the network.  Enforces the same
     rules for all computers (VxWorks, Linux, Windows 2000, etc.)."

The enforcement point is the rostering master: REPORT cells carry each
candidate's protocol version (see :mod:`repro.rostering.wire`), and the
master excludes reporters below ``rostering.agent.MIN_VERSION`` from the
roster it commits.  This module keeps the bookkeeping a node performs
when it is assimilated (cache refresh hand-off is in
:mod:`repro.netcache.refresh`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..sim import Counter

if TYPE_CHECKING:  # pragma: no cover
    from ..node import AmpNode

__all__ = ["AssimilationTracker"]


class AssimilationTracker:
    """Observes a node's journey from JOIN to warm member.

    Entry is complete when (a) the node appears in an installed roster and
    (b) its cache replica is warm.  The tracker records the wall-clock of
    each stage so bench F8 can report assimilation latency.
    """

    def __init__(self, node: "AmpNode"):
        self.node = node
        self.sim = node.sim
        self.counters = Counter()
        self.join_requested_at = None
        self.roster_joined_at = None
        self.warm_at = None
        node.ring_up_listeners.append(self._on_ring_up)
        node.recover_listeners.append(self.mark_join_request)
        if node.refresh is not None:
            node.refresh.on_warm.append(self._on_warm)

    def mark_join_request(self) -> None:
        self.join_requested_at = self.sim.now
        self.roster_joined_at = None
        self.warm_at = None
        self.counters.incr("join_requests")

    def _on_ring_up(self, roster) -> None:
        if self.roster_joined_at is None and self.node.node_id in roster.members:
            self.roster_joined_at = self.sim.now

    def _on_warm(self) -> None:
        if self.warm_at is None:
            self.warm_at = self.sim.now
            self.counters.incr("assimilated")

    @property
    def assimilation_ns(self):
        """JOIN to warm, or None if not complete."""
        if self.join_requested_at is None or self.warm_at is None:
            return None
        if self.warm_at < self.join_requested_at:
            return None
        return self.warm_at - self.join_requested_at
