"""Cache refresh: how a (re)joining node warms its replica (slide 18).

    "Smart Data Recovery is supported by Cache Refresh...
     New nodes are assimilated with a cache refresh." (slides 2, 18)

Protocol on the REFRESH channel:

1. The joiner broadcasts a refresh-request signal once its ring comes up
   with a cold cache.
2. The *provider* — the lowest-id other roster member — serializes its
   full cache (region table + every written record) and sends it unicast.
3. The joiner installs the snapshot atomically (it is not serving local
   readers yet) and marks itself warm.  Updates broadcast while the
   snapshot was in flight apply on top by last-writer-wins version order,
   so no write is lost during assimilation.
"""

from __future__ import annotations

from typing import Callable, List, Optional, TYPE_CHECKING

from ..micropacket import BROADCAST
from ..rostering import Roster
from ..sim import Counter
from ..transport import Channel

if TYPE_CHECKING:  # pragma: no cover
    from ..node import AmpNode

__all__ = ["RefreshService"]

_OP_REQUEST = 1


class RefreshService:
    """Snapshot-based assimilation for one node's cache replica."""

    def __init__(self, node: "AmpNode"):
        self.node = node
        self.messenger = node.messenger
        self.sim = node.sim
        self.counters = Counter()
        #: a node that has never joined (or re-joined after a crash)
        #: considers its replica cold until a refresh completes
        self.warm = False
        self._requested_for_round: Optional[int] = None
        #: called each time a refresh completes (assimilation, control
        #: groups waiting to take over)
        self.on_warm: List[Callable[[], None]] = []

        self.messenger.on_signal(Channel.REFRESH, self._on_signal)
        self.messenger.on_message(Channel.REFRESH, self._on_snapshot)
        node.ring_up_listeners.append(self._on_ring_up)
        node.crash_listeners.append(self.mark_cold)

    # --------------------------------------------------------------- joiner
    def mark_cold(self) -> None:
        """Called when the node crashes/loses its NIC memory."""
        self.warm = False
        self._requested_for_round = None

    def _on_ring_up(self, roster: Roster) -> None:
        if self.warm:
            return
        if roster.size < 2:
            # Alone and cold: nobody to refresh from.  Stay cold and ask
            # again when a bigger roster forms — declaring an empty
            # replica "warm" would let emptiness propagate later.
            return
        if self._requested_for_round == roster.round_no:
            return
        self._requested_for_round = roster.round_no
        self.counters.incr("refresh_requests")
        self.messenger.signal(
            BROADCAST, bytes([_OP_REQUEST]), Channel.REFRESH
        )

    def _on_snapshot(self, src: int, payload: bytes, channel: int) -> None:
        if self.warm:
            self.counters.incr("redundant_snapshots")
            return
        applied = self.node.cache.apply_snapshot(payload)
        self.warm = True
        self.counters.incr("snapshots_received")
        self.counters.incr("records_refreshed", applied)
        self.node.tracer.record(
            self.sim.now, "cache_refreshed", f"refresh-{self.node.node_id}",
            provider=src, records=applied, bytes=len(payload),
        )
        for fn in self.on_warm:
            fn()

    # ------------------------------------------------------------- provider
    def _on_signal(self, src: int, payload: bytes) -> None:
        if src == self.node.node_id or payload[0] != _OP_REQUEST:
            return
        if not self.warm:
            return  # cold replicas must not propagate emptiness
        roster = self.node.roster
        if roster is None or src not in roster.members:
            return
        # Deterministic provider: lowest-id warm member other than the
        # requester.  Everyone can evaluate "lowest-id member"; cold
        # members simply declined above, and the common case (one joiner
        # into a warm ring) picks exactly one provider.
        others = [m for m in roster.members if m != src]
        if not others or self.node.node_id != min(others):
            return
        snapshot = self.node.cache.snapshot()
        self.counters.incr("snapshots_served")
        self.messenger.send(src, snapshot, Channel.REFRESH)
