"""One router port: the egress side of a segment attachment.

A port is a gateway node — a full ring member with its own MAC and
messenger — plus the bounded egress queue ferried crossings wait in.
Backpressure reuses the ring's own flow control
(:class:`~repro.ring.flow_control.InsertionController`): a bounded
window of unconfirmed re-originations, and a pacing gap that backs off
multiplicatively as the queue deepens — the slide-8 mechanism, applied
one layer up.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, TYPE_CHECKING

from ..micropacket import BROADCAST
from ..resilience import PortResilience
from ..ring import FlowControlConfig
from ..ring.flow_control import InsertionController
from ..transport import GlobalAddress
from .election import PeerClaim, PortRole

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster import AmpNetCluster
    from ..node import AmpNode
    from .router import SegmentRouter

__all__ = ["Crossing", "RouterPort"]


@dataclass
class Crossing:
    """One reassembled message on its way through the router."""

    origin: GlobalAddress
    dst: GlobalAddress
    payload: bytes
    channel: int
    #: the origin messenger's transfer id, preserved end to end so every
    #: hop (and the final destination) can dedup replays of this message
    tid: int = 0
    #: segment the crossing was captured on (also the bulkhead's
    #: compartment key)
    ingress: int = -1
    #: this crossing has parked at least once (first park and re-parks
    #: are counted separately; see RouterPort.pump)
    parked: bool = False
    #: cluster-scoped broadcast: re-originated via
    #: ``send_cluster_broadcast``; ``dst`` is ``(segment, BROADCAST)``
    #: for queue bookkeeping only
    cluster_scope: bool = False


class RouterPort:
    """The router's attachment to one segment."""

    def __init__(
        self,
        router: "SegmentRouter",
        segment_id: int,
        cluster: "AmpNetCluster",
        gateway: "AmpNode",
    ):
        self.router = router
        self.segment_id = segment_id
        self.cluster = cluster
        self.gateway = gateway
        #: crossings whose destination is not currently rostered, keyed
        #: by destination so they never stall the live queue behind them
        self.parked: Dict[GlobalAddress, List[Crossing]] = {}
        #: peer routers heard on this segment: router id -> last claim
        self.peers: Dict[int, PeerClaim] = {}
        # Egress pacing: the ring's own insertion-control algebra, fed
        # with the egress queue depth instead of a transit buffer.
        self.controller = self._make_controller()
        #: when the pending pump wake fires; None = no wake armed
        self._pump_timer_due: Optional[int] = None
        #: next instant the parked side list is worth re-polling; keeps
        #: pacing-cadence wakes from churning the parked set
        self._parked_retry_at = 0
        #: the resilience patterns; None (every pattern off) leaves the
        #: pre-pattern timeline untouched
        self.resilience: Optional[PortResilience] = (
            PortResilience(self, router.res) if router.res.any_enabled
            else None
        )
        res = self.resilience
        self.queue = (
            deque() if res is None or res.bulkhead is None else res.bulkhead
        )

    @property
    def role(self) -> PortRole:
        """Spanning-tree verdict (single-router clusters stay forwarding)."""
        return self.router.election.role(self.segment_id)

    @property
    def designated(self) -> bool:
        return self.router.election.designated[self.segment_id]

    def _make_controller(self) -> InsertionController:
        cfg = self.router.config
        controller = InsertionController(
            FlowControlConfig(
                transit_capacity=cfg.egress_capacity,
                window_override=cfg.egress_window,
                hi_watermark=max(2, cfg.egress_capacity // 4),
            )
        )
        controller.ring_installed(2)  # window comes from the override
        return controller

    # ------------------------------------------------------------- egress
    def enqueue(self, crossing: Crossing) -> bool:
        """Queue a crossing for re-origination; False when full (drop).

        Parked crossings count against the capacity too: a partition
        must exert backpressure, not grow an unbounded side list.
        """
        if self.backlog >= self.router.config.egress_capacity:
            return False
        res = self.resilience
        if res is not None and not res.accepts(crossing):
            return False
        self.queue.append(crossing)
        self.controller.observe_transit_depth(len(self.queue))
        self.pump()
        return True

    def pump(self) -> None:
        """Drain as much of the queue as window + pacing allow.

        A crossing whose *final* destination is not currently rostered
        on this segment is moved to the ``parked`` side list (keyed by
        destination): re-originating it would complete a tour of a ring
        the destination is not on, and tour-as-ack would then count an
        undelivered message as done.  Parking it *aside* — rather than
        at the queue head — keeps later crossings to live destinations
        flowing.  Parked traffic re-queues when the destination
        re-rosters (ring-up hook) or on the retry timer.

        The first park of a crossing and its re-parks on later retry
        polls are distinct events (``egress_parked`` vs
        ``egress_reparked``): one crossing to a long-dead destination
        counts as one parked crossing, however many retry cycles it
        survives.
        """
        router = self.router
        if router.failed:
            return
        now = router.sim.now
        controller = self.controller
        counters = router.counters
        res = self.resilience
        queue = self.queue
        messenger = self.gateway.messenger
        own = (self.segment_id, self.gateway.node_id)
        while queue and controller.may_insert(now):
            crossing = queue.popleft()
            if crossing.dst == own:
                # The gateway is this port, not a host: a frame to its
                # own MAC id is source-stripped, never delivered.
                counters.incr("gateway_addressed_drop")
                router.trace("gateway_addressed", dst=crossing.dst,
                             ingress=crossing.ingress)
                continue
            deliverable = self._deliverable(crossing)
            if res is not None and res.intercepts(crossing, deliverable, now):
                continue  # failed fast into the dead-letter channel
            if not deliverable:
                self.parked.setdefault(crossing.dst, []).append(crossing)
                if crossing.parked:
                    counters.incr("egress_reparked")
                else:
                    crossing.parked = True
                    counters.incr("egress_parked")
                continue
            controller.inserted(now)
            ferried = dict(origin=crossing.origin, wire_tid=crossing.tid)
            if crossing.cluster_scope:
                handle = messenger.send_cluster_broadcast(
                    crossing.payload, crossing.channel, **ferried)
            else:
                handle = messenger.send_global(
                    crossing.dst, crossing.payload, crossing.channel, **ferried)
            handle.delivered.callbacks.append(self._confirmed)
            counters.incr("egress_tx")
        depth = len(queue)
        controller.observe_transit_depth(depth)
        wake_at = controller.earliest_insert()
        delay: Optional[int] = None
        if depth and wake_at > now and not controller.window_full():
            # Pacing gap: wake when it ends (confirm callbacks cover
            # the window-full case).
            delay = wake_at - now
        if self.parked:
            # Destination unreachable right now: poll a few tours out
            # (the ring-up listener usually wakes the queue sooner).
            # Never later than a pending pacing wake — one parked
            # crossing must not throttle the live queue to the retry
            # cadence — but the poll itself keeps its own deadline,
            # so pacing-cadence wakes do not churn the parked set.
            if self._parked_retry_at <= now:
                self._parked_retry_at = now + self.retry_ns
            parked_delay = self._parked_retry_at - now
            delay = (parked_delay if delay is None
                     else min(delay, parked_delay))
        if delay is not None:
            # Arm, or re-arm when the needed wake is *earlier* than the
            # pending one: a live crossing enqueued behind a pacing gap
            # must not wait out a long parked-retry timer (the stale
            # later timer fires into an idempotent pump).
            delay = max(delay, 1)
            due = self._pump_timer_due
            if due is None or now + delay < due:
                self._pump_timer_due = now + delay
                router.sim.call_in(delay, self._pump_timer)

    def _deliverable(self, crossing: Crossing) -> bool:
        if crossing.dst[0] != self.segment_id:
            return True  # bound for a next-hop router, not a ring member
        dst_node = crossing.dst[1]
        if dst_node == BROADCAST:
            return True
        roster = self.gateway.roster
        return roster is not None and dst_node in roster.members

    def requeue_parked(self) -> None:
        """Re-offer every parked crossing to the queue (roster change or
        retry poll); still-dead destinations simply park again."""
        parked, self.parked = self.parked, {}
        for crossings in parked.values():
            self.queue.extend(crossings)

    def ring_up(self) -> None:
        """A new roster may restore a parked crossing's destination."""
        self.requeue_parked()
        self._retry()

    @property
    def retry_ns(self) -> int:
        return max(10 * self.cluster.tour_estimate_ns, 50_000)

    def _pump_timer(self) -> None:
        self._pump_timer_due = None
        if self.router.failed:
            return
        if self.router.sim.now >= self._parked_retry_at:
            self.requeue_parked()
        self._retry()

    def _retry(self) -> None:
        if self.resilience is not None:
            self.resilience.probe()
        self.pump()

    def _confirmed(self, _event) -> None:
        self.controller.tour_completed()
        self.pump()

    def reset(self) -> None:
        """Cold restart after a router recovery.

        The insertion controller may have died window-full (its
        unconfirmed sends' callbacks went down with the gateway) and a
        pump timer may have fired into the ``failed`` early return — all
        of it is NIC state, so all of it resets.  Without this, a
        recovered router whose controller still counts crashed-era sends
        as outstanding would never pump again.
        """
        self.controller = self._make_controller()
        self._pump_timer_due = None
        self._parked_retry_at = 0
        if self.resilience is not None:
            self.resilience.reset()

    # ------------------------------------------------------------ queries
    @property
    def parked_count(self) -> int:
        return sum(len(c) for c in self.parked.values())

    @property
    def backlog(self) -> int:
        return len(self.queue) + self.parked_count
