"""The segment router: a store-and-forward bridge between ring segments.

One :class:`SegmentRouter` owns one :class:`~.port.RouterPort` (a
gateway node plus a paced egress queue) per attached segment::

    ring A frame, dst_segment=B          ring B
    ------------------------+      +------------------>
        gateway MAC capture |      | gateway messenger
        (frame keeps        |      | re-originates with
         touring ring A)    v      | the origin address
              reassemble fragments | preserved in the
              table lookup         | header extension
              role gate            |
              egress queue --------+

What the router *decides* lives elsewhere: :mod:`.ads` (ad wire
format), :mod:`.election` (spanning tree), :mod:`.table` (routes and
summaries), :mod:`repro.resilience.port` (optional patterns).  This
module is what touches the simulator: capture and reassembly (the frame
still tours back to its inserter, so tour-as-ack holds per segment);
forwarding, with the origin's ``(segment, node, transfer id)`` carried
end to end so every hop dedups replays; the *shadow ledger* — crossings
a blocked port captures, or that have no route yet, held bounded and
TTL'd until failover or a learned route promotes them; cluster-scoped
broadcast fan-out over the forwarding ports; and the advertise tick
(expire peers, routes, shadows; advertise — also out of cycle after any
role change).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Deque, Dict, Iterable, List, Optional, Set, Tuple, TYPE_CHECKING

from ..caching import CacheConfig, OnPathCache
from ..membership import PeerStatus
from ..micropacket import BROADCAST, MicroPacket
from ..resilience import DeadLetterChannel, ResilienceConfig
from ..sim import Counter
from ..transport import Channel, GlobalAddress, TransferTable
from .ads import AdDecodeError, Advertisement, Entry, decode, encode
from .election import (
    MAX_ROOT_AGE_PERIODS, Election, PeerClaim, PortRole, elect, silent_peers,
)
from .port import Crossing, RouterPort
from .table import NOT_OURS, Change, RouteTable

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster import AmpNetCluster

__all__ = ["PortRole", "RouterConfig", "SegmentRouter"]

#: table-change kind -> counter prefix (``routes_learned``, ...)
_PLURAL = {"route": "routes", "summary": "summaries"}


@dataclass(frozen=True)
class RouterConfig:
    """One router and the segments it joins: the one description a
    :class:`~repro.routing.TopologySpec` holds, a scenario serialises
    and a :class:`SegmentRouter` runs from.

    Field order is the serialised order (``ScenarioSpec.to_dict``).
    """

    #: segment ids this router holds a port on (>= 2, distinct)
    segments: Tuple[int, ...]
    #: bounded egress queue depth per port, in messages
    egress_capacity: int = 64
    #: max unconfirmed re-originations in flight per port
    egress_window: int = 4
    #: spanning-tree election priority (lower wins; ties broken by
    #: router id).  On redundant shapes — several routers joining the
    #: same segments — it decides deterministically which router
    #: forwards and which stands by blocked.
    priority: int = 128
    #: resilience-pattern suite (circuit breaker, dead-letter,
    #: throttling, bulkhead); None = every pattern off — the exact
    #: pre-resilience wire behaviour
    resilience: Optional[ResilienceConfig] = None
    #: on-path content cache (see :class:`repro.caching.CacheConfig`);
    #: None (or enabled=False) = tap absent, bit-identical forwarding
    cache: Optional[CacheConfig] = None
    #: routing area this router belongs to.  0 (the default) is the
    #: flat single-area mode: ads keep the v2 wire format byte for
    #: byte.  Meshes labelled with areas 1..255 advertise v3 ads with
    #: per-area segment-range summaries instead of one row per remote
    #: segment (see the module docstring).
    area: int = 0
    #: route/liveness advertisement period in *tours* of the largest
    #: attached segment; None = 50 tours, at least 200 us.  Large meshes
    #: set a small value here so DV/summary convergence does not
    #: dominate the simulated span.
    advertise_period_tours: Optional[float] = None
    #: advertise periods a peer router (or learned route) may stay
    #: silent before it is declared dead and withdrawn
    miss_deadline_periods: int = 3
    #: shadow-parking buffer depth; None = 4x egress_capacity
    shadow_capacity: Optional[int] = None
    #: advertise periods a shadow-parked crossing is retained, covering
    #: the failure-detection window with margin
    shadow_ttl_periods: int = 12

    def __post_init__(self) -> None:
        segs = tuple(self.segments)
        object.__setattr__(self, "segments", segs)
        if self.resilience is not None and not isinstance(
            self.resilience, ResilienceConfig
        ):
            object.__setattr__(
                self, "resilience", ResilienceConfig(**dict(self.resilience))
            )
        if self.cache is not None and not isinstance(self.cache, CacheConfig):
            object.__setattr__(self, "cache", CacheConfig(**dict(self.cache)))
        if len(segs) < 2:
            raise ValueError("a router joins at least two segments")
        if len(set(segs)) != len(segs):
            raise ValueError("router attached twice to one segment")
        if self.egress_capacity < 1:
            raise ValueError("egress capacity must be >= 1")
        if self.egress_window < 1:
            raise ValueError("egress window must be >= 1")
        if not 0 <= self.priority <= 255:
            raise ValueError("router priority must fit one byte (0..255)")
        if not 0 <= self.area <= 255:
            raise ValueError("router area must fit one byte (0..255)")
        if (self.advertise_period_tours is not None
                and self.advertise_period_tours <= 0):
            raise ValueError("advertise period must be a positive tour count")
        if self.miss_deadline_periods < 1:
            raise ValueError("miss deadline must be >= 1 advertise period")
        if self.miss_deadline_periods >= MAX_ROOT_AGE_PERIODS:
            raise ValueError(
                "miss deadline must stay below the max root age (direct "
                "neighbour death is the peer-expiry path)"
            )
        if self.shadow_capacity is not None and self.shadow_capacity < 1:
            raise ValueError("shadow capacity must be >= 1")
        if self.shadow_ttl_periods < self.miss_deadline_periods:
            raise ValueError(
                "shadow TTL must cover the failure-detection deadline"
            )


@dataclass
class _Shadow:
    """A crossing parked by a blocked port, held for failover."""

    crossing: Crossing
    parked_at: int
    #: this shadow holds the ONLY copy of its crossing (parked because
    #: no route existed yet, not as a failover safety duplicate) — its
    #: eviction or TTL expiry is real data loss and counts as an
    #: unroutable drop
    sole: bool = False


class SegmentRouter:
    """Joins ring segments into one routed cluster (slide 15's "R")."""

    def __init__(self, router_id: int, config: RouterConfig):
        if not 0 <= router_id <= 0xFE:
            # 0xFF in the ad's first byte is the v3 version escape; a
            # router id that packed to it would corrupt v2 parsing.
            raise ValueError(f"router id {router_id} out of range 0..254")
        self.router_id = router_id
        self.config = config
        self.name = f"router-{router_id}"
        self.failed = False
        self.ports: Dict[int, RouterPort] = {}
        #: learned routes and area summaries (attached segments are
        #: implicit metric-0 routes through their port)
        self.table = RouteTable(config.segments, config.area)
        #: spanning-tree state (self-rooted until ads arrive)
        self.election = Election.self_rooted(self.bid, config.segments)
        #: crossings captured while role-blocked, held for failover
        self.shadow: Deque[_Shadow] = deque()
        self.shadow_capacity = (
            config.shadow_capacity if config.shadow_capacity is not None
            else 4 * config.egress_capacity
        )
        self.counters = Counter()
        #: resilience policy (defaults = every pattern off)
        self.res = (config.resilience if config.resilience is not None
                    else ResilienceConfig())
        #: on-path content cache; None keeps the forwarding fast path
        #: branch-free (the tap only exists when explicitly enabled)
        self.cache = (
            OnPathCache(config.cache, self.counters)
            if config.cache is not None and config.cache.enabled
            else None
        )
        #: the router-wide dead-letter ledger: ports fail fast into it,
        #: and with the ``dead_letter`` pattern on, lost shadows are
        #: accounted here; inert until something consumes into it
        self.dead_letter = DeadLetterChannel(
            self.res.dead_letter_capacity, self.counters
        )
        self.sim = None  # bound at first attach
        self.tracer = None
        self._transfers = TransferTable()
        self._started = False
        self._ticking = False
        #: names of the coalesced one-shot timers currently pending
        self._pending: Set[str] = set()

    @property
    def bid(self) -> Tuple[int, int]:
        """This router's bridge id: lower wins the root election."""
        return (self.config.priority, self.router_id)

    @property
    def root(self) -> Tuple[int, int]:
        """The root bridge this router currently believes in."""
        return self.election.root

    def trace(self, event: str, **data) -> None:
        self.tracer.record(self.sim.now, "routing", self.name,
                           event=event, **data)

    # ------------------------------------------------------------- wiring
    def attach(
        self, segment_id: int, cluster: "AmpNetCluster", gateway_id: int
    ) -> RouterPort:
        """Plug a port into ``segment_id`` via member node ``gateway_id``."""
        if self._started:
            raise ValueError("attach before start()")
        if segment_id in self.ports:
            raise ValueError(f"segment {segment_id} already attached")
        if segment_id not in self.config.segments:
            raise ValueError(f"segment {segment_id} not in this router's config")
        self.sim = cluster.sim
        self.tracer = cluster.tracer
        port = RouterPort(self, segment_id, cluster, cluster.nodes[gateway_id])
        self.ports[segment_id] = port
        return port

    def start(self) -> None:
        """Install capture taps and handlers; begin advertising."""
        missing = set(self.config.segments) - set(self.ports)
        if missing:
            raise ValueError(f"unattached segments {sorted(missing)}")
        self._started = True
        for port in self.ports.values():
            gw = port.gateway
            gw.mac.capture = lambda pkt, frame, p=port: self._ingest(p, pkt)
            gw.messenger.on_message(
                Channel.ROUTING,
                lambda src, payload, channel, p=port:
                    self._on_advertisement(p, payload),
            )
            # A new roster may restore a parked crossing's destination.
            gw.ring_up_listeners.append(lambda roster, p=port: p.ring_up())
            if gw.membership is not None:
                # The verdict itself lives in the gateway's view;
                # counting it keeps an auditable record of gossip
                # feeding the router.
                gw.membership.transition_listeners.append(
                    lambda state: self.counters.incr("gossip_transitions_seen")
                )
        self._ticking = True
        self.sim.call_in(self.advertise_period_ns, self._advertise_tick)
        self.trace("start", ports=tuple(sorted(self.ports)))

    @property
    def advertise_period_ns(self) -> int:
        tour = max(p.cluster.tour_estimate_ns for p in self.ports.values())
        if self.config.advertise_period_tours is not None:
            return max(int(self.config.advertise_period_tours * tour), 1)
        return max(50 * tour, 200_000)

    # ---------------------------------------------------------- lifecycle
    def crash(self) -> None:
        """Router power failure: queues and shadow are NIC memory, lost.

        The gateway nodes are crashed separately by
        :meth:`~repro.routing.RoutedCluster.crash_router`; the redundant
        router's shadow buffer is what keeps the queued crossings from
        being end-to-end lost.
        """
        if self.failed:
            return
        self.failed = True
        ports = self.ports.values()
        queued = sum(p.backlog for p in ports)
        self.counters.incr("crash_lost_queued", queued)
        fragments = sum(
            p.resilience.drop_deferred() for p in ports
            if p.resilience is not None
        )
        if fragments:
            self.counters.incr("crash_lost_fragments", fragments)
        for port in ports:
            port.queue.clear()
            port.parked.clear()
        self.shadow.clear()
        lost_letters = self.dead_letter.clear()
        if lost_letters:
            self.counters.incr("crash_lost_dead_letters", lost_letters)
        self.trace("router_crash", queued_lost=queued)

    def recover(self) -> None:
        """Power back on with cold state; ads rebuild roles and routes
        (port-side pump state resets too — see :meth:`RouterPort.reset`)."""
        if not self.failed:
            return
        self.failed = False
        self.table.clear()
        for port in self.ports.values():
            port.peers.clear()
            port.reset()
        self._recompute_roles()
        if not self._ticking:
            self._ticking = True
            self.sim.call_in(self.advertise_period_ns, self._advertise_tick)
        self._schedule_readvertise()
        self.trace("router_recover")

    # ----------------------------------------------------------- liveness
    def live_in_segment(self, segment_id: int) -> Set[int]:
        """Live node ids behind ``segment_id`` as this router knows them.

        Attached segments answer from the gateway's gossip view (or the
        roster when the cluster runs no membership); remote segments
        answer from the last advertisement that crossed the router.
        """
        port = self.ports.get(segment_id)
        if port is None:
            route = self.table.routes.get(segment_id)
            if route is None:
                return set()
            if route.live is None:
                # Elided live list on the last ad: the advertiser's ring
                # was past the wire cap, so answer "everything" — node
                # ids are 8-bit, and reachability gating must not deny a
                # node the advertiser simply could not enumerate.
                return set(range(256))
            return set(route.live)
        gw = port.gateway
        if gw.membership is not None:
            return {
                nid for nid, st in gw.membership.view.states.items()
                if st.status != PeerStatus.DEAD
            }
        roster = port.cluster.current_roster()
        return set(roster.members) if roster is not None else set()

    def considers_live(self, addr: GlobalAddress) -> bool:
        return addr[1] in self.live_in_segment(addr[0])

    # ------------------------------------------------------------ ingress
    def _ingest(self, port: RouterPort, pkt: MicroPacket) -> None:
        if self.failed:
            return
        dma = pkt.dma
        if dma is None or dma.src_segment is None:  # pragma: no cover
            return  # not a routed fragment; nothing to ferry
        res = port.resilience
        if res is not None and not res.admit_fragment(pkt):
            return  # deferred behind the token bucket (or shed)
        self.ingest_now(port.segment_id, pkt)

    def ingest_now(self, segment_id: int, pkt: MicroPacket) -> None:
        """Capture processing past the throttle gate (the deferred-
        fragment drain re-enters here)."""
        if self.failed:
            return
        dma = pkt.dma
        self.counters.incr("fragments_captured")
        # Keyed by the origin's global address + its transfer id (the
        # ferried TransferTable key): stable across re-originations, so a
        # crossing revisiting this router is recognized instead of looping.
        key = (dma.src_segment + 1) << 24 | dma.src_node << 16 | dma.transfer_id
        if key in self._transfers:
            self.counters.incr("duplicate_fragments")
            return
        done = self._transfers.add(key, pkt)
        if done is None:
            return
        payload, channel = done
        self.counters.incr("messages_captured")
        if dma.cluster_broadcast:
            self.counters.incr("broadcasts_captured")
            dst = (segment_id, BROADCAST)
        else:
            dst = (dma.dst_segment, pkt.dst)
        self._forward(Crossing(
            (dma.src_segment, dma.src_node), dst, payload, channel,
            dma.transfer_id, ingress=segment_id,
            cluster_scope=bool(dma.cluster_broadcast),
        ))

    # --------------------------------------------------------- forwarding
    def _forward(
        self, crossing: Crossing, shadow: Optional[_Shadow] = None
    ) -> None:
        """Offer one captured crossing — or, with ``shadow``, one
        re-offered shadow entry — to its egress port(s).

        A unicast crossing has the one egress the table names; a
        cluster-scoped broadcast already toured (and delivered on) the
        ingress ring and fans out to every *other* port.  On a converged
        tree the forwarding ports span every segment exactly once, so
        skipping a blocked egress is pruning, not loss.

        A shadow entry is never dropped on a transient verdict: a
        withdrawn route may be re-learned one advertise cycle later, the
        tree may still be settling, and the burst a failover promotes
        can exceed the egress bound — until its TTL the entry is the
        failover safety net, so it is held and retried instead.
        """
        counters = self.counters
        ports = self.ports
        ingress = crossing.ingress
        if crossing.cluster_scope:
            targets = [seg for seg in ports if seg != ingress]
            gate = [ingress]
        else:
            egress = self.table.egress_for(ingress, crossing.dst[0])
            if egress is None or egress == NOT_OURS:
                if shadow is not None:
                    self.shadow.append(shadow)
                    counters.incr("shadow_held")
                elif egress == NOT_OURS:
                    # Split horizon: a router nearer the destination (on
                    # this same ring) forwards this one.  Every router
                    # on a shared ring captures every routed frame, so
                    # declines are routine, never data-plane drops.
                    counters.incr("split_horizon_declines")
                else:
                    # No route *yet*: the origin's reliability window
                    # closed when this frame was captured off its ring,
                    # so dropping here would be permanent loss even for
                    # a transient gap.  Park the sole copy; every route
                    # learned re-drains the shadow, and a crossing still
                    # unroutable at shadow TTL counts as the drop it
                    # then genuinely is.  (On a blocked ingress the
                    # ring's designated router owns the crossing — ours
                    # is a failover duplicate, not the last copy.)
                    sole = ports[ingress].role is PortRole.FORWARDING
                    self._shadow_park(crossing, sole=sole)
                    counters.incr("unroutable_parked")
                    self.trace("unroutable_parked", dst=crossing.dst,
                               ingress=ingress)
                return
            targets = [egress]
            gate = [ingress, egress]
        if any(ports[seg].role is not PortRole.FORWARDING for seg in gate):
            # Spanning tree says the designated router carries this one.
            # Shadow-park it instead of dropping: if the designated
            # router dies, re-convergence promotes the shadow, and the
            # destination's origin-keyed dedup suppresses the copies the
            # designated router did deliver.
            if shadow is not None:
                self.shadow.append(shadow)  # still blocked: keep holding
            else:
                self._shadow_park(crossing)
            return
        if (self.cache is not None and not crossing.cluster_scope
                and self.cache.serve(ports[ingress], crossing)):
            # Answered from the on-path cache: the response went back
            # onto the ingress ring and the crossing never leaves this
            # router.  Sits after the role gate so only the designated
            # router answers; a shadow entry promoted into a local
            # answer is equally consumed.
            return
        deferred = False
        for seg in targets:
            port = ports[seg]
            copy = crossing
            if crossing.cluster_scope:
                if port.role is not PortRole.FORWARDING:
                    # The tree covers it via its designated router.
                    counters.incr("broadcast_pruned")
                    continue
                copy = replace(crossing, dst=(seg, BROADCAST))
            if port.enqueue(copy):
                if crossing.cluster_scope:
                    counters.incr("broadcast_fanout")
            elif shadow is not None:
                deferred = True
            else:
                counters.incr("egress_overflow_drop")
                self.trace("egress_overflow", dst=copy.dst, egress=seg)
        if shadow is None:
            return
        if deferred:
            # An egress queue was full: the surplus waits its turn in
            # the shadow (already-served segments dedup the retry).
            self.shadow.append(shadow)
            counters.incr("shadow_deferred")
            retry_ns = max(self.advertise_period_ns // 8, 1_000)
            self._once("shadow_retry", retry_ns, self._drain_shadow)
        else:
            counters.incr("shadow_promoted")

    # ----------------------------------------------------- shadow parking
    def _shadow_park(self, crossing: Crossing, sole: bool = False) -> None:
        if len(self.shadow) >= self.shadow_capacity:
            evicted = self.shadow.popleft()
            self.counters.incr("shadow_evicted")
            self._shadow_lost(evicted, "shadow_evicted")
        self.shadow.append(_Shadow(crossing, self.sim.now, sole=sole))
        self.counters.incr("shadow_parked")

    def _shadow_lost(self, entry: _Shadow, event: str) -> None:
        """Account one evicted/expired shadow entry."""
        lost = entry.crossing
        self.trace(event, dst=lost.dst, ingress=lost.ingress)
        if entry.sole:
            # It was the crossing's only copy: this is the (deferred)
            # unroutable drop.
            self.counters.incr("unroutable_drop")
            self.trace("unroutable", dst=lost.dst, ingress=lost.ingress)
        if self.res.dead_letter:
            # Accounting record only: the shadow is a failover safety
            # copy, not the authoritative crossing — nothing to redrive,
            # but its disappearance must be countable.
            self.dead_letter.consume(
                None, event, segment=lost.ingress, now=self.sim.now,
            )

    def _drain_shadow(self) -> None:
        """Re-offer every shadow-parked crossing to the forwarding path.

        Called when a port turns forwarding (or a new route lands):
        crossings the (now dead or demoted) designated router was
        responsible for get re-forwarded; ones this router still must
        not carry park again, and ones the bounded egress queue cannot
        take yet defer until it drains.
        """
        pending, self.shadow = self.shadow, deque()
        for entry in pending:
            self._forward(entry.crossing, shadow=entry)

    def _expire_shadow(self, now: int) -> None:
        # Held entries re-append at the tail with their old timestamps,
        # so the deque is not age-sorted: scan it all, or an expired
        # entry behind a newer head outlives its TTL.
        ttl = self.config.shadow_ttl_periods * self.advertise_period_ns
        fresh: Deque[_Shadow] = deque()
        expired: List[_Shadow] = []
        for entry in self.shadow:
            (fresh if now - entry.parked_at <= ttl else expired).append(entry)
        if not expired:
            return
        self.shadow = fresh
        for entry in expired:
            self._shadow_lost(entry, "shadow_expired")
        self.counters.incr("shadow_expired", len(expired))

    # ------------------------------------------------------ spanning tree
    def _recompute_roles(self) -> None:
        """Re-run the election and act on every port whose verdict moved."""
        old = self.election
        new = self.election = elect(
            self.bid,
            {seg: port.peers for seg, port in self.ports.items()},
            self.sim.now,
            self.advertise_period_ns,
        )
        changed = unblocked = False
        for seg in self.ports:
            role, designated = new.role(seg), new.designated[seg]
            was = old.role(seg)
            if role is was and designated == old.designated[seg]:
                continue
            changed = True
            self.counters.incr("role_changes")
            self.trace("port_role", segment=seg, role=role.value,
                       designated=designated)
            if role is PortRole.BLOCKED:
                self._record(self.table.withdraw_via(seg),
                             reason="port_blocked")
            elif was is PortRole.BLOCKED:
                unblocked = True
        if changed:
            # Topology moved: tell the neighbours now, not a period out.
            self._schedule_readvertise()
        if unblocked:
            # Failover: the crossings the demoted/dead designated router
            # was carrying get re-offered through the new tree.
            self._drain_shadow()

    def _record(self, changes: Iterable[Change], **extra) -> None:
        """Count and trace table changes, in the order they happened."""
        for kind, what, fields in changes:
            if what == "widened":
                continue  # coverage grew without a timeline record
            self.counters.incr(f"{_PLURAL[kind]}_{what}")
            self.trace(f"{kind}_{what}", **fields, **extra)

    # ----------------------------------------------------- advertisements
    def _advertise_tick(self) -> None:
        if self.failed:
            self._ticking = False
            return
        now = self.sim.now
        period = self.advertise_period_ns
        deadline = self.config.miss_deadline_periods
        # A silent peer is the failover trigger: the designated router's
        # death is observed as its ads missing the deadline.
        silent = silent_peers(
            {seg: port.peers for seg, port in self.ports.items()},
            now, period, deadline,
        )
        for seg, rid in silent:
            del self.ports[seg].peers[rid]
            self.counters.incr("peers_expired")
            self.trace("peer_expired", peer=rid, segment=seg)
            self._record(self.table.withdraw_via(seg, router=rid),
                         reason="peer_expired")
        if silent:
            self._recompute_roles()
        self._record(self.table.expire(now, period, deadline))
        self._expire_shadow(now)
        self._advertise_now()
        self.sim.call_in(period, self._advertise_tick)

    def _advertise_now(self) -> None:
        for port in self.ports.values():
            if port.gateway.failed or not port.gateway.ring_up:
                continue
            payload = encode(self._build_ad(port))
            port.gateway.messenger.send(BROADCAST, payload, Channel.ROUTING)
            self.counters.incr("ads_tx")
            self.counters.incr("ad_bytes_tx", len(payload))

    def _schedule_readvertise(self) -> None:
        """Send ads out of cycle after a topology change."""
        if self._started:
            self._once("readvertise", 1, self._readvertise)

    def _readvertise(self) -> None:
        self.counters.incr("ads_immediate")
        self._advertise_now()

    def _once(self, name: str, delay: int, action) -> None:
        """Run ``action`` after ``delay`` unless the router has failed by
        then; requests made while one is pending coalesce into it."""
        if name in self._pending:
            return
        self._pending.add(name)

        def fire() -> None:
            self._pending.discard(name)
            if not self.failed:
                action()

        self.sim.call_in(delay, fire)

    def _build_ad(self, out_port: RouterPort) -> Advertisement:
        """The advertisement for one segment: the spanning-tree header
        plus reachability rows.  Blocked ports send the header only —
        presence for failure detection, no routes.

        An unlabelled router (``area == 0``) that has learned no
        summaries emits v2, byte for byte the pre-summarization format;
        anything else emits v3 (see :mod:`.ads`).
        """
        out = out_port.segment_id
        period = self.advertise_period_ns
        v3 = self.config.area != 0 or bool(self.table.summaries)
        entries: List[Entry] = []
        summaries = []
        if out_port.role is PortRole.FORWARDING:
            # Only what we can carry: a segment behind a blocked port is
            # advertised by that segment's designated router.
            forwarding = [
                seg for seg, port in self.ports.items()
                if port.role is PortRole.FORWARDING
            ]
            entries = [
                Entry(seg, 0, self.live_in_segment(seg))
                for seg in forwarding if seg != out
            ]
            learned, summaries = self.table.advertised(
                out, forwarding, period, summarize=v3
            )
            entries += learned
        election = self.election
        return Advertisement(
            router_id=self.router_id,
            priority=self.config.priority,
            root=election.root,
            root_cost=election.root_cost,
            period_ns=period,
            root_age_ns=election.advertised_root_age_ns(self.sim.now),
            entries=tuple(entries),
            version=3 if v3 else 2,
            area=self.config.area,
            summaries=tuple(summaries),
        )

    def _on_advertisement(self, port: RouterPort, payload: bytes) -> None:
        if self.failed:
            return
        try:
            ad = decode(payload)
        except AdDecodeError:
            self.counters.incr("ads_malformed")
            return
        if ad.router_id == self.router_id:
            return  # our own broadcast touring back is not news
        self.counters.incr("ads_rx")
        now = self.sim.now
        port.peers[ad.router_id] = PeerClaim(
            priority=ad.priority, root=ad.root, cost=ad.root_cost,
            period_ns=ad.period_ns, root_age_ns=ad.root_age_ns,
            last_heard=now,
        )
        # Reachability is data-plane information: a blocked port must
        # not learn (and then re-advertise) routes it cannot carry —
        # they would be withdrawn on the role transition and silently
        # re-installed one period later, forever.  The STP claim above
        # is still recorded: that is what blocked ports listen *for*.
        learned = (
            self.table.learn(ad, port.segment_id, now)
            if port.role is PortRole.FORWARDING else []
        )
        self._record(learned)
        self._recompute_roles()
        if learned:
            # Newly reachable segments may free shadowed traffic; drain
            # once, after the roles reflect this advertisement.
            self._drain_shadow()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        roles = {seg: p.role.value[0] for seg, p in self.ports.items()}
        return (
            f"<SegmentRouter {self.router_id} ports={roles} "
            f"routes={sorted(self.table.routes)}>"
        )
