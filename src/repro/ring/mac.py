"""Register-insertion ring MAC (slides 7-8).

Each AmpNet NIC contains this state machine.  It owns two queues:

* the **transit buffer** — frames arriving from upstream that must be
  forwarded downstream.  Transit traffic has absolute priority: a node
  never delays another node's circulating frame to insert its own.
* the **insertion queue** — locally originated frames waiting for a gap.

Frames are *source-stripped*: every frame tours the full logical ring and
is removed by its inserter, which is (a) how broadcasts reach everyone
(slide 7's multiple simultaneous streams are broadcasts and unicasts
interleaved per-node), and (b) how the inserter learns its frame
completed a tour — the acknowledgement that the reliable messenger layer
(:mod:`repro.transport`) builds retransmission on.

Insertion is governed by :class:`~repro.ring.flow_control.
InsertionController`; with it enabled the ring structurally cannot drop
frames (see that module's docstring), which bench F3 demonstrates under
an all-to-all broadcast storm.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..micropacket import BROADCAST, Flags, MicroPacket
from ..phys import NODE_TRANSIT_NS, Port, SerialLink, frame_for
from ..phys.frame import Frame
from ..rostering.roster import Roster
from ..sim import Callback, Counter, Simulator, Tracer
from ..sim.monitor import NULL_TRACER
from .flow_control import FlowControlConfig, InsertionController

__all__ = ["RingMAC"]

DeliverFn = Callable[[MicroPacket, Frame], None]
FrameFn = Callable[[Frame], None]

#: Plain-int mirror of Flags.PRIORITY for the per-hop flag test.
_PRIORITY = int(Flags.PRIORITY)
#: The counters of received ring frames that end on this MAC unstripped
#: and unforwarded: the drops of :meth:`RingMAC.balanced`'s ledger.
_RX_DROPS = (
    "rx_ring_down_drop", "orphans_scrubbed", "transit_overflow_drop",
    "transit_flushed", "transit_lost_ring_down", "transit_lost_carrier",
    "transit_lost_singleton",
)


def _voided() -> None:
    """What a pick or emit entry fires once its MAC has voided it."""


class RingMAC:
    """The per-node ring MAC engine."""

    __slots__ = (
        "sim", "node_id", "ports", "config", "tracer", "name", "roster",
        "controller", "_transit_priority", "_transit", "_insertion",
        "_priority_insertion", "_outstanding", "_tx_busy", "_tx_scheduled",
        "_hold_from", "_hold_end", "_pace_due", "_fused_at", "_fuses",
        "_rest_gap", "_ring_open", "_ring_size", "_tx_link", "_tx_step_cb",
        "_tx_frame", "_tx_inserted", "_tx_emit_cb", "_pace_cb", "segment_id",
        "capture", "on_deliver", "on_tour_complete", "on_tour_lost",
        "counters",
    )

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        ports: List[Port],
        config: Optional[FlowControlConfig] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.sim = sim
        self.node_id = node_id
        self.ports = ports
        self.config = config or FlowControlConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.name = f"mac-{node_id}"

        self.roster: Optional[Roster] = None
        self.controller = InsertionController(self.config)

        #: PRIORITY-flagged transit frames (kernel heartbeats, roster
        #: certification, semaphore grants) overtake data in transit so a
        #: broadcast storm cannot starve the distributed kernel.  Plain
        #: lists, head at index 0, like every device FIFO: almost always
        #: empty, and short when not (docs/architecture.md).
        self._transit_priority: List[Frame] = []
        self._transit: List[Frame] = []
        self._insertion: List[Frame] = []
        self._priority_insertion: List[Frame] = []
        self._outstanding: Dict[int, Frame] = {}

        # Transmit engine state (event-driven; see _tx_step).  ``_tx_busy``
        # covers the insertion register, and the serialization hold too
        # while anything is queued behind it; with nothing queued the
        # hold is just ``_hold_from``..``_hold_end``, before whose end no
        # pick may run.  ``_tx_scheduled`` means a pick is already
        # enqueued; ``_pace_due`` is the gap end the one live pacing
        # wake-up is posted for (an earlier one fires and does nothing).
        self._tx_busy = False
        self._tx_scheduled = False
        self._hold_from = 0
        self._hold_end = 0
        self._pace_due = -1
        #: instant of the last fused load (see on_frame); -1 once undone
        self._fused_at = -1
        cfg = self.config
        #: may an idle engine take the fused path at all (A2's greedy NIC
        #: picks its own frames first, so it always queues and picks)
        self._fuses = cfg.transit_priority
        #: ``controller.gap_ns`` at which a non-priority frame may fuse:
        #: the pacing floor, where the depth-1 and depth-0 observations
        #: the queue-then-pick path feeds the controller change nothing
        #: (-1, never equal, when a depth of one already backs off).
        self._rest_gap = (
            cfg.min_gap_ns if cfg.hi_watermark > 1 or not cfg.enabled else -1
        )
        # Per-roster state, refreshed on install: the ring-open flag, and
        # the tx link / ring size that replace an O(n) roster index
        # lookup plus a property chain per transmitted frame.
        self._ring_open = False
        self._ring_size = 0
        self._tx_link: Optional[SerialLink] = None
        #: reusable pick entry (stateless; may recur on the schedule)
        self._tx_step_cb = Callback(self._tx_step, ())
        #: the insertion register: the one frame between pick and emit
        #: (``_tx_busy`` admits no second), and whether it is our own
        self._tx_frame: Optional[Frame] = None
        self._tx_inserted = False
        #: reusable emit entry; its payload is the register above
        self._tx_emit_cb = Callback(self._tx_emit, ())
        #: reusable pacing wake-up (guarded by ``_pace_due``)
        self._pace_cb = Callback(self._pace_fire, ())

        #: Segment id of the ring this MAC sits on (multi-segment
        #: clusters only; None = classic single-segment operation).  A
        #: delivered packet whose header carries a different
        #: ``dst_segment`` is in transit *through* this ring, not for it.
        self.segment_id: Optional[int] = None
        #: Router tap: when set (on a router's gateway MAC only), every
        #: transiting frame whose global address names another segment is
        #: copied off the ring here — the frame itself keeps circulating
        #: back to its inserter, so the tour-as-ack contract is untouched.
        self.capture: Optional[DeliverFn] = None

        #: upward delivery (set by the node's transport layer)
        self.on_deliver: Optional[DeliverFn] = None
        #: frame completed its tour (reliability signal)
        self.on_tour_complete: Optional[FrameFn] = None
        #: frame was circulating when the ring went down
        self.on_tour_lost: Optional[FrameFn] = None

        self.counters = Counter()

    # ------------------------------------------------------------ lifecycle
    @property
    def ring_up(self) -> bool:
        return self._ring_open

    def install_roster(self, roster: Roster) -> None:
        """Bring the ring up for this node (called on commit)."""
        if self.node_id not in roster.members:
            # We were voted off the island; stay down.
            self.teardown("not a roster member")
            return
        self.roster = roster
        self.controller.ring_installed(roster.size)
        self._ring_size = roster.size
        self._tx_link = (
            self.ports[roster.hop_switch_from(self.node_id)].tx_link
            if roster.size >= 2 else None
        )
        self._ring_open = True
        self.counters["roster_installs"] += 1
        self._kick()

    def balanced(self) -> bool:
        """The MAC's frame ledger, both halves.  Every frame it inserted
        completed its tour (at once on a singleton ring), was counted
        lost at a teardown, or is still outstanding; and every ring frame
        it received was stripped, forwarded, dropped under one of
        :data:`_RX_DROPS`, or is still held in a transit buffer or the
        insertion register."""
        c = self.counters
        if c["tx_inserted"] != (
                c["tours_completed"] + c["tours_lost"] + len(self._outstanding)):
            return False
        stripped = c["tours_completed"] - c["singleton_tours"] + c["stale_strip"]
        held = len(self._transit) + len(self._transit_priority) + (
            self._tx_frame is not None and not self._tx_inserted)
        return c["rx_frames"] == stripped + c["tx_transit"] + held + sum(
            c[name] for name in _RX_DROPS)

    def teardown(self, reason: str = "") -> None:
        """Ring down: stop forwarding, surrender in-flight accounting."""
        if self._fused_at == self.sim._now:
            self._unfuse()  # still in the buffer at this instant: flushed
        self._ring_open = False
        self.roster = None
        self._ring_size = 0
        self._tx_link = None
        flushed = len(self._transit) + len(self._transit_priority)
        if flushed:
            self.counters["transit_flushed"] += flushed
        self._transit.clear()
        self._transit_priority.clear()
        lost, self._outstanding = list(self._outstanding.values()), {}
        for frame in lost:
            self.controller.tour_lost()
            self.counters["tours_lost"] += 1
            if self.on_tour_lost is not None:
                self.on_tour_lost(frame)
        self.tracer.record(
            self.sim.now, "ring_down", self.name, reason=reason, flushed=flushed,
        )

    # ------------------------------------------------------------------- tx
    def send(self, packet: MicroPacket) -> Frame:
        """Queue a locally originated packet for insertion."""
        frame = frame_for(packet)
        if packet.flags & Flags.PRIORITY:
            self._priority_insertion.append(frame)
        else:
            self._insertion.append(frame)
        self.counters["tx_queued"] += 1
        self._kick()
        return frame

    # The transmit engine is an event-driven state machine rather than a
    # resumed generator — no generator frames, no wakeup Event
    # allocations, no AnyOf per pacing nap.  A frame costs it up to three
    # slim schedule entries: the pick (one event-step after the kick, so
    # same-instant arrivals still compete for priority before it), the
    # emit at the end of the insertion-register latency, and the pick at
    # the end of the serialization hold.  The last is posted only while
    # something is queued behind the frame; otherwise the emit records
    # ``_hold_end`` and the next kick posts the pick no earlier than
    # that.  A transit frame meeting an idle engine skips the first too
    # (``on_frame`` loads the register itself), which leaves the emit as
    # the only entry a heartbeat cell costs a quiet node.  A pacing nap
    # is one more reusable entry, fire-and-guard like every other timer:
    # posted once per distinct gap end, and a no-op unless the clock
    # still reads the gap end it was last armed for.

    def _kick(self) -> None:
        if self._tx_busy or self._tx_scheduled or not self._ring_open:
            return
        self._tx_scheduled = True
        # Direct kernel post (see the _post contract in sim/kernel.py):
        # one event step from now, or when the last frame's
        # serialization hold ends if that is still ahead.
        sim = self.sim
        now = sim._now
        hold_end = self._hold_end
        sim._post(hold_end if hold_end > now else now, self._tx_step_cb)

    def _tx_step(self) -> None:
        self._tx_scheduled = False
        if not self._ring_open:
            self._tx_busy = False
            return
        frame, inserted = self._pick_frame()
        if frame is None:
            self._tx_busy = False
            sim = self.sim
            gap_end = self.controller.earliest_insert()
            backlog = len(self._insertion) + len(self._priority_insertion)
            if backlog and gap_end > sim._now and not (
                self.controller.window_full()
            ):
                # Pacing gap: wake when it ends unless a kick (transit
                # arrival, ring change) preempts the nap first.  Repeated
                # picks that find the same gap end share one wake-up.
                if self._pace_due != gap_end:
                    self._pace_due = gap_end
                    sim._post(gap_end, self._pace_cb)
            return
        # Insertion-register latency, then occupy the transmitter.
        self._tx_busy = True
        self._tx_frame = frame
        self._tx_inserted = inserted
        sim = self.sim
        sim._post(sim._now + NODE_TRANSIT_NS, self._tx_emit_cb)

    def _tx_emit(self) -> None:
        frame = self._tx_frame
        self._tx_frame = None
        if self._transmit(frame, self._tx_inserted):
            sim = self.sim
            self._hold_from = now = sim._now
            self._hold_end = hold_end = now + frame.ser_ns
            if (
                self._transit_priority or self._transit
                or self._priority_insertion or self._insertion
            ):
                sim._post(hold_end, self._tx_step_cb)
            else:
                # Nothing to pick when the hold ends: an entry there
                # would find four empty queues and go idle.  Go idle now
                # and leave the hold to whoever kicks next.
                self._tx_busy = False
        else:
            # Transmit refused (ring/carrier changed during the register
            # latency): re-pick immediately within this event.
            self._tx_step()

    def _hold_pick_first(self) -> None:
        """An arrival has fired ahead of the pick due at this instant's
        hold end, and must not be picked by it.

        With an entry for every stage the two are ordered by when they
        are posted: the pick at the emit that began the hold
        (``_hold_from``), the arrival when its frame is handed to the
        wire (``Frame.wire_at``).  The short ways move both within the
        slot — a switch that reserves the wire posts the arrival 300 ns
        before the hand-over; a pick nobody was waiting for is posted by
        whoever kicks during the hold — so the instants themselves
        decide: handed over after the hold began, the arrival comes
        second.  The pick runs now, and its entry is voided.
        """
        self._tx_step_cb.fn = _voided
        self._tx_step_cb = Callback(self._tx_step, ())
        self._tx_step()

    def _unfuse(self) -> None:
        """Put a fused load (see :meth:`on_frame`) back in the buffer.

        Something else reached this MAC in the instant of the load — a
        second arrival, a teardown — and on the queue-then-pick path the
        frame would still be in its transit queue with the pick pending:
        the arrival might overtake it or overflow behind it, the
        teardown would flush it.  Restore exactly that state.  The emit
        entry already posted is voided the way ``SerialLink.go_down``
        voids its arrivals: re-pointed, and replaced by a fresh one.
        """
        frame = self._tx_frame
        self._tx_frame = None
        self._fused_at = -1
        self._tx_busy = False
        if frame.packet.flags & _PRIORITY:
            self._transit_priority.append(frame)
        else:
            self._transit.append(frame)
        self._tx_emit_cb.fn = _voided
        self._tx_emit_cb = Callback(self._tx_emit, ())
        self._kick()

    def _pace_fire(self) -> None:
        # A wake-up superseded by a later gap end does nothing; the live
        # one is a kick like any other, pick deferred by one event step
        # so that arrivals landing on this tick behind it still compete
        # for priority before the pick.
        if self.sim._now == self._pace_due:
            self._kick()

    def _pick_frame(self):
        """Transit first, then priority insertions, then data insertions.

        Priority cells (heartbeats, certification, semaphore grants) skip
        the insertion window and pacing: they are rare, tiny and the
        window formula reserves headroom for them — the kernel must keep
        beating even when the data window is saturated.
        """
        if not self.config.transit_priority:
            # A2 ablation: a greedy NIC that stuffs its own frames first.
            if self._priority_insertion:
                return self._priority_insertion.pop(0), True
            if self._insertion and self.controller.may_insert(self.sim._now):
                return self._insertion.pop(0), True
        if self._transit_priority:
            return self._transit_priority.pop(0), False
        transit = self._transit
        if transit:
            frame = transit.pop(0)
            self.controller.observe_transit_depth(len(transit))
            return frame, False
        if self._priority_insertion:
            return self._priority_insertion.pop(0), True
        if not self.controller.may_insert(self.sim._now):
            return None, False
        if self._insertion:
            return self._insertion.pop(0), True
        return None, False

    def _transmit(self, frame: Frame, inserted: bool) -> bool:
        if self.roster is None:
            # Ring went down during the register latency: like the dead
            # hop below, local frames wait and transit frames are lost.
            if inserted:
                self._requeue(frame)
            else:
                self.counters["transit_lost_ring_down"] += 1
            return False
        counters = self.counters
        if self._ring_size == 1:
            # Singleton ring: no fibre to cross; the "tour" is immediate.
            if inserted:
                counters["tx_inserted"] += 1
                counters["tours_completed"] += 1
                counters["singleton_tours"] += 1
                if self.on_tour_complete is not None:
                    self.on_tour_complete(frame)
            else:
                counters["transit_lost_singleton"] += 1  # nowhere to go
            return True
        if not self._tx_link.transmit(frame):
            # Our active hop just died; rostering will rebuild.  Local
            # frames wait, transit frames are lost with the light.
            if inserted:
                self._requeue(frame)
            else:
                counters["transit_lost_carrier"] += 1
            return False
        if inserted:
            now = self.sim._now
            frame.inserted_at = now
            frame.hops = 0
            self._outstanding[frame.frame_id] = frame
            self.controller.inserted(now)
            counters["tx_inserted"] += 1
        else:
            counters["tx_transit"] += 1
        return True

    def _requeue(self, frame: Frame) -> None:
        """Put a refused local frame back at the head of its queue."""
        if frame.packet.flags & Flags.PRIORITY:
            self._priority_insertion.insert(0, frame)
        else:
            self._insertion.insert(0, frame)

    # ------------------------------------------------------------------- rx
    def on_frame(self, frame: Frame, port: Port) -> None:
        """Entry point for ring traffic arriving from the physical layer."""
        sim = self.sim
        now = sim._now
        if (
            self._hold_end == now and frame.wire_at > self._hold_from
            and (self._tx_scheduled
                 or (self._tx_busy and self._tx_frame is None))
        ):
            # A hold ends this instant with its pick still to run, and
            # the frame was handed to its wire after the hold began.
            self._hold_pick_first()
        counters = self.counters
        counters["rx_frames"] += 1
        if not self._ring_open or self.roster is None:
            counters["rx_ring_down_drop"] += 1
            return
        pkt = frame.packet

        if pkt.src == self.node_id:
            # Source strip: the frame completed its tour of the ring.
            done = self._outstanding.pop(frame.frame_id, None)
            if done is not None:
                self.controller.tour_completed()
                counters["tours_completed"] += 1
                if self.on_tour_complete is not None:
                    self.on_tour_complete(frame)
                # The freed window slot may unblock a queued insertion
                # (with none queued, a pick would find nothing to do).
                if self._insertion or self._priority_insertion:
                    self._kick()
            else:
                counters["stale_strip"] += 1
            return

        hops = frame.hops + 1
        frame.hops = hops
        if hops > self._ring_size + 2:
            # Orphan scrub: the inserter left the ring mid-tour.
            counters["orphans_scrubbed"] += 1
            return

        if self.capture is not None:
            dma = pkt.dma
            if dma is not None and (
                (
                    dma.dst_segment is not None
                    and dma.dst_segment != self.segment_id
                )
                # Cluster-scoped broadcasts are *both* local traffic on
                # every ring they tour and router-ferried: the gateway
                # captures a copy for spanning-tree fan-out while the
                # frame keeps delivering to local members below.
                or dma.cluster_broadcast
            ):
                counters["rx_captured"] += 1
                self.capture(pkt, frame)

        dst = pkt.dst
        if dst == BROADCAST or dst == self.node_id:
            # A routed packet touring this ring on its way to another
            # segment is not local traffic, even when its destination
            # node id collides with ours (each segment has its own 8-bit
            # MAC space).
            dma = pkt.dma
            if (
                dma is None
                or dma.dst_segment is None
                or dma.dst_segment == self.segment_id
            ):
                counters["rx_delivered"] += 1
                if self.on_deliver is not None:
                    self.on_deliver(pkt, frame)

        # Source removal: everything keeps circulating back to its source.
        priority = pkt.flags & _PRIORITY
        if (
            not (self._tx_busy or self._tx_scheduled)
            and self._fuses and now >= self._hold_end
            and (priority or self.controller.gap_ns == self._rest_gap)
        ):
            # Idle engine, no pick pending — so an empty transit buffer,
            # every append kicks — and the hold over: queueing the frame,
            # kicking and picking it one event step later can only end
            # with this frame in the register at this instant, so load
            # it now and save the pick entry.  (``_unfuse`` takes it back
            # should a second arrival or a teardown land in this instant.)
            self._tx_busy = True
            self._tx_frame = frame
            self._tx_inserted = False
            self._fused_at = now
            sim._post(now + NODE_TRANSIT_NS, self._tx_emit_cb)
            return
        if self._fused_at == now:
            self._unfuse()
        transit = self._transit
        transit_priority = self._transit_priority
        if len(transit) + len(transit_priority) >= self.config.transit_capacity:
            counters["transit_overflow_drop"] += 1
            self.tracer.record(
                now, "transit_drop", self.name, packet=pkt.describe(),
            )
            return
        if priority:
            transit_priority.append(frame)
        else:
            transit.append(frame)
            self.controller.observe_transit_depth(len(transit))
        self._kick()
