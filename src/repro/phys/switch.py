"""AmpNet switches (slides 14-15).

A switch is a port-mapped crossconnect.  In normal operation it forwards
ring traffic according to a *ring map* installed at roster commit: each
ingress port has exactly one egress port, so the logical ring threads
through the switch as a sequence of point-to-point hops.

ROSTERING MicroPackets are handled differently ("packets are forwarded
according to rostering rules", slide 16): the switch floods them out of
every live port except the ingress, with duplicate suppression keyed on
the rostering header, which is what lets the modified flooding algorithm
explore the entire surviving topology in one tour.

Both kinds of traffic can leave through the same per-port **crossing
FIFO** (a plain list, like every device FIFO): the crossconnect latency
is one constant, so frames bound for one egress port come out in the
order they went in, and the port's single reusable schedule entry (on
the schedule once per frame it put in the FIFO) sends the head each
time it fires — see the entry-reuse contract in
``docs/architecture.md``.  A flood spends one entry, not one
per egress (``_flood``).  Ring traffic only queues behind something:
while the FIFO is empty, no flood is crossing and the egress fibre is
lit, the switch reserves the wire on arrival for the instant the
crossing ends (``SerialLink.reserve``) and spends no entry on it.  A cut
that lands inside those 300 ns hands the frames back (``_recall``) and
they finish the crossing in the FIFO.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from ..micropacket import MicroPacketType
from ..rostering.wire import flood_key
from ..sim import NULL_TRACER, Callback, Counter, Simulator, Tracer
from .constants import SWITCH_LATENCY_NS
from .frame import Frame
from .link import Fiber
from .port import Port

__all__ = ["Switch"]

#: Remembered flood keys before the oldest is evicted.
_FLOOD_CACHE_SIZE = 4096

#: Plain-int mirror for the per-frame type test.
_ROSTERING = int(MicroPacketType.ROSTERING)


class Switch:
    """A crossconnect with ``n_ports`` duplex optical ports."""

    def __init__(
        self,
        sim: Simulator,
        switch_id: int,
        n_ports: int,
        tracer: Optional[Tracer] = None,
    ):
        if n_ports <= 0:
            raise ValueError("switch needs at least one port")
        self.sim = sim
        self.switch_id = switch_id
        self.name = f"switch-{switch_id}"
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.ports: List[Port] = [
            Port(f"{self.name}.p{i}") for i in range(n_ports)
        ]
        #: port object -> index, so per-frame forwarding skips list.index
        self._port_index: Dict[Port, int] = {
            port: i for i, port in enumerate(self.ports)
        }
        for port in self.ports:
            port.on_frame, port.on_recall = self._on_frame, self._recall
        #: egress port index -> (frames crossing to that port, oldest
        #: first; the port's one reusable entry; the port).
        self._crossing: List[Tuple[List[Frame], Callback, Port]] = []
        for port in self.ports:
            fifo: List[Frame] = []
            self._crossing.append(
                (fifo, Callback(self._emit, (fifo, port)), port))
        #: one int per flood still crossing, oldest first: bit ``i`` set
        #: = the flooded frame went into egress ``i``'s FIFO.  The one
        #: reusable flood entry is on the schedule once per mask.
        self._flood_masks: List[int] = []
        self._flood_entry = Callback(self._emit_flood, ())
        self._port_bits = tuple(1 << i for i in range(n_ports))
        #: ingress port index -> egress port index for ring traffic
        self.ring_map: Dict[int, int] = {}
        self.failed = False
        self.attached_fibers: List[Fiber] = []
        self.counters = Counter()
        self._flood_seen: "OrderedDict[bytes, None]" = OrderedDict()

    # ------------------------------------------------------------- wiring
    def attach_fiber(self, fiber: Fiber) -> None:
        self.attached_fibers.append(fiber)

    # ------------------------------------------------------ configuration
    def configure_ring(self, mapping: Dict[int, int]) -> None:
        """Install the ring crossconnect (ingress -> egress port index)."""
        for src, dst in mapping.items():
            if not (0 <= src < len(self.ports) and 0 <= dst < len(self.ports)):
                raise ValueError(f"ring map entry {src}->{dst} out of range")
        self.ring_map = dict(mapping)

    # ------------------------------------------------------------- faults
    def fail(self) -> None:
        """Power loss: every attached fibre goes dark from this side."""
        if self.failed:
            return
        self.failed = True
        self.ring_map = {}
        for fiber in self.attached_fibers:
            fiber.endpoint_dark()

    def repair(self) -> None:
        if not self.failed:
            return
        self.failed = False
        for fiber in self.attached_fibers:
            fiber.endpoint_lit()

    # ---------------------------------------------------------- forwarding
    def _on_frame(self, frame: Frame, port: Port) -> None:
        if self.failed:
            return
        if frame.packet.ptype == _ROSTERING:
            self._flood(frame, port)
            return
        ingress = self._port_index[port]
        egress = self.ring_map.get(ingress)
        if egress is None:
            self.counters["no_route_drop"] += 1
            self.tracer.record(
                self.sim.now, "switch_drop", self.name,
                ingress=ingress, packet=frame.packet.describe(),
            )
            return
        fifo, _entry, out = self._crossing[egress]
        link = out.tx_link
        if (not fifo and not self._flood_masks and out.carrier_up
                and link is not None and link.up):
            # Nothing ahead of it and a lit fibre: what ``_emit`` would
            # do when the crossing ends, done now.  Not while a flood is
            # crossing, to any port: the reserved arrival goes on the
            # schedule now and the flood's when its crossing ends, so in
            # an instant both reach their far ends the frame that came
            # second would be heard first.
            out.tx_frames += 1
            link.reserve(frame, self.sim._now + SWITCH_LATENCY_NS)
        else:
            self._cross(frame, egress)
        self.counters["forwarded"] += 1

    def _flood(self, frame: Frame, port: Port) -> None:
        key = flood_key(frame.packet.payload)
        if key in self._flood_seen:
            self.counters["flood_duplicate"] += 1
            return
        self._flood_seen[key] = None
        if len(self._flood_seen) > _FLOOD_CACHE_SIZE:
            self._flood_seen.popitem(last=False)
        # The fan-out is decided now: the frame joins the crossing FIFO
        # of every egress lit at this instant, behind whatever is already
        # crossing to it, and one entry carries it over to all of them.
        mask = 0
        for bit, (fifo, _entry, out) in zip(self._port_bits, self._crossing):
            if out.carrier_up and out is not port:
                fifo.append(frame)
                mask |= bit
        fanout = mask.bit_count()
        if mask:
            self._flood_masks.append(mask)
            sim = self.sim
            sim._post(sim._now + SWITCH_LATENCY_NS, self._flood_entry)
        self.counters["flooded"] += fanout
        self.tracer.record(
            self.sim.now, "switch_flood", self.name,
            ingress=self._port_index[port], fanout=fanout, key=key.hex(),
        )

    def _cross(self, frame: Frame, egress: int) -> None:
        """Start ``frame`` across the crossconnect to port ``egress``."""
        fifo, entry, _out = self._crossing[egress]
        fifo.append(frame)
        # Direct kernel post (see the _post contract in sim/kernel.py).
        sim = self.sim
        sim._post(sim._now + SWITCH_LATENCY_NS, entry)

    def _emit(self, fifo: List[Frame], out: Port) -> None:
        link = out.tx_link
        if link is None or not link.transmit(fifo.pop(0)):
            # No carrier (or no fibre) at the egress: lost, and nobody
            # below the switch saw the frame to count it.
            self.counters["egress_dark_drop"] += 1

    def _emit_flood(self) -> None:
        """The oldest flood's crossing ends: every egress it fanned out
        to sends the head of its FIFO, in port order — what one firing
        of ``_emit`` per egress, posted in that order, would do."""
        mask = self._flood_masks.pop(0)
        for bit, (fifo, _entry, out) in zip(self._port_bits, self._crossing):
            if mask & bit and not out.tx_link.transmit(fifo.pop(0)):
                self.counters["egress_dark_drop"] += 1

    def _recall(self, frames: List[Frame], port: Port) -> None:
        """A cut caught ``frames`` (oldest first) reserved on ``port``'s
        wire but not yet across the crossconnect: they finish crossing in
        the FIFO — ahead of anything that queued since, and keeping later
        arrivals from reserving past them — and ``_emit`` offers each to
        the port at the instant it was due."""
        fifo, entry, _out = self._crossing[self._port_index[port]]
        fifo[:0] = frames
        post = self.sim._post
        for frame in frames:
            post(frame.wire_at, entry)

    def reset_flood_cache(self) -> None:
        """Forget flood keys (used between rostering rounds in tests)."""
        self._flood_seen.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "FAILED" if self.failed else "ok"
        return f"<Switch {self.switch_id} {state} ports={len(self.ports)}>"
