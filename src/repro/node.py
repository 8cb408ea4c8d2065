"""AmpNode: one cluster member — NIC, ring MAC, rostering agent.

This module composes the per-node hardware model.  The AmpDK distributed
kernel (:mod:`repro.kernel`), the reliable messenger
(:mod:`repro.transport`) and the network cache (:mod:`repro.netcache`) all
hang off the hooks exposed here; :class:`~repro.cluster.AmpNetCluster`
builds and wires the full stack.

Frame dispatch: ROSTERING cells go to the rostering agent (they are valid
whether or not the ring is up — that is the point of rostering); all
other MicroPacket types are ring traffic handled by the MAC.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from .micropacket import MicroPacket, MicroPacketType
from .phys import Port
from .phys.frame import Frame
from .ring import FlowControlConfig, RingMAC
from .rostering import AgentState, Roster, RosterAgent
from .sim import NULL_TRACER, Simulator, Tracer

__all__ = ["AmpNode", "BOOT_DELAY_NS"]

#: Plain-int mirror for the per-frame dispatch test.
_ROSTERING = int(MicroPacketType.ROSTERING)
_DISPATCH_SLOTS = len(MicroPacketType) << 4  # sixteen channels per type

#: AmpDK boot time before the node first seeks a ring (slide 17:
#: "instantly self-boots" — tens of microseconds of firmware).
BOOT_DELAY_NS = 20_000


class AmpNode:
    """One AmpNet node (host + NIC), physical through MAC layers."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        ports: List[Port],
        flow: Optional[FlowControlConfig] = None,
        report_window_ns: int = 100_000,
        tracer: Optional[Tracer] = None,
    ):
        self.sim = sim
        self.node_id = node_id
        self.ports = ports
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.name = f"node-{node_id}"
        self.failed = False

        self.mac = RingMAC(sim, node_id, ports, flow, self.tracer)
        self.agent = RosterAgent(sim, node_id, ports, report_window_ns, self.tracer)
        self.agent.on_installed = self._roster_installed
        self.agent.on_ring_down = self._ring_down

        #: the network-resident stack :class:`~repro.cluster.AmpNetCluster`
        #: attaches (None on a bare node; ``membership`` stays None
        #: unless the cluster runs gossip, see :mod:`repro.membership`).
        #: Applications hold their own reference to the node instead.
        self.messenger = self.cache = self.replicator = self.refresh = None
        self.sems = self.assimilation = self.membership = None

        #: subscribers notified on ring up/down (AmpDK, stack members)
        self.ring_up_listeners: List[Callable[[Roster], None]] = []
        self.ring_down_listeners: List[Callable[[str], None]] = []
        #: power events: first boot, power failure (each stack member
        #: registers the wipe of whatever it keeps in NIC memory) and
        #: power-on after a failure
        self.boot_listeners: List[Callable[[], None]] = []
        self.crash_listeners: List[Callable[[], None]] = []
        self.recover_listeners: List[Callable[[], None]] = []
        #: reliability signals fanned out from the MAC
        self.tour_complete_listeners: List[Callable] = []
        self.tour_lost_listeners: List[Callable] = []

        #: delivery dispatch: (ptype, channel) -> handler; None channel =
        #: any channel of that type not claimed more specifically.  The
        #: dict is the registration source of truth; deliveries go
        #: through ``_dispatch``, one flat ``[ptype << 4 | channel]``
        #: table with the wildcard fallback already baked in, rebuilt on
        #: the (rare) register/unregister and consulted on every frame.
        self._handlers: dict = {}
        self._dispatch: List[Optional[Callable]] = [None] * _DISPATCH_SLOTS
        self._default_sinks: List[Callable[[MicroPacket, Frame], None]] = []
        self.mac.on_deliver = self._deliver
        self.mac.on_tour_complete = self._tour_complete
        self.mac.on_tour_lost = self._tour_lost

        for port in ports:
            port.on_frame = self._on_frame
            port.on_carrier = self._on_carrier

    # ------------------------------------------------------------ lifecycle
    def boot(self) -> None:
        """Start AmpDK; the node seeks a ring after its boot delay."""
        self.sim.call_in(BOOT_DELAY_NS, self._booted)
        for listener in self.boot_listeners:
            listener()

    def _booted(self) -> None:
        if self.failed:
            return
        if self.agent.state == AgentState.DOWN:
            self.agent.trigger("boot")

    def _join(self) -> None:
        if not self.failed:
            self.agent.request_join()

    def crash(self) -> None:
        """Node power failure: stop participating entirely; NIC memory
        (every crash listener's state) is lost.

        The physical side (lasers going dark) is driven by the topology's
        ``node_dark``; the cluster fault injector calls both.  Ring-down
        listeners are notified so kernel loops (heartbeat monitors,
        certification) retire instead of running on as zombies.
        """
        self.failed = True
        self._ring_down("node crash")
        self.agent.enabled = False
        self.agent.state = AgentState.DOWN
        self.agent.roster = None
        for listener in self.crash_listeners:
            listener()

    def recover(self) -> None:
        """Power back on and, after the boot delay, announce ourselves
        to the already-running network (slide 17 node entry)."""
        self.failed = False
        self.agent.enabled = True
        self.sim.call_in(BOOT_DELAY_NS, self._join)
        for listener in self.recover_listeners:
            listener()

    # ------------------------------------------------------------- queries
    @property
    def ring_up(self) -> bool:
        return self.mac.ring_up

    @property
    def roster(self) -> Optional[Roster]:
        return self.agent.roster

    # ------------------------------------------------------------ dispatch
    def _on_frame(self, frame: Frame, port: Port) -> None:
        if self.failed:
            return
        if frame.packet.ptype == _ROSTERING:
            self.agent.on_cell(frame, port)
        else:
            self.mac.on_frame(frame, port)

    def _on_carrier(self, up: bool, port: Port) -> None:
        if self.failed:
            return
        self.agent.on_carrier_change(up, port)

    def _roster_installed(self, roster: Roster) -> None:
        self.mac.install_roster(roster)
        for listener in self.ring_up_listeners:
            listener(roster)

    def _ring_down(self, reason: str) -> None:
        self.mac.teardown(reason)
        for listener in self.ring_down_listeners:
            listener(reason)

    # ------------------------------------------------------------ delivery
    def register_handler(self, ptype: MicroPacketType, channel, handler) -> None:
        """Claim deliveries of ``ptype`` on ``channel`` (None = wildcard)."""
        if channel is not None and not 0 <= channel <= 0xF:
            raise ValueError(f"channel {channel} out of range 0..15")
        key = (ptype, channel)
        if key in self._handlers:
            raise ValueError(f"handler already registered for {key}")
        self._handlers[key] = handler
        self._rebuild_dispatch()

    def unregister_handler(self, ptype: MicroPacketType, channel) -> None:
        self._handlers.pop((ptype, channel), None)
        self._rebuild_dispatch()

    def _rebuild_dispatch(self) -> None:
        table = [None] * _DISPATCH_SLOTS
        for (ptype, channel), handler in self._handlers.items():
            if channel is not None:
                table[ptype << 4 | channel] = handler
        for (ptype, channel), handler in self._handlers.items():
            if channel is None:
                for slot in range(ptype << 4, (ptype + 1) << 4):
                    if table[slot] is None:
                        table[slot] = handler
        self._dispatch = table

    def register_default(self, sink) -> None:
        """Receive every delivery no specific handler claimed."""
        self._default_sinks.append(sink)

    def unregister_default(self, sink) -> None:
        """Stop a default sink (no-op if it was never registered).

        Workload generators install default sinks; without this path a
        second workload on the same cluster would double-count every
        delivery into the first one's stats.
        """
        try:
            self._default_sinks.remove(sink)
        except ValueError:
            pass

    def _deliver(self, packet: MicroPacket, frame: Frame) -> None:
        handler = self._dispatch[packet.ptype << 4 | packet.channel]
        if handler is not None:
            handler(packet, frame)
            return
        for sink in self._default_sinks:
            sink(packet, frame)

    def _tour_complete(self, frame: Frame) -> None:
        for listener in self.tour_complete_listeners:
            listener(frame)

    def _tour_lost(self, frame: Frame) -> None:
        for listener in self.tour_lost_listeners:
            listener(frame)

    # ------------------------------------------------------------------- tx
    def send(self, packet: MicroPacket):
        """Queue a packet onto the ring (thin veneer over the MAC)."""
        if packet.src != self.node_id:
            raise ValueError(
                f"packet src {packet.src} does not match node {self.node_id}"
            )
        return self.mac.send(packet)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = self.agent.state.name
        return f"<AmpNode {self.node_id} {state}>"
