"""Baseline substrate: a conventional drop-capable switched LAN.

The implicit comparator in the paper's availability claims ("the network
is guaranteed to not drop packets", slide 8) is the commodity Ethernet of
its day: a store-and-forward switch with *finite* output queues that
drops frames on overflow, leaving recovery to end-to-end retransmission.

The model: every node has a full-duplex link to one switch; each switch
egress has a bounded frame queue.  Congestion (e.g. an all-to-all burst
converging on one egress) overflows the queue and the frame is counted
and discarded — exactly the behaviour AmpNet's insertion flow control
makes impossible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..sim import Counter, Simulator, Store

__all__ = ["EthernetFabric", "EthNode", "EthFrame"]

# Gigabit-class switched LAN parameters.
#: Payload bits per nanosecond (1.0 = gigabit).
RATE_BITS_PER_NS = 1.0
#: One-way cable propagation (ns).
CABLE_NS = 500
#: Switch forwarding latency (ns).
SWITCH_NS = 300
#: Per-frame overhead bytes (preamble + header + FCS + IPG).
OVERHEAD_BYTES = 38


def _wire_ns(frame: "EthFrame") -> int:
    """Serialization time of one frame at line rate."""
    return int(8 * (frame.size_bytes + OVERHEAD_BYTES) / RATE_BITS_PER_NS)


@dataclass
class EthFrame:
    src: int
    dst: int
    size_bytes: int
    tag: object = None
    sent_at: int = 0


class EthNode:
    """One host on the baseline LAN."""

    def __init__(self, fabric: "EthernetFabric", node_id: int):
        self.fabric = fabric
        self.node_id = node_id
        self.on_receive: Optional[Callable[[EthFrame], None]] = None
        self._uplink: Store = Store(fabric.sim)
        fabric.sim.process(self._uplink_proc(), name=f"eth-{node_id}.up")

    def send(self, dst: int, size_bytes: int, tag: object = None) -> None:
        if dst == self.node_id:
            raise ValueError("loopback not modelled")
        frame = EthFrame(self.node_id, dst, size_bytes, tag, self.fabric.sim.now)
        self.fabric.counters.incr("offered")
        self._uplink.put(frame)

    def _uplink_proc(self):
        sim = self.fabric.sim
        while True:
            frame: EthFrame = yield self._uplink.get()
            yield sim.timeout(_wire_ns(frame))
            sim.call_in(CABLE_NS, lambda f=frame: self.fabric._ingress(f))


class EthernetFabric:
    """The switch plus all attached hosts."""

    def __init__(self, sim: Simulator, n_nodes: int, egress_capacity: int = 32):
        """``egress_capacity`` is the frames each switch egress port
        buffers before it tail-drops."""
        if n_nodes < 2:
            raise ValueError("need at least two hosts")
        self.sim = sim
        self.counters = Counter()
        self.nodes: Dict[int, EthNode] = {
            i: EthNode(self, i) for i in range(n_nodes)
        }
        self._egress: Dict[int, Store] = {
            i: Store(sim, capacity=egress_capacity)
            for i in range(n_nodes)
        }
        for i in range(n_nodes):
            sim.process(self._egress_proc(i), name=f"eth-sw.eg{i}")

    # ------------------------------------------------------------ switching
    def _ingress(self, frame: EthFrame) -> None:
        queue = self._egress.get(frame.dst)
        if queue is None:
            self.counters.incr("unknown_dst")
            return
        if not queue.try_put(frame):
            # Tail drop: the defining behaviour of the baseline.
            self.counters.incr("drops")
            return
        self.counters.incr("switched")

    def _egress_proc(self, port: int):
        sim = self.sim
        queue = self._egress[port]
        while True:
            frame: EthFrame = yield queue.get()
            yield sim.timeout(SWITCH_NS)
            yield sim.timeout(_wire_ns(frame))
            sim.call_in(CABLE_NS, lambda f=frame: self._deliver(f))

    def _deliver(self, frame: EthFrame) -> None:
        self.counters.incr("delivered")
        node = self.nodes[frame.dst]
        if node.on_receive is not None:
            node.on_receive(frame)
