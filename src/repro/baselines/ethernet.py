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

from ..sim import Counter, Simulator

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


def _egress_ns(frame: "EthFrame") -> int:
    """A switch egress holds a frame for forwarding, then serializes it."""
    return SWITCH_NS + _wire_ns(frame)


@dataclass
class EthFrame:
    src: int
    dst: int
    size_bytes: int
    tag: object = None
    sent_at: int = 0


class _Serializer:
    """One port's transmitter: frames wait in a FIFO, hold the line one
    at a time for ``hold_ns(frame)`` and cross the cable to
    ``far_end(frame)``.  ``capacity`` bounds the *waiting* frames (the
    frame on the line has left the buffer); ``None`` is unbounded."""

    __slots__ = ("sim", "hold_ns", "far_end", "capacity", "waiting", "busy")

    def __init__(self, sim: Simulator, hold_ns: Callable[[EthFrame], int],
                 far_end: Callable[[EthFrame], None], capacity: Optional[int]):
        self.sim = sim
        self.hold_ns = hold_ns
        self.far_end = far_end
        self.capacity = capacity
        self.waiting: List[EthFrame] = []
        self.busy = False

    def offer(self, frame: EthFrame) -> bool:
        """Queue ``frame``; False, and nothing queued, when the FIFO is full."""
        if not self.busy:
            self.busy = True
            self.sim.call_in(self.hold_ns(frame), self._sent, frame)
            return True
        if self.capacity is not None and len(self.waiting) >= self.capacity:
            return False
        self.waiting.append(frame)
        return True

    def _sent(self, frame: EthFrame) -> None:
        self.sim.call_in(CABLE_NS, self.far_end, frame)
        if self.waiting:
            nxt = self.waiting.pop(0)
            self.sim.call_in(self.hold_ns(nxt), self._sent, nxt)
        else:
            self.busy = False


class EthNode:
    """One host on the baseline LAN."""

    def __init__(self, fabric: "EthernetFabric", node_id: int):
        self.fabric = fabric
        self.node_id = node_id
        self.on_receive: Optional[Callable[[EthFrame], None]] = None
        self._uplink = _Serializer(fabric.sim, _wire_ns, fabric._ingress, None)

    def send(self, dst: int, size_bytes: int, tag: object = None) -> None:
        if dst == self.node_id:
            raise ValueError("loopback not modelled")
        frame = EthFrame(self.node_id, dst, size_bytes, tag, self.fabric.sim.now)
        self.fabric.counters.incr("offered")
        self._uplink.offer(frame)


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
        self._egress: Dict[int, _Serializer] = {
            i: _Serializer(sim, _egress_ns, self._deliver, egress_capacity)
            for i in range(n_nodes)
        }

    # ------------------------------------------------------------ switching
    def _ingress(self, frame: EthFrame) -> None:
        egress = self._egress.get(frame.dst)
        if egress is None:
            self.counters.incr("unknown_dst")
            return
        if not egress.offer(frame):
            # Tail drop: the defining behaviour of the baseline.
            self.counters.incr("drops")
            return
        self.counters.incr("switched")

    def _deliver(self, frame: EthFrame) -> None:
        self.counters.incr("delivered")
        node = self.nodes[frame.dst]
        if node.on_receive is not None:
            node.on_receive(frame)
