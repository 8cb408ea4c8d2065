"""AmpIP: the IP-datagram personality of the AmpNet driver (slides 11-12).

The paper's stack runs an ordinary IP stack over the AmpNet NIC ("AmpIP
driver"); sockets and MPI/PVM sit on top.  We model the part that
matters for the experiments: an unreliable datagram service with IP-like
addressing mapped onto ring node ids, plus a tiny socket-flavoured
wrapper.  Datagrams ride the same MicroPacket machinery but — true to
UDP semantics — the service does not retransmit: if the ring is down
when a datagram is posted, it is dropped and counted, which is exactly
the contrast the network-cache services are designed to win against.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple, TYPE_CHECKING

from ..sim import Counter, Event
from ..transport import Channel

if TYPE_CHECKING:  # pragma: no cover
    from ..node import AmpNode

__all__ = ["AmpIP", "DatagramSocket"]


class AmpIP:
    """Datagram endpoint: node ids as addresses, 16-bit ports."""

    def __init__(self, node: "AmpNode"):
        self.node = node
        self.counters = Counter()
        self._sockets: Dict[int, "DatagramSocket"] = {}
        node.messenger.on_message(Channel.GENERAL, self._on_message)

    def socket(self, port: int) -> "DatagramSocket":
        if not 0 <= port <= 0xFFFF:
            raise ValueError("port out of range")
        if port in self._sockets:
            raise ValueError(f"port {port} already bound")
        sock = DatagramSocket(self, port)
        self._sockets[port] = sock
        return sock

    def _close(self, port: int) -> None:
        self._sockets.pop(port, None)

    def send_datagram(
        self, dst: int, dst_port: int, payload: bytes, src_port: int = 0
    ) -> bool:
        """Fire-and-forget datagram; False if the ring is down right now."""
        if not self.node.ring_up:
            self.counters.incr("dropped_ring_down")
            return False
        header = dst_port.to_bytes(2, "little") + src_port.to_bytes(2, "little")
        self.node.messenger.send(dst, header + payload, Channel.GENERAL)
        self.counters.incr("datagrams_sent")
        return True

    def _on_message(self, src: int, raw: bytes, channel: int) -> None:
        dst_port = int.from_bytes(raw[:2], "little")
        src_port = int.from_bytes(raw[2:4], "little")
        payload = raw[4:]
        sock = self._sockets.get(dst_port)
        if sock is None:
            self.counters.incr("no_socket_drop")
            return
        self.counters.incr("datagrams_received")
        sock._deliver((src, src_port), payload)


class DatagramSocket:
    """A bound port with blocking receive."""

    def __init__(self, ip: AmpIP, port: int):
        self.ip = ip
        self.port = port
        self._queue: Deque[Tuple[int, bytes]] = deque()
        self._waiters: Deque[Event] = deque()
        self.closed = False

    def sendto(self, dst: int, dst_port: int, payload: bytes) -> bool:
        """Send to (node ``dst``, port ``dst_port``), like UDP sendto."""
        if self.closed:
            raise ValueError("socket closed")
        return self.ip.send_datagram(dst, dst_port, payload, src_port=self.port)

    def recvfrom(self):
        """Process: returns ((src_node, src_port), payload)."""
        while True:
            if self._queue:
                return self._queue.popleft()
            ev = self.ip.node.sim.event()
            self._waiters.append(ev)
            yield ev

    def _deliver(self, addr: Tuple[int, int], payload: bytes) -> None:
        self._queue.append((addr, payload))
        if self._waiters:
            self._waiters.popleft().succeed()

    def close(self) -> None:
        self.closed = True
        self.ip._close(self.port)
