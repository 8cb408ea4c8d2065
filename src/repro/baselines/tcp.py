"""Baseline reliable transport: TCP-style sliding window over the LAN.

Minimal but honest mechanics: MSS segmentation, a fixed congestion-ish
window, cumulative acks, retransmission timeout with exponential backoff.
Enough to show the baseline *eventually* delivers everything the fabric
drops — at the cost of timeouts and retransmissions that AmpNet's
drop-free ring never pays (bench F3), and of the coarse timers that
dominate its failover story (bench F9).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

from ..sim import Counter, Event, Simulator
from .ethernet import EthFrame, EthernetFabric

__all__ = ["TcpConnection", "TcpHost"]

MSS_BYTES = 1460
WINDOW_SEGMENTS = 8
#: Initial retransmission timeout (ns) - 1 ms, aggressive for a LAN.
RTO_NS = 1_000_000
RTO_BACKOFF = 2.0
MAX_RTO_NS = 64_000_000
ACK_BYTES = 64


class TcpHost:
    """Demultiplexes TCP segments for one LAN node."""

    def __init__(self, fabric: EthernetFabric, node_id: int):
        self.fabric = fabric
        self.node_id = node_id
        self.connections: Dict[int, "TcpConnection"] = {}
        fabric.nodes[node_id].on_receive = self._on_frame

    def connect(self, dst: int) -> "TcpConnection":
        if dst in self.connections:
            raise ValueError(f"connection to {dst} exists")
        conn = TcpConnection(self, dst)
        self.connections[dst] = conn
        return conn

    def _on_frame(self, frame: EthFrame) -> None:
        kind, payload = frame.tag
        conn = self.connections.get(frame.src)
        if conn is None:
            # Passive open on first segment.
            conn = self.connect(frame.src)
        if kind == "seg":
            conn._on_segment(payload, frame.size_bytes)
        else:
            conn._on_ack(payload)


class TcpConnection:
    """One direction of reliable byte delivery between two hosts."""

    def __init__(self, host: TcpHost, dst: int):
        self.host = host
        self.dst = dst
        self.sim = host.fabric.sim
        self.counters = Counter()

        # sender state
        self._segments: List[int] = []  # byte size per unsent segment
        self._next_seq = 0
        self._send_base = 0
        self._inflight: Dict[int, int] = {}  # seq -> size
        self._rto = RTO_NS
        self._timer_epoch = 0
        self._done_waiters: List[Event] = []
        self.bytes_acked = 0
        self.bytes_submitted = 0

        # receiver state
        self._rcv_next = 0
        self._out_of_order: Set[int] = set()
        self.bytes_received = 0
        self.on_deliver: Optional[Callable[[int], None]] = None

    # ----------------------------------------------------------------- send
    def send(self, n_bytes: int) -> None:
        """Submit bytes for reliable delivery."""
        if n_bytes <= 0:
            raise ValueError("send needs a positive byte count")
        self.bytes_submitted += n_bytes
        while n_bytes > 0:
            seg = min(MSS_BYTES, n_bytes)
            self._segments.append(seg)
            n_bytes -= seg
        self._pump()

    def wait_drained(self) -> Event:
        """Event that fires once everything submitted so far is acked."""
        ev = self.sim.event()
        if self._fully_acked():
            ev.succeed()
        else:
            self._done_waiters.append(ev)
        return ev

    def _fully_acked(self) -> bool:
        return not self._segments and not self._inflight

    def _pump(self) -> None:
        while self._segments and len(self._inflight) < WINDOW_SEGMENTS:
            size = self._segments.pop(0)
            seq = self._next_seq
            self._next_seq += size
            self._inflight[seq] = size
            self._transmit(seq, size)
        if self._inflight:
            self._arm_timer()

    def _transmit(self, seq: int, size: int) -> None:
        self.counters.incr("segments_sent")
        self.host.fabric.nodes[self.host.node_id].send(
            self.dst, size, tag=("seg", seq)
        )

    def _arm_timer(self) -> None:
        self._timer_epoch += 1
        epoch = self._timer_epoch
        self.sim.call_in(self._rto, lambda: self._on_timeout(epoch))

    def _on_timeout(self, epoch: int) -> None:
        if epoch != self._timer_epoch or not self._inflight:
            return
        # Go-back: retransmit the oldest unacked segment.
        seq = min(self._inflight)
        self.counters.incr("retransmits")
        self._rto = min(int(self._rto * RTO_BACKOFF), MAX_RTO_NS)
        self._transmit(seq, self._inflight[seq])
        self._arm_timer()

    def _on_ack(self, ack_seq: int) -> None:
        advanced = False
        for seq in sorted(self._inflight):
            if seq + self._inflight[seq] <= ack_seq:
                size = self._inflight.pop(seq)
                self.bytes_acked += size
                advanced = True
        if advanced:
            self._rto = RTO_NS
            self._send_base = ack_seq
            self.counters.incr("acks_received")
            self._pump()
            if self._fully_acked():
                waiters, self._done_waiters = self._done_waiters, []
                for ev in waiters:
                    ev.succeed()

    # -------------------------------------------------------------- receive
    def _on_segment(self, seq: int, size: int) -> None:
        self.counters.incr("segments_received")
        if seq == self._rcv_next:
            self._rcv_next += size
            self.bytes_received += size
            if self.on_deliver is not None:
                self.on_deliver(size)
            # Absorb any buffered out-of-order segments (sizes tracked
            # implicitly: the baseline sender uses fixed MSS).
            while self._rcv_next in self._out_of_order:
                self._out_of_order.discard(self._rcv_next)
                self._rcv_next += MSS_BYTES
                self.bytes_received += MSS_BYTES
        elif seq > self._rcv_next:
            self._out_of_order.add(seq)
            self.counters.incr("out_of_order")
        else:
            self.counters.incr("duplicates")
        # Cumulative ack.
        self.host.fabric.nodes[self.host.node_id].send(
            self.dst, ACK_BYTES, tag=("ack", self._rcv_next)
        )
