"""Baseline MAC: token passing on the same ring geometry (ablation A1).

A register-insertion ring (AmpNet's MAC) lets every node transmit the
moment it sees a gap; a token ring serializes the entire segment behind
one rotating permission.  Both are drop-free, so the comparison isolates
the *latency/throughput* value of insertion: at low load the token's
rotation time dominates latency; at high load both saturate near line
rate but the token ring adds per-rotation overhead.

The model shares AmpNet's timing constants (same serialization, fibre
and node-latency numbers) so A1 compares MACs, not physics.
"""

from __future__ import annotations

from typing import Callable, Deque, Dict, List, Optional
from collections import deque

from ..phys.constants import (
    NODE_TRANSIT_NS,
    SWITCH_LATENCY_NS,
    propagation_ns,
    serialization_ns,
)
from ..sim import Counter, LatencyStat, Simulator

__all__ = ["TokenRing"]

#: Frames a station may send per token visit.
FRAMES_PER_TOKEN = 1
#: Wire bits per frame (match AmpNet fixed cells).
FRAME_WIRE_BITS = 200
#: Wire bits of the token itself.
TOKEN_WIRE_BITS = 30


class TokenRing:
    """Single-token ring MAC with per-station FIFO queues."""

    def __init__(self, sim: Simulator, n_nodes: int, fiber_m: float = 50.0):
        if n_nodes < 2:
            raise ValueError("token ring needs two stations")
        self.sim = sim
        self.n_nodes = n_nodes
        self.counters = Counter()
        self.latency = LatencyStat()
        self._queues: Dict[int, Deque] = {i: deque() for i in range(n_nodes)}
        self.on_deliver: Optional[Callable[[int, int, object], None]] = None
        # Same per-hop physics as the AmpNet cluster: node -> switch ->
        # node (two fibre legs), so A1 compares MAC disciplines, not
        # geometry.
        self._hop_ns = (
            2 * propagation_ns(fiber_m)
            + SWITCH_LATENCY_NS
            + NODE_TRANSIT_NS
        )
        self._token_ns = serialization_ns(TOKEN_WIRE_BITS)
        self._frame_ns = serialization_ns(FRAME_WIRE_BITS)
        sim.call_in(0, self._token_at, 0, 0)

    def send(self, src: int, dst: int, tag: object = None) -> None:
        """Queue one frame at station ``src``."""
        if src == dst:
            raise ValueError("loopback not modelled")
        self._queues[src].append((dst, tag, self.sim.now))
        self.counters.incr("offered")

    def backlog(self, src: int) -> int:
        return len(self._queues[src])

    def _token_at(self, station: int, sent: int) -> None:
        """``station`` holds the token, having sent ``sent`` frames on
        this visit: serialize its next frame, or pass the token on."""
        queue = self._queues[station]
        if queue and sent < FRAMES_PER_TOKEN:
            self.sim.call_in(
                self._frame_ns, self._sent, station, sent, queue.popleft()
            )
            return
        self.sim.call_in(
            self._token_ns + self._hop_ns,
            self._token_at, (station + 1) % self.n_nodes, 0,
        )

    def _sent(self, station: int, sent: int, frame: tuple) -> None:
        """The frame has left the source: it circulates from ``station``
        to its destination, and the station keeps the token."""
        dst, tag, queued_at = frame
        hops = (dst - station) % self.n_nodes
        travel = hops * self._hop_ns + hops * self._frame_ns
        self.sim.call_in(travel, self._deliver, station, dst, tag, queued_at)
        self.counters.incr("sent")
        self._token_at(station, sent + 1)

    def _deliver(self, src: int, dst: int, tag: object, queued_at: int) -> None:
        self.counters.incr("delivered")
        self.latency.add(self.sim.now - queued_at)
        if self.on_deliver is not None:
            self.on_deliver(src, dst, tag)
