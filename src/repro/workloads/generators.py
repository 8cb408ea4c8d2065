"""Workload generators for the experiments.

Slide 7 motivates AmpNet with nodes concurrently inserting *multiple*
data streams — applications sending files next to applications sending
messages.  These generators drive exactly those traffic classes through
the public MAC/transport APIs and account for what was offered,
delivered and dropped, which is all the benchmarks need.

Every generator answers the same three questions (:class:`Workload`):
``expected_deliveries()``, ``stream_stats()`` and ``close()`` — it owns
the receive handlers it installs and removes them again in ``close()``,
so several sequential workloads can share one cluster without
double-counting each other's deliveries.  Stochastic
arrival processes (Poisson, inhomogeneous Poisson, on/off bursts) build
on the same machinery in :mod:`repro.workloads.stochastic` by overriding
the :meth:`MessageStream._gap_ns` hook.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, TYPE_CHECKING

from ..micropacket import BROADCAST, MicroPacket, MicroPacketType
from ..sim import LatencyStat

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster import AmpNetCluster

__all__ = [
    "StreamStats",
    "Workload",
    "MessageStream",
    "FileStream",
    "AllToAllBroadcast",
    "ClusterBroadcastStream",
    "run_slide7_mixed_workload",
]


@dataclass
class StreamStats:
    """Per-stream accounting shared by all generators."""

    name: str
    offered: int = 0
    delivered: int = 0
    bytes_delivered: int = 0
    latency: LatencyStat = field(default_factory=LatencyStat)

    def as_dict(self) -> Dict[str, float]:
        """JSON-friendly summary used by the scenario/bench harnesses."""
        out: Dict[str, float] = {
            "name": self.name,
            "offered": self.offered,
            "delivered": self.delivered,
            "bytes_delivered": self.bytes_delivered,
        }
        if self.latency.count:
            out["latency"] = self.latency.summary()
        return out


class Workload:
    """What the scenario runner (and any other harness) asks of every
    generator, whatever its traffic shape.  The defaults describe a
    single-stream generator with ``cluster``/``count``/``dst``/``stats``
    attributes; fan-out generators override them."""

    def expected_deliveries(self) -> int:
        """Deliveries a loss-free, duplicate-free run ends with."""
        fanout = len(self.cluster.nodes) - 1 if self.dst == BROADCAST else 1
        return self.count * fanout

    def stream_stats(self) -> List[StreamStats]:
        """One :class:`StreamStats` per accounted stream."""
        return [self.stats]

    def close(self) -> None:
        """Remove every receive handler the generator installed
        (idempotent)."""
        raise NotImplementedError


class MessageStream(Workload):
    """Fixed-cell DATA messages from one node at a constant rate.

    ``reliable=True`` routes the same payloads through the node's
    messenger instead of raw MAC cells: deliveries then survive ring
    teardowns via the messenger's retransmission, which is what fault
    scenarios need to assert "everything offered arrived".

    ``dst_pool`` replaces the single ``dst`` with a set of candidate
    destinations: each message picks one uniformly from a dedicated
    ``workload.<name>.dst`` random stream (deterministic under the
    master seed, and isolated so pooling never perturbs the arrival
    draws).  Pools are how routed scenarios spray traffic across
    ``(segment, node)`` addresses; they require ``reliable=True`` and an
    explicit ``name``.
    """

    def __init__(
        self,
        cluster: "AmpNetCluster",
        src: int,
        dst: Optional[int],
        interval_ns: int = 0,
        count: int = 1,
        channel: int = 0,
        name: Optional[str] = None,
        reliable: bool = False,
        size_fn: Optional[Callable[[int], int]] = None,
        dst_pool: Optional[Sequence] = None,
        start_ns: int = 0,
    ):
        self.cluster = cluster
        self.src = src
        self.dst = dst
        self.interval_ns = interval_ns
        self.count = count
        self.channel = channel
        self.reliable = reliable
        #: delay before the first send — mesh scenarios use it to hold
        #: multi-hop traffic until the routers' distance-vector exchange
        #: has had a few advertise periods to converge.
        self.start_ns = start_ns
        #: optional per-message payload size hook (seq -> bytes); sizes
        #: above one cell require the messenger's fragmentation, so a
        #: sized stream must be reliable (see pareto_size_fn).
        self.size_fn = size_fn
        if reliable and dst == BROADCAST:
            raise ValueError("reliable streams need a unicast destination")
        if size_fn is not None and not reliable:
            raise ValueError(
                "size_fn payloads exceed one fixed cell; use reliable=True"
            )
        if dst_pool is not None:
            if dst is not None:
                raise ValueError("dst and dst_pool are mutually exclusive")
            if not reliable:
                raise ValueError("dst_pool streams must be reliable=True")
            if name is None:
                raise ValueError("dst_pool streams need an explicit name "
                                 "(it seeds the destination stream)")
            pool = [tuple(d) if isinstance(d, list) else d for d in dst_pool]
            if not pool:
                raise ValueError("dst_pool must not be empty")
            if src in pool:
                raise ValueError("dst_pool must not contain the source")
            if len(set(pool)) != len(pool):
                raise ValueError("dst_pool entries must be distinct")
            self._dst_rng = cluster.sim.rng.stream(f"workload.{name}.dst")
            self.dst_pool: Optional[List] = pool
        elif dst is None:
            raise ValueError("stream needs a dst (or a dst_pool)")
        else:
            self.dst_pool = None
        self.stats = StreamStats(name or f"msg-{src}->{dst}")
        #: simulated send instant of every offered packet (tests and the
        #: stochastic property suite assert on arrival processes)
        self.tx_times: List[int] = []
        self._sent_at: Dict[bytes, int] = {}
        self._rx_nodes: List = []
        self.closed = False
        self._install_rx()
        cluster.sim.call_in(start_ns, self._send, 0)

    # ------------------------------------------------------------ receive
    def _install_rx(self) -> None:
        if self.dst_pool is not None:
            for dst in self.dst_pool:
                self.cluster.nodes[dst].messenger.on_message(
                    self.channel, self._rx_reliable
                )
            return
        if self.reliable:
            self.cluster.nodes[self.dst].messenger.on_message(
                self.channel, self._rx_reliable
            )
            return
        if self.dst == BROADCAST:
            targets = [n for i, n in self.cluster.nodes.items() if i != self.src]
        else:
            targets = [self.cluster.nodes[self.dst]]
        for node in targets:
            node.register_default(self._rx)
            self._rx_nodes.append(node)

    def close(self) -> None:
        """Remove every handler this stream installed (idempotent)."""
        if self.closed:
            return
        self.closed = True
        if self.dst_pool is not None:
            for dst in self.dst_pool:
                self.cluster.nodes[dst].messenger.off_message(self.channel)
        elif self.reliable:
            self.cluster.nodes[self.dst].messenger.off_message(self.channel)
        for node in self._rx_nodes:
            node.unregister_default(self._rx)
        self._rx_nodes.clear()

    def _rx(self, pkt: MicroPacket, frame) -> None:
        if pkt.ptype != MicroPacketType.DATA or pkt.src != self.src:
            return
        if pkt.channel != self.channel:
            return
        self.stats.delivered += 1
        self.stats.bytes_delivered += len(pkt.payload)
        if frame.inserted_at is not None:
            self.stats.latency.add(self.cluster.sim.now - frame.inserted_at)

    def _rx_reliable(self, src: int, payload: bytes, channel: int) -> None:
        if src != self.src:
            return
        self.stats.delivered += 1
        self.stats.bytes_delivered += len(payload)
        start = self._sent_at.pop(payload[:8], None)
        if start is not None:
            self.stats.latency.add(self.cluster.sim.now - start)

    # ----------------------------------------------------------- transmit
    def _gap_ns(self, seq: int) -> int:
        """Inter-arrival gap after packet ``seq``; hook for stochastic
        subclasses (must be deterministic given the cluster's seed)."""
        return self.interval_ns

    def _payload_for(self, seq: int) -> bytes:
        """Eight-byte sequence header, padded out to the hooked size."""
        header = seq.to_bytes(8, "little")
        if self.size_fn is None:
            return header
        size = max(8, int(self.size_fn(seq)))
        return header + bytes((seq + i) % 256 for i in range(size - 8))

    def _dst_for(self, seq: int):
        """Destination of packet ``seq`` (drawn from the pool if any)."""
        if self.dst_pool is None:
            return self.dst
        return self.dst_pool[self._dst_rng.randrange(len(self.dst_pool))]

    def _send(self, seq: int) -> None:
        """Offer packet ``seq``, then post the next send one gap later."""
        if seq == self.count:
            return
        sim = self.cluster.sim
        node = self.cluster.nodes[self.src]
        payload = self._payload_for(seq)
        self.tx_times.append(sim.now)
        if self.reliable:
            self._sent_at[payload[:8]] = sim.now
            node.messenger.send(self._dst_for(seq), payload, self.channel)
        else:
            pkt = MicroPacket(
                ptype=MicroPacketType.DATA,
                src=self.src,
                dst=self.dst,
                channel=self.channel,
                payload=payload,
            ).with_seq(seq)
            node.send(pkt)
        self.stats.offered += 1
        sim.call_in(max(0, self._gap_ns(seq)), self._send, seq + 1)


class FileStream(MessageStream):
    """Bulk transfer: reliable messages of file-sized chunks, each sent
    once the previous one is confirmed delivered."""

    def __init__(
        self,
        cluster: "AmpNetCluster",
        src: int,
        dst: int,
        chunk_bytes: int = 2048,
        count: int = 1,
        channel: int = 11,
        name: Optional[str] = None,
    ):
        self.chunk_bytes = chunk_bytes
        super().__init__(
            cluster, src, dst, count=count, channel=channel,
            name=name or f"file-{src}->{dst}",
            reliable=True, size_fn=lambda seq: chunk_bytes,
        )

    def _send(self, seq: int) -> None:
        """Send chunk ``seq``; its delivery sends the next one."""
        if seq == self.count:
            return
        sim = self.cluster.sim
        body = self._payload_for(seq)
        self.tx_times.append(sim.now)
        self._sent_at[body[:8]] = sim.now
        handle = self.cluster.nodes[self.src].messenger.send(
            self.dst, body, self.channel
        )
        self.stats.offered += 1
        handle.delivered.callbacks.append(lambda _ev: self._send(seq + 1))


class AllToAllBroadcast(Workload):
    """Every node broadcasts ``count`` cells as fast as flow control
    allows — the slide-8 stress case.  ``stats`` is one
    :class:`StreamStats` per source node."""

    def __init__(self, cluster: "AmpNetCluster", count: int,
                 channel: int = 3):
        self.cluster = cluster
        self.count = count
        self.channel = channel
        self.stats: Dict[int, StreamStats] = {}
        self.closed = False
        self._sinks: List = []
        for node_id, node in cluster.nodes.items():
            self.stats[node_id] = StreamStats(f"bcast-{node_id}")
            sink = self._make_rx(node_id)
            node.register_default(sink)
            self._sinks.append((node, sink))
        for node_id in cluster.nodes:
            cluster.sim.call_in(0, self._send, node_id, 0)

    def close(self) -> None:
        """Remove every per-node default sink (idempotent)."""
        if self.closed:
            return
        self.closed = True
        for node, sink in self._sinks:
            node.unregister_default(sink)
        self._sinks.clear()

    def _make_rx(self, me: int):
        # Bound locally: this sink runs once per delivery per node, which
        # is count * n * (n-1) times per storm.
        stats_by_src = self.stats
        channel = self.channel
        data = MicroPacketType.DATA
        sim = self.cluster.sim

        def rx(pkt: MicroPacket, frame) -> None:
            if pkt.ptype != data or pkt.channel != channel:
                return
            stats = stats_by_src[pkt.src]
            stats.delivered += 1
            stats.bytes_delivered += len(pkt.payload)
            if frame.inserted_at is not None:
                stats.latency.add(sim._now - frame.inserted_at)

        return rx

    def _send(self, node_id: int, seq: int) -> None:
        """Broadcast cell ``seq`` from ``node_id``; the next one goes in
        the next schedule entry of the same instant."""
        if seq == self.count:
            return
        pkt = MicroPacket(
            ptype=MicroPacketType.DATA,
            src=node_id,
            dst=BROADCAST,
            channel=self.channel,
            payload=seq.to_bytes(8, "little"),
        ).with_seq(seq)
        self.cluster.nodes[node_id].send(pkt)
        self.stats[node_id].offered += 1
        self.cluster.sim.call_in(0, self._send, node_id, seq + 1)

    # ------------------------------------------------------------- queries
    def total_drops(self) -> int:
        return sum(
            node.mac.counters["transit_overflow_drop"]
            for node in self.cluster.nodes.values()
        )

    def expected_deliveries(self) -> int:
        n = len(self.cluster.nodes)
        return self.count * n * (n - 1)

    def stream_stats(self) -> List[StreamStats]:
        return list(self.stats.values())

    def total_delivered(self) -> int:
        return sum(s.delivered for s in self.stats.values())

    def complete(self) -> bool:
        return self.total_delivered() >= self.expected_deliveries()


class ClusterBroadcastStream(Workload):
    """One node floods the whole routed cluster over the spanning tree.

    Each of the ``count`` broadcasts is a
    :meth:`~repro.transport.Messenger.send_cluster_broadcast`: the frame
    tours the source's ring like any broadcast, and the segment routers
    re-originate it into every other segment exactly once (converged
    tree; origin-keyed dedup absorbs pre-convergence transients).  Every
    *other* node of the cluster — gateway nodes included — counts each
    flood once, so :meth:`expected_deliveries` is
    ``count * (n_nodes - 1)``.
    """

    def __init__(
        self,
        cluster,
        src,
        interval_ns: int = 0,
        count: int = 1,
        channel: int = 0,
        name: Optional[str] = None,
        start_ns: int = 0,
    ):
        self.cluster = cluster
        self.src = tuple(src)
        self.interval_ns = interval_ns
        self.count = count
        self.channel = channel
        self.start_ns = start_ns
        self.stats = StreamStats(
            name or f"cbcast-{self.src[0]}.{self.src[1]}"
        )
        self.tx_times: List[int] = []
        self._sent_at: Dict[bytes, int] = {}
        self.closed = False
        for node in cluster.nodes.values():
            node.messenger.on_message(channel, self._rx)
        cluster.sim.call_in(start_ns, self._send, 0)

    def close(self) -> None:
        """Release the channel on every node (idempotent)."""
        if self.closed:
            return
        self.closed = True
        for node in self.cluster.nodes.values():
            node.messenger.off_message(self.channel)

    def _rx(self, src, payload: bytes, channel: int) -> None:
        if src != self.src:
            return
        self.stats.delivered += 1
        self.stats.bytes_delivered += len(payload)
        start = self._sent_at.get(payload[:8])
        if start is not None:
            self.stats.latency.add(self.cluster.sim.now - start)

    def _send(self, seq: int) -> None:
        """Flood broadcast ``seq``, then post the next one."""
        if seq == self.count:
            return
        sim = self.cluster.sim
        payload = seq.to_bytes(8, "little")
        self.tx_times.append(sim.now)
        self._sent_at[payload[:8]] = sim.now
        self.cluster.nodes[self.src].messenger.send_cluster_broadcast(
            payload, self.channel
        )
        self.stats.offered += 1
        sim.call_in(max(0, self.interval_ns), self._send, seq + 1)

    # ------------------------------------------------------------- queries
    def expected_deliveries(self) -> int:
        return self.count * (len(self.cluster.nodes) - 1)


def run_slide7_mixed_workload(cluster: "AmpNetCluster", duration_tours: int = 400):
    """The slide-7 scenario: files and messages inserted concurrently.

    Node 0 and node 3 send files; node 1 and node 2 send messages, all
    at once.  Returns the four streams' stats.
    """
    streams = [
        FileStream(cluster, 0, 2, chunk_bytes=2048, count=8, channel=11),
        MessageStream(cluster, 1, 3, interval_ns=5_000, count=200, channel=0),
        MessageStream(cluster, 2, 0, interval_ns=5_000, count=200, channel=1),
        FileStream(cluster, 3, 1, chunk_bytes=2048, count=8, channel=12),
    ]
    cluster.run(until=cluster.sim.now + duration_tours * cluster.tour_estimate_ns)
    for s in streams:
        s.close()
    return [s.stats for s in streams]
