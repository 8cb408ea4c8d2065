"""Reliable messaging over the ring: fragmentation, tours-as-acks,
retransmission across roster changes.

The ring MAC gives the messenger a strong primitive for free: every frame
is source-stripped, so *a completed tour proves every current ring member
saw the frame*.  The messenger layers on top:

* **Fragmentation** — arbitrary byte messages ride variable-format DMA
  MicroPackets, 64 payload bytes per cell, identified by a per-node
  ``transfer_id`` carried in the DMA control block and ordered by the
  block's ``offset`` field (exactly what those fields are for, slide 6).
* **Single-cell signals** — eight-byte INTERRUPT cells for completions
  and service doorbells (slide 4's Interrupt type).
* **Reliability** — a frame whose tour completes is confirmed.  When the
  ring goes down mid-tour the MAC reports the loss and the messenger
  retransmits once the next roster installs.  Receivers apply fragments
  idempotently, so retransmission needs no dedup handshake; completed
  messages are remembered to suppress duplicate *delivery*.

This is the mechanism behind the paper's "no data loss" claim: anything
accepted by the messenger survives any failure the rostering layer can
heal, because unconfirmed work is simply replayed onto the new ring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union, TYPE_CHECKING

from ..micropacket import (
    BROADCAST,
    DmaControl,
    Flags,
    MicroPacket,
    MicroPacketType,
    VARIABLE_PAYLOAD_MAX,
)
from ..sim import Counter, Event

if TYPE_CHECKING:  # pragma: no cover
    from ..node import AmpNode

__all__ = [
    "Messenger", "MessageHandle", "Channel", "GlobalAddress", "TransferTable",
]

#: Cluster-wide address of a node in a router-joined multi-ring cluster:
#: ``(segment_id, node_id)``.  Every segment keeps its own 8-bit MAC
#: space; the segment id disambiguates (see :mod:`repro.routing`).
GlobalAddress = Tuple[int, int]


class Channel:
    """Well-known message/signal channel assignments (4-bit space)."""

    GENERAL = 0
    CACHE = 1
    REFRESH = 2
    SEMAPHORE = 3
    SUBSCRIBE = 4
    FILES = 5
    THREADS = 6
    CONTROL_GROUP = 7
    RDMA = 8
    MPI = 9
    MEMBERSHIP = 10
    #: Reserved by :mod:`repro.routing` on multi-segment clusters for
    #: router route/liveness advertisements (single-segment clusters may
    #: use it freely, e.g. as a file-stream channel).
    ROUTING = 11
    # 14/15 are reserved by AmpDK diagnostics.


#: Completed transfers a :class:`TransferTable` remembers.
_COMPLETED_CACHE = 4096

#: Hardware DMA channels on the NIC (slide 11: sixteen DMA channels).
_N_DMA_CHANNELS = 16


@dataclass
class MessageHandle:
    """Tracks one outgoing message end-to-end."""

    transfer_id: int
    dst: int
    channel: int
    size: int
    delivered: Event
    #: fragments not yet confirmed by a completed tour
    unconfirmed: Dict[int, MicroPacket] = field(default_factory=dict)
    retransmits: int = 0

    @property
    def complete(self) -> bool:
        return not self.unconfirmed


class _Reassembly:
    """Receive-side state for one (src, transfer_id)."""

    __slots__ = ("chunks", "total", "channel")

    def __init__(self) -> None:
        self.chunks: Dict[int, bytes] = {}
        self.total: Optional[int] = None
        self.channel = 0

    def add(self, offset: int, data: bytes, last: bool, channel: int) -> Optional[bytes]:
        self.chunks[offset] = data
        self.channel = channel
        if last:
            self.total = offset + len(data)
        if self.total is None:
            return None
        have = sum(len(c) for c in self.chunks.values())
        if have < self.total:
            return None
        # Verify contiguity and assemble.
        out = bytearray(self.total)
        covered = 0
        for off in sorted(self.chunks):
            chunk = self.chunks[off]
            if off != covered:
                return None  # gap (overlapping retransmit mismatch)
            out[off : off + len(chunk)] = chunk
            covered = off + len(chunk)
        return bytes(out)


class TransferTable:
    """Receive-side transfer state, shared by the messenger and the
    segment routers: fragments reassemble under the key they arrive
    with, and the last ``_COMPLETED_CACHE`` completed keys are
    remembered (oldest evicted first) so a late copy is recognised as a
    duplicate instead of being delivered, or ferried, twice.

    A key is one int, packed where it is made: ``src << 16 |
    transfer_id`` (below ``1 << 24``) for local traffic, and for ferried
    traffic the origin's end-to-end identity ``(src_segment + 1) << 24 |
    src_node << 16 | transfer_id`` — stable across router
    re-originations, which is what suppresses a redundant router's replay.
    """

    def __init__(self) -> None:
        self._reassembly: Dict[int, _Reassembly] = {}
        self._completed: Dict[int, None] = {}  # in completion order

    def __contains__(self, key: int) -> bool:
        """True when ``key`` names a remembered completed transfer."""
        return key in self._completed

    def add(self, key: int, pkt: MicroPacket) -> Optional[Tuple[bytes, int]]:
        """Apply one DMA fragment of transfer ``key``; returns the
        ``(payload, channel)`` of the message it completes, which is
        then remembered, or None while fragments are missing."""
        state = self._reassembly.get(key)
        if state is None:
            state = self._reassembly[key] = _Reassembly()
        dma = pkt.dma
        payload = state.add(dma.offset, pkt.payload, dma.last, pkt.channel)
        if payload is None:
            return None
        del self._reassembly[key]
        self.remember(key)
        return payload, state.channel

    def remember(self, key: int) -> None:
        """Record ``key`` as completed, evicting the oldest past the cap."""
        self._completed[key] = None
        if len(self._completed) > _COMPLETED_CACHE:
            del self._completed[next(iter(self._completed))]

    def clear(self) -> None:
        self._reassembly.clear()
        self._completed.clear()


#: (src, payload, channel) — src is an int node id for same-segment
#: traffic, a (segment, node) GlobalAddress for ferried traffic.
MessageFn = Callable[[Union[int, GlobalAddress], bytes, int], None]
SignalFn = Callable[[int, bytes], None]         # (src, payload8)


class Messenger:
    """Per-node reliable messaging endpoint."""

    def __init__(self, node: "AmpNode"):
        self.node = node
        self.sim = node.sim
        self.name = f"msgr-{node.node_id}"
        self.counters = Counter()
        #: Segment this node belongs to in a router-joined cluster (set
        #: by :class:`repro.routing.RoutedCluster`; None = classic
        #: single-segment operation, where global sends are rejected).
        self.segment_id: Optional[int] = None

        self._next_tid = 1
        self._outgoing: Dict[int, MessageHandle] = {}
        self._transfers = TransferTable()
        # Per-channel dispatch tables: the channel space is 4 bits, so a
        # sixteen-slot list replaces dict hashing on every delivery.
        self._message_handlers: List[Optional[MessageFn]] = [None] * 16
        self._signal_handlers: List[Optional[SignalFn]] = [None] * 16

        node.register_handler(MicroPacketType.DMA, None, self._on_dma)
        node.register_handler(MicroPacketType.INTERRUPT, None, self._on_interrupt)
        node.tour_complete_listeners.append(self._on_tour_complete)
        node.tour_lost_listeners.append(self._on_tour_lost)
        node.ring_up_listeners.append(self._on_ring_up)
        node.crash_listeners.append(self.reset)

    def reset(self) -> None:
        """Forget all in-flight state (node crash: NIC memory lost)."""
        self._outgoing.clear()
        self._transfers.clear()

    # ---------------------------------------------------------------- send
    def send(
        self,
        dst: Union[int, GlobalAddress],
        payload: bytes,
        channel: int = Channel.GENERAL,
    ) -> MessageHandle:
        """Queue a reliable message; the handle's event fires on confirm.

        ``dst`` may be :data:`~repro.micropacket.BROADCAST`, in which case
        confirmation means every *current* ring member received it.  On a
        router-joined cluster ``dst`` may also be a
        :data:`GlobalAddress` ``(segment, node)``: same-segment addresses
        short-cut onto the local ring, anything else carries the
        global-address header extension and is ferried across by the
        segment routers.  For a routed message the handle confirms
        *local-ring acceptance* (the frame completed its tour, so a
        router holds it); end-to-end progress is then the routing
        layer's store-and-forward responsibility.

        Broadcasts stop at the segment edge; one that should reach every
        segment is a :meth:`send_cluster_broadcast`.
        """
        if isinstance(dst, tuple):
            return self.send_global(dst, payload, channel)
        return self._send_fragments(dst, payload, channel, None, None)

    def send_cluster_broadcast(
        self,
        payload: bytes,
        channel: int = Channel.GENERAL,
        origin: Optional[GlobalAddress] = None,
        wire_tid: Optional[int] = None,
    ) -> MessageHandle:
        """Broadcast to every node of every segment (routed clusters).

        The frame tours the local ring as an ordinary broadcast (every
        local member delivers it; tour-as-ack confirms local acceptance)
        while the set ``cluster_broadcast`` header bit makes the segment
        routers capture it and re-originate it over the spanning tree
        into every other segment.  ``origin``/``wire_tid`` follow
        :meth:`send_global`'s contract: supplied only by a re-originating
        gateway so the transfer's end-to-end identity stays stable.
        """
        if self.segment_id is None:
            raise ValueError(
                "cluster broadcasts need a routed cluster "
                "(this node has no segment id)"
            )
        if origin is None:
            origin = (self.segment_id, self.node.node_id)
        handle = self._send_fragments(
            BROADCAST, payload, channel, origin, None, wire_tid,
            cluster_broadcast=True,
        )
        if origin != (self.segment_id, self.node.node_id):
            # A re-originating gateway source-strips its own frame off
            # the ring, so it would be the one cluster member that never
            # hears the broadcast it relays.  Deliver locally, through
            # the same origin-keyed dedup the receive path uses.
            key = (origin[0] + 1) << 24 | origin[1] << 16 | wire_tid
            if key not in self._transfers:
                self._transfers.remember(key)
                self.counters.incr("messages_received")
                self.counters.incr("broadcast_self_deliveries")
                handler = self._message_handlers[channel]
                if handler is not None:
                    handler(origin, payload, channel)
        return handle

    def send_global(
        self,
        dst: GlobalAddress,
        payload: bytes,
        channel: int = Channel.GENERAL,
        origin: Optional[GlobalAddress] = None,
        wire_tid: Optional[int] = None,
    ) -> MessageHandle:
        """Send to a ``(segment, node)`` global address.

        ``origin`` is only supplied by the routing layer when it
        re-originates a message it ferried: the header then preserves
        the *original* sender's global address instead of naming this
        (gateway) node, so the receiver can reply across segments.
        ``wire_tid`` rides with it: the *origin's* transfer id carried
        on the wire instead of a fresh local one, keeping the message's
        end-to-end identity ``(origin, transfer id)`` stable across any
        number of re-originations — which is what lets every hop and the
        final destination suppress duplicate copies when redundant
        routers replay a crossing after a failover.
        """
        seg, node = dst
        if self.segment_id is None:
            raise ValueError(
                "global addressing needs a routed cluster "
                "(this node has no segment id)"
            )
        if origin is None:
            origin = (self.segment_id, self.node.node_id)
        # Same-segment addresses stay on the local ring (dst_segment
        # matches, so no router captures the frames), but the extension
        # still rides along: a handler addressed globally always sees a
        # global source, wherever the sender happened to live.
        return self._send_fragments(node, payload, channel, origin, seg,
                                    wire_tid)

    def _send_fragments(
        self,
        dst: int,
        payload: bytes,
        channel: int,
        origin: Optional[GlobalAddress],
        dst_segment: Optional[int],
        wire_tid: Optional[int] = None,
        cluster_broadcast: bool = False,
    ) -> MessageHandle:
        if not payload:
            raise ValueError("empty message")
        if not 0 <= channel <= 0xF:
            raise ValueError("channel out of range")
        tid = self._next_tid
        self._next_tid = self._next_tid % 0xFFFF + 1
        handle = MessageHandle(
            transfer_id=tid, dst=dst, channel=channel,
            size=len(payload), delivered=self.sim.event(),
        )
        src_segment = origin[0] if origin is not None else None
        src_node = origin[1] if origin is not None else None
        # The wire id is normally the local one; a ferrying gateway
        # substitutes the origin's so the end-to-end identity survives
        # re-origination.  Local bookkeeping (handle map, frame tags)
        # always keys on the local tid, so colliding origin ids from
        # different senders never cross wires inside this messenger.
        carried_tid = tid if wire_tid is None else wire_tid
        self._outgoing[tid] = handle
        for offset in range(0, len(payload), VARIABLE_PAYLOAD_MAX):
            chunk = payload[offset : offset + VARIABLE_PAYLOAD_MAX]
            last = offset + len(chunk) >= len(payload)
            pkt = MicroPacket(
                ptype=MicroPacketType.DMA,
                src=self.node.node_id,
                dst=dst,
                channel=channel,
                payload=chunk,
                dma=DmaControl(
                    channel=carried_tid % _N_DMA_CHANNELS,
                    offset=offset,
                    transfer_id=carried_tid,
                    last=last,
                    src_segment=src_segment,
                    src_node=src_node,
                    dst_segment=dst_segment,
                    cluster_broadcast=cluster_broadcast,
                ),
            )
            handle.unconfirmed[offset] = pkt
        self.counters.incr("messages_sent")
        self.counters.incr("fragments_sent", len(handle.unconfirmed))
        self._stream(handle)
        return handle

    def _stream(self, handle: MessageHandle) -> None:
        """Hand every unconfirmed fragment of ``handle`` (the whole
        message, or what a ring-up replay finds outstanding) to the MAC,
        in offset order."""
        send = self.node.mac.send
        tid = handle.transfer_id
        for offset, pkt in handle.unconfirmed.items():  # offset order
            send(pkt).msg_tag = (tid, offset)

    def signal(
        self,
        dst: int,
        payload: bytes,
        channel: int = Channel.GENERAL,
    ):
        """Send a single priority INTERRUPT cell (<= 8 bytes).

        Fixed-format cells have no reserved header bits for the
        global-address extension, so signals cannot cross segments —
        wrap cross-segment signalling in a (one-fragment) message.
        """
        if isinstance(dst, tuple):
            raise ValueError(
                "signals cannot carry a global address (fixed cells "
                "have no routed header); send a message instead"
            )
        if len(payload) > 8:
            raise ValueError("signals carry at most eight bytes")
        pkt = MicroPacket(
            ptype=MicroPacketType.INTERRUPT,
            src=self.node.node_id,
            dst=dst,
            channel=channel,
            flags=Flags.PRIORITY,
            payload=payload,
        )
        self.counters.incr("signals_sent")
        return self.node.mac.send(pkt)

    # ------------------------------------------------------------- receive
    def on_message(self, channel: int, fn: MessageFn) -> None:
        if not 0 <= channel <= 0xF:
            raise ValueError("channel out of range")
        if self._message_handlers[channel] is not None:
            raise ValueError(f"message channel {channel} already claimed")
        self._message_handlers[channel] = fn

    def on_signal(self, channel: int, fn: SignalFn) -> None:
        if not 0 <= channel <= 0xF:
            raise ValueError("channel out of range")
        if self._signal_handlers[channel] is not None:
            raise ValueError(f"signal channel {channel} already claimed")
        self._signal_handlers[channel] = fn

    def off_message(self, channel: int) -> None:
        """Release a message channel so a later workload can claim it."""
        if 0 <= channel <= 0xF:
            self._message_handlers[channel] = None

    def _on_dma(self, pkt: MicroPacket, frame) -> None:
        dma = pkt.dma
        if (
            dma.cluster_broadcast
            and dma.src_segment == self.segment_id
            and dma.src_node == self.node.node_id
        ):
            # A router fanning out our own cluster broadcast may reflect
            # a copy back onto this ring before the spanning tree has
            # settled; the origin never delivers to itself.
            self.counters.incr("own_broadcast_echoes")
            return
        # Ferried fragments are keyed by the *origin's* global address
        # and transfer id (stable across router re-originations): two
        # gateways replaying the same crossing — redundant routers
        # during a failover — land on one reassembly, and the second
        # copy is suppressed as a duplicate instead of delivered twice.
        if dma.src_segment is not None:
            key = (dma.src_segment + 1) << 24 | dma.src_node << 16 | dma.transfer_id
        else:
            key = pkt.src << 16 | dma.transfer_id
        if key in self._transfers:
            self.counters.incr("duplicate_fragments")
            return
        done = self._transfers.add(key, pkt)
        self.counters.incr("fragments_received")
        if done is None:
            return
        payload, channel = done
        self.counters.incr("messages_received")
        handler = self._message_handlers[channel]
        if handler is not None:
            # Ferried messages carry the original sender's global
            # address in the header extension; hand that to the handler
            # (instead of the re-originating gateway's MAC id) so
            # replies can cross back.
            if dma.src_segment is not None:
                handler((dma.src_segment, dma.src_node), payload, channel)
            else:
                handler(pkt.src, payload, channel)

    def _on_interrupt(self, pkt: MicroPacket, frame) -> None:
        self.counters.incr("signals_received")
        handler = self._signal_handlers[pkt.channel]
        if handler is not None:
            handler(pkt.src, pkt.payload)

    # -------------------------------------------------------- reliability
    def _on_tour_complete(self, frame) -> None:
        tag = frame.msg_tag
        if tag is None:
            return
        tid, offset = tag
        handle = self._outgoing.get(tid)
        if handle is None:
            return
        handle.unconfirmed.pop(offset, None)
        if handle.complete:
            del self._outgoing[tid]
            self.counters.incr("messages_confirmed")
            if not handle.delivered.triggered:
                handle.delivered.succeed(handle)

    def _on_tour_lost(self, frame) -> None:
        tag = frame.msg_tag
        if tag is None:
            return
        self.counters.incr("fragments_lost")
        # Leave the fragment in handle.unconfirmed; the ring-up hook
        # replays everything unconfirmed.

    def _on_ring_up(self, roster) -> None:
        for handle in list(self._outgoing.values()):
            if not handle.unconfirmed:
                continue
            replayed = len(handle.unconfirmed)
            handle.retransmits += replayed
            self.counters.incr("fragments_retransmitted", replayed)
            self._stream(handle)
