"""MicroPacket object model (paper slides 4-6).

AmpNet's link layer carries *MicroPackets*: tiny fixed-format cells for
ordinary traffic plus a variable-format cell for DMA bulk data.  The type
table on slide 4 is reproduced verbatim by :data:`TYPE_REGISTRY` (and bench
T1 regenerates it from this module).

Wire layout (slide 5, fixed format)::

    Word 0   Control 0..3          -- control word, see ControlWord
    Word 1   Payload 0..3
    Word 2   Payload 4..7          -- 12 bytes total between SOF and EOF

Variable format (slide 6)::

    Word 0   Control 0..3
    Word 1   DMA Ctrl 0..3
    Word 2   DMA Ctrl 4..7
    Word 3+  Payload 0..63         -- up to 19 words / 76 bytes

The SOF/EOF delimiters and the trailing CRC live one layer down in
:mod:`repro.micropacket.framing`, mirroring how Fibre Channel frames carry
the FC-1 delimiters outside the frame content proper.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import IntEnum
from typing import Dict, Optional

__all__ = [
    "MicroPacketType",
    "TypeInfo",
    "TYPE_REGISTRY",
    "Flags",
    "BROADCAST",
    "DmaControl",
    "MicroPacket",
    "FIXED_PAYLOAD_MAX",
    "VARIABLE_PAYLOAD_MAX",
    "FIXED_WIRE_BYTES",
    "HEADER_BYTES",
    "MAX_SEGMENT",
    "ROUTED_OFFSET_MAX",
]

#: Destination address meaning "every node on the ring" (slide 8's
#: all-to-all broadcast uses this).
BROADCAST = 0xFF

#: Highest segment id the global-address header extension can carry.
#: Segment ids ride in two reserved nibbles of the DMA control block as
#: ``value + 1`` (0 = "no segment / local traffic"), so 15 segments
#: (0..14) of up to 255 nodes each are addressable — 3825 nodes per
#: routed cluster against the single ring's 255-node ceiling.
MAX_SEGMENT = 14

#: Routed packets reserve the top byte of the 32-bit DMA offset for the
#: origin node id, capping a single routed transfer at 16 MiB.
ROUTED_OFFSET_MAX = 0xFF_FFFF

#: Fixed-format packets carry at most two payload words.
FIXED_PAYLOAD_MAX = 8
#: Variable-format packets carry at most sixteen payload words.
VARIABLE_PAYLOAD_MAX = 64
#: Control word + two payload words.
FIXED_WIRE_BYTES = 12
#: Control word + DMA control words (variable format header).
HEADER_BYTES = 12


class MicroPacketType(IntEnum):
    """The six MicroPacket types of slide 4."""

    ROSTERING = 0
    DATA = 1
    DMA = 2
    INTERRUPT = 3
    DIAGNOSTIC = 4
    D64_ATOMIC = 5


class Flags(IntEnum):
    """Control-word flag bits (4 bits available)."""

    NONE = 0
    BROADCAST_FLAG = 1  # destination field is advisory; every node copies
    ACK_REQUEST = 2     # receiver must emit an INTERRUPT ack
    PRIORITY = 4        # overtakes DATA in insertion queues
    POISON = 8          # diagnostics: deliberately corrupt at next hop


@dataclass(frozen=True)
class TypeInfo:
    """One row of the slide-4 MicroPacket table."""

    ptype: MicroPacketType
    name: str
    length: str          # "Fixed" | "Variable"
    mandatory: bool
    description: str


#: Slide 4, reproduced as data.  Bench T1 renders this registry.
TYPE_REGISTRY: Dict[MicroPacketType, TypeInfo] = {
    MicroPacketType.ROSTERING: TypeInfo(
        MicroPacketType.ROSTERING, "Rostering", "Fixed", True,
        "topology exploration and roster distribution after failures",
    ),
    MicroPacketType.DATA: TypeInfo(
        MicroPacketType.DATA, "Data", "Fixed", True,
        "ordinary message traffic, eight payload bytes per cell",
    ),
    MicroPacketType.DMA: TypeInfo(
        MicroPacketType.DMA, "DMA", "Variable", True,
        "bulk transfers between registered host memory regions",
    ),
    MicroPacketType.INTERRUPT: TypeInfo(
        MicroPacketType.INTERRUPT, "Interrupt", "Fixed", True,
        "cross-node signalling (completion, subscription wakeups)",
    ),
    MicroPacketType.DIAGNOSTIC: TypeInfo(
        MicroPacketType.DIAGNOSTIC, "Diagnostic", "Fixed", True,
        "built-in test traffic certifying a new configuration",
    ),
    MicroPacketType.D64_ATOMIC: TypeInfo(
        MicroPacketType.D64_ATOMIC, "D64 Atomic", "Fixed", False,
        "ring-ordered 64-bit atomic operation (network semaphores)",
    ),
}


@dataclass(frozen=True)
class DmaControl:
    """Eight bytes of DMA control carried by variable-format packets.

    Layout (DMA Ctrl 0..7)::

        byte 0      DMA channel (0..15, low nibble); high nibble carries
                    the global-address *destination segment* (value+1,
                    0 = unrouted)
        byte 1      transfer flags (bit0 = last cell of transfer,
                    bit1 = cluster-scoped broadcast); the high nibble
                    carries the *source segment* (value+1, 0 = none);
                    bits 2..3 remain reserved
        bytes 2..5  destination region offset (little-endian u32).  For
                    routed packets the offset is 24-bit (bytes 2..4) and
                    byte 5 carries the *source node id* of the original
                    inserter
        bytes 6..7  transfer id (little-endian u16)

    The segment fields are the **global-address extension** that lets a
    :class:`~repro.routing.SegmentRouter` join several 8-bit rings: a
    packet whose ``dst_segment`` differs from the local ring's segment id
    is copied off the ring by the router and re-originated on the next
    segment, while ``(src_segment, src_node)`` preserves the original
    sender across re-originations so receivers can reply.  All three
    fields ride in bits that were reserved (zero) before the extension,
    so unrouted packets pack byte-identically to the pre-extension
    format.
    """

    channel: int
    offset: int
    transfer_id: int = 0
    last: bool = False
    #: global-address extension (None on all three = plain local packet)
    src_segment: Optional[int] = None
    src_node: Optional[int] = None
    dst_segment: Optional[int] = None
    #: cluster-scoped broadcast: deliver on every ring member of every
    #: segment.  Routers fan the transfer out over the spanning tree;
    #: ``dst_segment`` stays None (the frame is local traffic on every
    #: ring it tours) and ``(src_segment, src_node)`` names the origin
    #: for end-to-end dedup.  Rides reserved bit 1 of the flags byte,
    #: so packets without it pack byte-identically as before.
    cluster_broadcast: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.channel <= 15:
            raise ValueError(f"DMA channel {self.channel} out of range 0..15")
        if not 0 <= self.offset <= 0xFFFF_FFFF:
            raise ValueError("DMA offset out of u32 range")
        if not 0 <= self.transfer_id <= 0xFFFF:
            raise ValueError("transfer id out of u16 range")
        if (self.src_segment is None) != (self.src_node is None):
            raise ValueError(
                "src_segment and src_node form one global address; "
                "set both or neither"
            )
        for seg in (self.src_segment, self.dst_segment):
            if seg is not None and not 0 <= seg <= MAX_SEGMENT:
                raise ValueError(
                    f"segment id {seg} out of range 0..{MAX_SEGMENT}"
                )
        if self.src_node is not None and not 0 <= self.src_node <= 0xFE:
            raise ValueError(f"source node id {self.src_node} out of range 0..254")
        if self.cluster_broadcast:
            if self.src_segment is None:
                raise ValueError(
                    "cluster broadcasts need the origin global address "
                    "(src_segment/src_node) for end-to-end dedup"
                )
            if self.dst_segment is not None:
                raise ValueError(
                    "cluster broadcasts are segment-unscoped; "
                    "dst_segment must stay None"
                )
        if self.routed and self.offset > ROUTED_OFFSET_MAX:
            raise ValueError(
                "routed packets carry a 24-bit offset (the top offset "
                "byte holds the source node id)"
            )

    @property
    def routed(self) -> bool:
        """True when the global-address extension is in use."""
        return self.src_segment is not None or self.dst_segment is not None

    def pack(self) -> bytes:
        byte0 = self.channel
        if self.dst_segment is not None:
            byte0 |= (self.dst_segment + 1) << 4
        byte1 = 1 if self.last else 0
        if self.cluster_broadcast:
            byte1 |= 2
        if self.src_segment is not None:
            byte1 |= (self.src_segment + 1) << 4
            offset = self.offset.to_bytes(3, "little") + bytes([self.src_node])
        else:
            offset = self.offset.to_bytes(4, "little")
        return bytes([byte0, byte1]) + offset + self.transfer_id.to_bytes(2, "little")

    @classmethod
    def unpack(cls, raw: bytes) -> "DmaControl":
        if len(raw) != 8:
            raise ValueError(f"DMA control must be 8 bytes, got {len(raw)}")
        dst_nibble = raw[0] >> 4
        src_nibble = raw[1] >> 4
        if src_nibble:
            offset = int.from_bytes(raw[2:5], "little")
            src_node: Optional[int] = raw[5]
        else:
            offset = int.from_bytes(raw[2:6], "little")
            src_node = None
        return cls(
            channel=raw[0] & 0xF,
            last=bool(raw[1] & 1),
            offset=offset,
            transfer_id=int.from_bytes(raw[6:8], "little"),
            src_segment=src_nibble - 1 if src_nibble else None,
            src_node=src_node,
            dst_segment=dst_nibble - 1 if dst_nibble else None,
            cluster_broadcast=bool(raw[1] & 2),
        )


@dataclass(frozen=True)
class MicroPacket:
    """One MicroPacket as handled by NICs, switches and the ring protocol.

    Instances are immutable; a stage that must annotate a packet uses
    :meth:`with_seq` / ``dataclasses.replace``.
    """

    ptype: MicroPacketType
    src: int
    dst: int
    payload: bytes = b""
    seq: int = 0
    channel: int = 0
    flags: int = 0
    dma: Optional[DmaControl] = None

    def __post_init__(self) -> None:
        if not 0 <= self.src <= 0xFE:
            raise ValueError(f"source id {self.src} out of range 0..254")
        if not 0 <= self.dst <= 0xFF:
            raise ValueError(f"destination id {self.dst} out of range 0..255")
        if not 0 <= self.seq <= 0xF:
            raise ValueError("link-layer seq is 4 bits (0..15)")
        if not 0 <= self.channel <= 0xF:
            raise ValueError("channel is 4 bits (0..15)")
        if not 0 <= self.flags <= 0xF:
            raise ValueError("flags nibble out of range")
        if not isinstance(self.payload, (bytes, bytearray)):
            raise TypeError("payload must be bytes")
        object.__setattr__(self, "payload", bytes(self.payload))
        if self.ptype == MicroPacketType.DMA:
            if self.dma is None:
                raise ValueError("DMA packets require a DmaControl block")
            if len(self.payload) > VARIABLE_PAYLOAD_MAX:
                raise ValueError(
                    f"variable payload {len(self.payload)} exceeds "
                    f"{VARIABLE_PAYLOAD_MAX} bytes"
                )
        else:
            if self.dma is not None:
                raise ValueError(f"{self.ptype.name} packets carry no DMA control")
            if len(self.payload) > FIXED_PAYLOAD_MAX:
                raise ValueError(
                    f"fixed payload {len(self.payload)} exceeds "
                    f"{FIXED_PAYLOAD_MAX} bytes"
                )
        if self.is_broadcast and not (self.flags & Flags.BROADCAST_FLAG):
            object.__setattr__(self, "flags", self.flags | Flags.BROADCAST_FLAG)

    # ------------------------------------------------------------- queries
    @property
    def info(self) -> TypeInfo:
        return TYPE_REGISTRY[self.ptype]

    @property
    def is_fixed(self) -> bool:
        return self.ptype != MicroPacketType.DMA

    @property
    def is_broadcast(self) -> bool:
        return self.dst == BROADCAST

    @property
    def wire_bytes(self) -> int:
        """Packet content bytes between SOF and EOF (excluding CRC)."""
        if self.is_fixed:
            return FIXED_WIRE_BYTES
        # Variable: header + payload rounded up to a whole word.
        words = (len(self.payload) + 3) // 4
        return HEADER_BYTES + 4 * max(words, 1)

    def with_seq(self, seq: int) -> "MicroPacket":
        return replace(self, seq=seq & 0xF)

    def describe(self) -> str:
        """Human-readable one-liner used in traces."""
        kind = self.info.name
        target = "BCAST" if self.is_broadcast else str(self.dst)
        return (
            f"{kind}[{self.src}->{target} ch{self.channel} "
            f"seq{self.seq} {len(self.payload)}B]"
        )
