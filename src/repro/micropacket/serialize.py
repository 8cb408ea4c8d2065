"""Byte-exact MicroPacket serialization (slides 5 and 6).

``pack`` and ``unpack`` convert between :class:`~repro.micropacket.packet.
MicroPacket` objects and their wire content — the bytes that sit between
the SOF and EOF delimiters, before the frame CRC.  ``layout_rows`` renders
the word/byte tables exactly as the slides draw them; bench F1 uses it to
regenerate the two format figures.

Control word layout (Word 0, bytes "Control 0..3")::

    Control 0   type nibble (high) | flags nibble (low)
    Control 1   source node id
    Control 2   destination node id (0xFF = broadcast)
    Control 3   channel nibble (high) | sequence nibble (low)
"""

from __future__ import annotations

from typing import List, Tuple

from .packet import (
    FIXED_PAYLOAD_MAX,
    FIXED_WIRE_BYTES,
    HEADER_BYTES,
    DmaControl,
    MicroPacket,
    MicroPacketType,
)

__all__ = ["pack", "unpack", "PacketFormatError", "layout_rows"]


class PacketFormatError(Exception):
    """Malformed wire bytes (length, type nibble, padding, or a field
    value the packet's own validation refuses)."""


def _pack_control(pkt: MicroPacket) -> bytes:
    return bytes(
        [
            (pkt.ptype << 4) | (pkt.flags & 0xF),
            pkt.src,
            pkt.dst,
            (pkt.channel << 4) | (pkt.seq & 0xF),
        ]
    )


def pack(pkt: MicroPacket) -> bytes:
    """Serialize a MicroPacket to its wire content bytes.

    Fixed-format packets always serialize to exactly 12 bytes (short
    payloads are zero-padded — the hardware always clocks out whole
    words).  Variable-format packets serialize to 12 header bytes plus the
    payload rounded up to a whole word, minimum one word.
    """
    control = _pack_control(pkt)
    if pkt.is_fixed:
        payload = pkt.payload.ljust(FIXED_PAYLOAD_MAX, b"\x00")
        return control + payload
    assert pkt.dma is not None
    words = max((len(pkt.payload) + 3) // 4, 1)
    payload = pkt.payload.ljust(4 * words, b"\x00")
    return control + pkt.dma.pack() + payload


def unpack(raw: bytes, payload_len: int | None = None) -> MicroPacket:
    """Parse wire content bytes back into a MicroPacket.

    ``payload_len`` trims word padding for variable packets whose logical
    payload is not a word multiple (the DMA engine carries the true length
    in its transfer descriptor; fixed packets always deliver all 8 bytes).
    Arbitrary bytes raise nothing but :class:`PacketFormatError`.
    """
    try:
        return _unpack(raw, payload_len)
    except ValueError as exc:
        # A field the wire can carry but MicroPacket / DmaControl refuse
        # (source id 255, a routed offset past 24 bits, ...).
        raise PacketFormatError(str(exc)) from exc


def _unpack(raw: bytes, payload_len: int | None) -> MicroPacket:
    if len(raw) < FIXED_WIRE_BYTES:
        raise PacketFormatError(f"truncated packet: {len(raw)} bytes")
    type_nibble = raw[0] >> 4
    try:
        ptype = MicroPacketType(type_nibble)
    except ValueError as exc:
        raise PacketFormatError(f"unknown type nibble {type_nibble}") from exc
    flags = raw[0] & 0xF
    src, dst = raw[1], raw[2]
    channel, seq = raw[3] >> 4, raw[3] & 0xF

    if ptype == MicroPacketType.DMA:
        if len(raw) < HEADER_BYTES + 4:
            raise PacketFormatError("variable packet shorter than one payload word")
        if (len(raw) - HEADER_BYTES) % 4:
            raise PacketFormatError("variable payload not word-aligned")
        dma = DmaControl.unpack(raw[4:12])
        payload = raw[12:]
        if payload_len is not None:
            if not 0 <= payload_len <= len(payload):
                raise PacketFormatError("payload_len inconsistent with wire size")
            payload = payload[:payload_len]
        return MicroPacket(
            ptype=ptype, src=src, dst=dst, payload=payload,
            seq=seq, channel=channel, flags=flags, dma=dma,
        )

    if len(raw) != FIXED_WIRE_BYTES:
        raise PacketFormatError(
            f"fixed packet must be {FIXED_WIRE_BYTES} bytes, got {len(raw)}"
        )
    payload = raw[4:12]
    if payload_len is not None:
        if not 0 <= payload_len <= FIXED_PAYLOAD_MAX:
            raise PacketFormatError("payload_len out of range for fixed packet")
        payload = payload[:payload_len]
    return MicroPacket(
        ptype=ptype, src=src, dst=dst, payload=payload,
        seq=seq, channel=channel, flags=flags,
    )


def layout_rows(pkt: MicroPacket) -> List[Tuple[str, str, str, str, str]]:
    """Render the slide-5/6 layout table for a packet.

    Returns rows of ``(word, byte3, byte2, byte1, byte0)`` strings, top
    row first, matching the slides' byte ordering (byte 3 leftmost).
    """
    raw = pack(pkt)
    labels: List[str] = ["Control 0", "Control 1", "Control 2", "Control 3"]
    if pkt.is_fixed:
        labels += [f"Payload {i}" for i in range(8)]
    else:
        labels += [f"DMA Ctrl {i}" for i in range(8)]
        labels += [f"Payload {i}" for i in range(len(raw) - HEADER_BYTES)]
    rows: List[Tuple[str, str, str, str, str]] = []
    for word_idx in range(len(raw) // 4):
        chunk = list(range(4 * word_idx, 4 * word_idx + 4))
        rows.append(
            (
                f"Word {word_idx}",
                f"{labels[chunk[3]]}={raw[chunk[3]]:02x}",
                f"{labels[chunk[2]]}={raw[chunk[2]]:02x}",
                f"{labels[chunk[1]]}={raw[chunk[1]]:02x}",
                f"{labels[chunk[0]]}={raw[chunk[0]]:02x}",
            )
        )
    return rows
