"""Frame assembly: SOF / content / CRC-32 / EOF, 8b/10b coded.

This is the boundary between the MicroPacket layer and the serial medium.
A frame on the fibre is::

    K27.7 (SOF)   content bytes   CRC-32 (4 bytes, little-endian)   K29.7 (EOF)

all passed through the stateful 8b/10b encoder, with K28.5 comma/idle
symbols filling the line between frames (the hardware's receivers align on
those commas).  ``decode_frame`` checks delimiters and CRC and raises
:class:`FrameError` on any corruption — which is how the fault injector's
bit flips become *detected* errors rather than silent data corruption.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .crc import crc32
from .encoding import (
    Decoder8b10b,
    DecodeError,
    Encoder8b10b,
    K27_7,
    K28_5,
    K29_7,
)
from .packet import MicroPacket
from .serialize import pack, unpack

__all__ = [
    "FrameError",
    "encode_frame",
    "decode_frame",
    "frame_symbol_count",
    "frame_wire_bits",
    "IDLE_SYMBOL_BYTE",
    "Framer",
]

#: Byte value of the idle/comma control character.
IDLE_SYMBOL_BYTE = K28_5

#: Frame overhead in transmission characters: SOF + CRC(4) + EOF.
_OVERHEAD_CHARS = 6


class FrameError(Exception):
    """Bad delimiters, illegal symbols, or CRC mismatch."""


def encode_frame(content: bytes, encoder: Optional[Encoder8b10b] = None) -> List[int]:
    """Encode content bytes into a full frame of 10-bit symbols."""
    enc = encoder or Encoder8b10b()
    symbols = [enc.encode_byte(K27_7, control=True)]
    check = crc32(content)
    body = content + check.to_bytes(4, "little")
    symbols.extend(enc.encode_byte(b) for b in body)
    symbols.append(enc.encode_byte(K29_7, control=True))
    return symbols


def decode_frame(
    symbols: List[int], decoder: Optional[Decoder8b10b] = None
) -> bytes:
    """Decode a frame's symbols back to content bytes, verifying CRC."""
    if len(symbols) < _OVERHEAD_CHARS + 1:
        raise FrameError(f"frame too short: {len(symbols)} symbols")
    dec = decoder or Decoder8b10b()
    try:
        first, first_k = dec.decode_symbol(symbols[0])
    except DecodeError as exc:
        raise FrameError(f"SOF symbol corrupt: {exc}") from exc
    if not first_k or first != K27_7:
        raise FrameError("missing SOF delimiter")
    body = bytearray()
    for sym in symbols[1:-1]:
        try:
            byte, is_k = dec.decode_symbol(sym)
        except DecodeError as exc:
            raise FrameError(f"symbol corrupt: {exc}") from exc
        if is_k:
            raise FrameError("control character inside frame body")
        body.append(byte)
    try:
        last, last_k = dec.decode_symbol(symbols[-1])
    except DecodeError as exc:
        raise FrameError(f"EOF symbol corrupt: {exc}") from exc
    if not last_k or last != K29_7:
        raise FrameError("missing EOF delimiter")
    if len(body) < 4:
        raise FrameError("frame body shorter than its CRC")
    content, check = bytes(body[:-4]), body[-4:]
    if crc32(content) != int.from_bytes(check, "little"):
        raise FrameError("CRC mismatch")
    return content


def frame_symbol_count(content_bytes: int) -> int:
    """Transmission characters for a frame with that many content bytes."""
    return content_bytes + _OVERHEAD_CHARS


def frame_wire_bits(content_bytes: int) -> int:
    """Bits on the fibre for one frame (10 bits per character)."""
    return 10 * frame_symbol_count(content_bytes)


@dataclass
class Framer:
    """Per-link framing endpoint pairing packet and symbol domains.

    Keeps a persistent encoder/decoder so running disparity is continuous
    across frames on a link, exactly as the hardware behaves.  The
    transmit side inserts ``idle_gap`` comma characters between frames.
    """

    idle_gap: int = 2

    def __post_init__(self) -> None:
        self.encoder = Encoder8b10b()
        self.decoder = Decoder8b10b()

    def packet_to_symbols(self, pkt: MicroPacket) -> List[int]:
        """Frame and encode one MicroPacket, with trailing idles."""
        symbols = encode_frame(pack(pkt), self.encoder)
        for _ in range(self.idle_gap):
            symbols.append(self.encoder.encode_byte(K28_5, control=True))
        return symbols

    def symbols_to_packet(
        self, symbols: List[int], payload_len: Optional[int] = None
    ) -> MicroPacket:
        """Strip idles, decode the frame, parse the MicroPacket."""
        # Drop leading/trailing idle commas (decode with a throwaway
        # decoder state is not needed: idles are balanced and our decoder
        # tracks disparity through them).
        core: List[int] = list(symbols)
        while core:
            probe = Decoder8b10b(strict_disparity=False)
            try:
                byte, is_k = probe.decode_symbol(core[-1])
            except DecodeError:
                break
            if is_k and byte == K28_5:
                core.pop()
            else:
                break
        content = decode_frame(core, self.decoder)
        return unpack(content, payload_len=payload_len)
