"""MicroPacket technology: packet model, serialization, FC-1 coding.

The link-layer cell formats of the AmpNet paper (slides 3-6)::

    from repro.micropacket import MicroPacket, MicroPacketType, Framer
"""

from .crc import crc16_ccitt, crc32
from .encoding import (
    DecodeError,
    Decoder8b10b,
    Encoder8b10b,
    K27_7,
    K28_1,
    K28_5,
    K29_7,
    K30_7,
    VALID_K_BYTES,
    k_code,
    max_run_length,
    symbol_bits,
)
from .framing import (
    FrameError,
    Framer,
    decode_frame,
    encode_frame,
    frame_symbol_count,
    frame_wire_bits,
)
from .packet import (
    BROADCAST,
    FIXED_PAYLOAD_MAX,
    FIXED_WIRE_BYTES,
    HEADER_BYTES,
    MAX_SEGMENT,
    ROUTED_OFFSET_MAX,
    TYPE_REGISTRY,
    VARIABLE_PAYLOAD_MAX,
    DmaControl,
    Flags,
    MicroPacket,
    MicroPacketType,
    TypeInfo,
)
from .serialize import PacketFormatError, layout_rows, pack, unpack

__all__ = [
    "BROADCAST",
    "DecodeError",
    "Decoder8b10b",
    "DmaControl",
    "Encoder8b10b",
    "FIXED_PAYLOAD_MAX",
    "FIXED_WIRE_BYTES",
    "Flags",
    "FrameError",
    "Framer",
    "HEADER_BYTES",
    "K27_7",
    "K28_1",
    "K28_5",
    "K29_7",
    "K30_7",
    "MAX_SEGMENT",
    "ROUTED_OFFSET_MAX",
    "MicroPacket",
    "MicroPacketType",
    "PacketFormatError",
    "TYPE_REGISTRY",
    "TypeInfo",
    "VALID_K_BYTES",
    "VARIABLE_PAYLOAD_MAX",
    "crc16_ccitt",
    "crc32",
    "decode_frame",
    "encode_frame",
    "frame_symbol_count",
    "frame_wire_bits",
    "k_code",
    "layout_rows",
    "max_run_length",
    "pack",
    "symbol_bits",
    "unpack",
]
