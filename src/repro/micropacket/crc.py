"""Cyclic redundancy checks used by the AmpNet frame layer.

Fibre Channel frames (which AmpNet's MicroPackets ride inside, slide 3)
carry a CRC-32 computed with the IEEE 802.3 polynomial.  We implement it
table-driven from first principles — no :mod:`zlib` — so the wire model is
self-contained, plus the CCITT CRC-16 that the diagnostics MicroPackets
use for their short self-test payloads.
"""

from __future__ import annotations

from typing import List

__all__ = ["crc32", "crc16_ccitt", "CRC32_POLY", "CRC16_POLY"]

#: IEEE 802.3 polynomial, reflected representation.
CRC32_POLY = 0xEDB88320
#: CCITT polynomial (x^16 + x^12 + x^5 + 1), normal representation.
CRC16_POLY = 0x1021


def _build_crc32_table() -> List[int]:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc >> 1) ^ CRC32_POLY if crc & 1 else crc >> 1
        table.append(crc)
    return table


def _build_crc16_table() -> List[int]:
    table = []
    for byte in range(256):
        crc = byte << 8
        for _ in range(8):
            crc = ((crc << 1) ^ CRC16_POLY if crc & 0x8000 else crc << 1) & 0xFFFF
        table.append(crc)
    return table


_CRC32_TABLE = _build_crc32_table()
_CRC16_TABLE = _build_crc16_table()


def crc32(data: bytes, crc: int = 0) -> int:
    """CRC-32 (IEEE 802.3, reflected, init/xorout 0xFFFFFFFF).

    ``crc`` allows incremental computation: pass the previous return value
    to continue over a further chunk.
    """
    acc = crc ^ 0xFFFFFFFF
    for byte in data:
        acc = (acc >> 8) ^ _CRC32_TABLE[(acc ^ byte) & 0xFF]
    return acc ^ 0xFFFFFFFF


def crc16_ccitt(data: bytes) -> int:
    """CRC-16/CCITT-FALSE (init 0xFFFF, no reflection, no xorout)."""
    acc = 0xFFFF
    for byte in data:
        acc = ((acc << 8) & 0xFFFF) ^ _CRC16_TABLE[((acc >> 8) ^ byte) & 0xFF]
    return acc
