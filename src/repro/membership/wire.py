"""Membership wire formats.

Two kinds of traffic share :data:`~repro.transport.messaging.Channel.MEMBERSHIP`:

* **digests** — the push-gossip payload: a flat array of 8-byte entries
  (one per known peer) carried as a reliable messenger message;
* **probes** — single 8-byte INTERRUPT cells (PING / ACK) used by the
  SWIM direct-probe failure detector; they ride the priority path so a
  loaded ring cannot delay liveness evidence behind bulk data.

Entry layout (little-endian)::

    byte 0      peer node id
    byte 1      status (PeerStatus)
    bytes 2-3   incarnation (u16)
    bytes 4-7   heartbeat sequence (u32)

Probe layout::

    byte 0      op (1 = PING, 2 = ACK)
    byte 1      origin node id
    bytes 2-3   nonce (u16, echoes back in the ACK)
    bytes 4-7   origin heartbeat (u32) — a free liveness datum per probe
"""

from __future__ import annotations

import struct
from typing import Iterable, List, Tuple

from .state import PeerState, PeerStatus

__all__ = [
    "ENTRY_BYTES",
    "PING",
    "ACK",
    "encode_digest",
    "decode_digest",
    "encode_probe",
    "decode_probe",
]

_ENTRY = struct.Struct("<BBHI")
ENTRY_BYTES = _ENTRY.size

_PROBE = struct.Struct("<BBHI")
PING = 1
ACK = 2


def encode_digest(states: Iterable[PeerState]) -> bytes:
    """Pack peer states into a digest payload."""
    out = bytearray()
    for s in states:
        out += _ENTRY.pack(
            s.node_id, int(s.status), s.incarnation & 0xFFFF, s.heartbeat & 0xFFFFFFFF
        )
    return bytes(out)


def decode_digest(payload: bytes) -> List[PeerState]:
    """Unpack a digest payload; raises ValueError, and nothing else, on a
    malformed length, an unknown status (``PeerStatus``) or an
    out-of-range node id (``PeerState``)."""
    if len(payload) % ENTRY_BYTES:
        raise ValueError(f"digest length {len(payload)} not a multiple of {ENTRY_BYTES}")
    states = []
    for off in range(0, len(payload), ENTRY_BYTES):
        node_id, status, incarnation, heartbeat = _ENTRY.unpack_from(payload, off)
        states.append(
            PeerState(
                node_id=node_id,
                incarnation=incarnation,
                heartbeat=heartbeat,
                status=PeerStatus(status),
            )
        )
    return states


def encode_probe(op: int, origin: int, nonce: int, heartbeat: int) -> bytes:
    return _PROBE.pack(op, origin, nonce & 0xFFFF, heartbeat & 0xFFFFFFFF)


def decode_probe(payload: bytes) -> Tuple[int, int, int, int]:
    """Returns ``(op, origin, nonce, heartbeat)``; raises ValueError on a
    cell that is not one probe long."""
    if len(payload) != _PROBE.size:
        raise ValueError(f"probe length {len(payload)} is not {_PROBE.size}")
    return _PROBE.unpack(payload)
