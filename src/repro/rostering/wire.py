"""Rostering MicroPacket payload formats and flood rules.

Rostering cells are fixed-format MicroPackets (slide 4), so every message
must fit eight payload bytes.  Four phases share a common header::

    byte 0   phase (EXPLORE / REPORT / COMMIT / JOIN)
    byte 1   origin node id
    byte 2   round number (mod 256, monotonic per rostering epoch)
    bytes 3..7  phase-specific

EXPLORE   bytes 3..7 zero (relays re-flood the cell unchanged)
REPORT    byte 3 = live-port bitmap (bit k = port to switch k has carrier)
          byte 4 = zero (control groups carry their own qualification)
          byte 5, 6 = protocol version major/minor (assimilation, slide 17)
          byte 7 = zero
COMMIT    byte 3 = chunk index, byte 4 = total chunks,
          bytes 5..7 = up to three roster member ids (0xFF = padding)
JOIN      same as EXPLORE; emitted by a booting node that wants in

``flood_key`` gives switches the duplicate-suppression key of the
"rostering rules" (slide 16): EXPLORE/REPORT/JOIN flood once per
(phase, origin, round); COMMIT floods once per chunk.  Nodes apply the
same rule to the decoded :class:`RosterMessage`, as bits per origin
(``RosterAgent._relay``), and do not call it.

This module is a leaf (imports nothing above :mod:`repro.micropacket`) so
the physical layer can apply flood rules without a dependency cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Dict, List, Optional, Sequence

from ..micropacket import BROADCAST, MicroPacket, MicroPacketType

__all__ = [
    "Phase",
    "PAD",
    "RosterMessage",
    "encode_explore",
    "encode_report",
    "encode_commit_chunks",
    "encode_join",
    "decode",
    "flood_key",
    "CommitAssembler",
]

#: Padding value in commit member lists (never a valid node id).
PAD = 0xFF

#: Members carried per commit chunk cell.
_MEMBERS_PER_CHUNK = 3

#: Distinct payloads whose parse is remembered.  A flooded cell reaches
#: every node once through every switch, byte for byte the same, so a
#: bring-up parses what its distinct cells cost (595 on a 255-node ring),
#: not what its arrivals do (302,260 there).
_PARSE_CACHE_SIZE = 4096


class Phase(IntEnum):
    EXPLORE = 1
    REPORT = 2
    COMMIT = 3
    JOIN = 4


@dataclass(frozen=True)
class RosterMessage:
    """Decoded view of one rostering cell."""

    phase: Phase
    origin: int
    round_no: int
    port_bitmap: int = 0
    version: tuple = (0, 0)
    chunk_index: int = 0
    total_chunks: int = 0
    members: tuple = ()


def _cell(origin: int, payload: bytes) -> MicroPacket:
    return MicroPacket(
        ptype=MicroPacketType.ROSTERING,
        src=origin,
        dst=BROADCAST,
        payload=payload,
    )


def encode_explore(origin: int, round_no: int) -> MicroPacket:
    payload = bytes([Phase.EXPLORE, origin, round_no & 0xFF, 0, 0, 0, 0, 0])
    return _cell(origin, payload)


def encode_join(origin: int) -> MicroPacket:
    """A booting node knows no round yet: JOIN always carries round 0."""
    return _cell(origin, bytes([Phase.JOIN, origin, 0, 0, 0, 0, 0, 0]))


def encode_report(
    origin: int,
    round_no: int,
    port_bitmap: int,
    version: Sequence[int] = (1, 0),
) -> MicroPacket:
    if not 0 <= port_bitmap <= 0xFF:
        raise ValueError("port bitmap out of byte range")
    payload = bytes(
        [
            Phase.REPORT,
            origin,
            round_no & 0xFF,
            port_bitmap,
            0,
            version[0] & 0xFF,
            version[1] & 0xFF,
            0,
        ]
    )
    return _cell(origin, payload)


def encode_commit_chunks(
    origin: int, round_no: int, members: Sequence[int]
) -> List[MicroPacket]:
    """Chunk a roster member list into commit cells (3 members each)."""
    if not members:
        raise ValueError("cannot commit an empty roster")
    if any(not 0 <= m < PAD for m in members):
        raise ValueError("member id out of range")
    chunks: List[MicroPacket] = []
    groups = [
        list(members[i : i + _MEMBERS_PER_CHUNK])
        for i in range(0, len(members), _MEMBERS_PER_CHUNK)
    ]
    for idx, group in enumerate(groups):
        padded = group + [PAD] * (_MEMBERS_PER_CHUNK - len(group))
        payload = bytes(
            [Phase.COMMIT, origin, round_no & 0xFF, idx, len(groups), *padded]
        )
        chunks.append(_cell(origin, payload))
    return chunks


def _remember(cache: dict, payload: bytes, value):
    """Bounded insert: the oldest remembered payload makes room."""
    if len(cache) >= _PARSE_CACHE_SIZE:
        del cache[next(iter(cache))]
    cache[payload] = value
    return value


#: payload -> its decoded view / its flood key.  Both are pure functions
#: of the immutable payload and both results are immutable, so every
#: arrival of one cell shares them.  Plain dicts of bytes: remembering a
#: flood key allocates nothing the cyclic collector tracks.
_decoded: Dict[bytes, RosterMessage] = {}
_flood_keys: Dict[bytes, bytes] = {}


def decode(packet: MicroPacket) -> RosterMessage:
    """Parse a ROSTERING MicroPacket's payload."""
    if packet.ptype != MicroPacketType.ROSTERING:
        raise ValueError(f"not a rostering packet: {packet.ptype.name}")
    payload = packet.payload
    msg = _decoded.get(payload)
    if msg is None:
        # A payload that raises is not remembered.
        msg = _remember(_decoded, payload, _parse(payload))
    return msg


def _parse(payload: bytes) -> RosterMessage:
    p = payload.ljust(8, b"\x00")
    try:
        phase = Phase(p[0])
    except ValueError:
        raise ValueError(f"unknown rostering phase {p[0]}") from None
    origin, round_no = p[1], p[2]
    if phase == Phase.REPORT:
        return RosterMessage(
            phase, origin, round_no,
            port_bitmap=p[3], version=(p[5], p[6]),
        )
    if phase == Phase.COMMIT:
        members = tuple(m for m in p[5:8] if m != PAD)
        return RosterMessage(
            phase, origin, round_no,
            chunk_index=p[3], total_chunks=p[4], members=members,
        )
    return RosterMessage(phase, origin, round_no)  # EXPLORE, JOIN


def flood_key(payload: bytes) -> bytes:
    """Duplicate-suppression key for flooding rostering cells.

    EXPLORE/REPORT/JOIN: once per (phase, origin, round), whatever the
    phase-specific bytes say.  COMMIT: once per chunk, so multi-cell
    rosters get through.  ``payload`` must be ``bytes``, as a
    MicroPacket's is: it is the memo's key.
    """
    key = _flood_keys.get(payload)
    if key is None:
        p = payload[:4].ljust(4, b"\x00")
        # phase, origin, round (+ chunk index)
        key = _remember(
            _flood_keys, payload, p if p[0] == Phase.COMMIT else p[:3])
    return key


class CommitAssembler:
    """Reassembles commit chunk cells into a full member list."""

    def __init__(self) -> None:
        self._parts: dict = {}

    def add(self, msg: RosterMessage) -> Optional[List[int]]:
        """Feed a COMMIT message; returns the roster once complete."""
        if msg.phase != Phase.COMMIT:
            raise ValueError("not a commit message")
        key = (msg.origin, msg.round_no)
        chunks = self._parts.setdefault(key, {})
        chunks[msg.chunk_index] = msg.members
        if len(chunks) == msg.total_chunks:
            members: List[int] = []
            for idx in range(msg.total_chunks):
                if idx not in chunks:  # pragma: no cover - defensive
                    return None
                members.extend(chunks[idx])
            del self._parts[key]
            return members
        return None

    def reset(self) -> None:
        self._parts.clear()
