"""Frames in flight on the simulated fibre.

The hot simulation path carries :class:`MicroPacket` objects plus their
exact wire size rather than 8b/10b symbol lists — the coding layer is
byte-for-byte validated in its own unit tests, so re-encoding every frame
in a million-packet benchmark would only burn time.  A frame flagged
``corrupt`` models line damage: the receiver's CRC check *always* detects
single-frame corruption (property-tested in the micropacket layer), so
corrupted frames are counted and discarded on receive, never delivered.

Frames are ``__slots__`` dataclasses touched on every hop of every tour,
so their protocol state (``hops`` read/written per hop — ~256 times per
frame on a 128-node tour — plus the messenger's ``msg_tag``) lives in
fixed fields rather than a metadata dict, whose churn used to dominate
the MAC receive path.  (An earlier revision also appended every
traversed device to a ``path`` tuple — an O(tour²) cost per frame that
nothing consumed; reconstruct paths from the tracer if a debugging
session ever needs them.)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from ..micropacket import MicroPacket, frame_wire_bits
from .constants import serialization_ns

__all__ = ["Frame", "frame_for", "IDLE_GAP_SYMBOLS"]

#: Comma characters inserted between frames by the transmit hardware.
IDLE_GAP_SYMBOLS = 2

_frame_ids = itertools.count(1)


@dataclass(slots=True)
class Frame:
    """One MicroPacket plus its line representation metadata."""

    packet: MicroPacket
    wire_bits: int
    corrupt: bool = False
    #: Unique per simulation run; lets conservation tests track identity.
    frame_id: int = field(default_factory=lambda: next(_frame_ids))
    #: Simulated time the frame was first inserted onto the ring.
    inserted_at: Optional[int] = None
    #: Ring hops since insertion (maintained by the MAC; orphan scrub).
    hops: int = 0
    #: Reliable-messenger tag ``(transfer_id, offset)`` for tour-as-ack
    #: confirmation; None for everything that is not a messenger fragment.
    msg_tag: Optional[Tuple[int, int]] = None
    #: Serialization time, precomputed once: every link and every MAC the
    #: frame crosses charges this, which is twice per ring hop.
    ser_ns: int = 0
    #: Instant the frame was, or will be, handed to the wire it is on:
    #: now for ``SerialLink.transmit``, the end of the crossing for a
    #: switch that reserves its egress wire on arrival
    #: (``SerialLink.reserve``).  Ahead of the clock it means "reserved,
    #: not yet light" (a cut hands the frame back); at the next MAC it
    #: orders the arrival against a pick due in the same instant.
    wire_at: int = 0

    def __post_init__(self) -> None:
        self.ser_ns = serialization_ns(self.wire_bits)

    def damaged(self) -> "Frame":
        """A copy marked corrupt (CRC will reject it at the receiver)."""
        return replace(self, corrupt=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mark = "!" if self.corrupt else ""
        return f"<Frame#{self.frame_id}{mark} {self.packet.describe()}>"


def frame_for(packet: MicroPacket, idle_gap: int = IDLE_GAP_SYMBOLS) -> Frame:
    """Build a frame with the exact line cost of the packet.

    Cost = 10 bits per transmission character for SOF + content + CRC +
    EOF (see :func:`repro.micropacket.frame_wire_bits`) plus the
    inter-frame idle gap.
    """
    bits = frame_wire_bits(packet.wire_bytes) + 10 * idle_gap
    return Frame(packet=packet, wire_bits=bits)
