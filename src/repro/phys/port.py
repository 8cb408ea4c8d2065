"""Ports: the attachment points between devices and fibres.

A :class:`Port` belongs to a device (NIC or switch).  It is a record the
device and the links at either end share: the device sets its handlers —
for received frames, for carrier transitions, and (a switch, which
reserves its egress wire ahead of time) for reservations a cut hands
back, see :meth:`~repro.phys.link.SerialLink.reserve` — and transmits
straight onto ``tx_link`` (:meth:`~repro.phys.link.SerialLink.transmit`
checks this port's carrier and counts ``tx_frames``); the far end's link
runs the CRC check, counts ``rx_frames`` or ``rx_corrupt`` here and calls
``on_frame``.  Carrier loss is how AmpNet hardware detects failures
(slide 18, "network failures detected by hardware"), so the carrier path
is modelled with the same care as the data path: transitions are
delivered after the hardware debounce delay
:data:`~repro.phys.constants.CARRIER_DETECT_NS`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional

from .frame import Frame

if TYPE_CHECKING:  # pragma: no cover
    from .link import SerialLink

__all__ = ["Port"]


class Port:
    """One duplex optical port; ``tx_link`` is wired by
    :class:`~repro.phys.link.Fiber`."""

    __slots__ = ("name", "tx_link", "carrier_up", "on_frame", "on_carrier",
                 "on_recall", "tx_frames", "rx_frames", "rx_corrupt")

    def __init__(self, name: str):
        self.name = name
        self.tx_link: Optional["SerialLink"] = None
        #: carrier present — read on every send and every MAC pick; set
        #: by :meth:`set_carrier` (fault rigs and tests set it silently)
        self.carrier_up = False
        self.on_frame: Optional[Callable[[Frame, Port], None]] = None
        self.on_carrier: Optional[Callable[[bool, Port], None]] = None
        self.on_recall: Optional[Callable[[List[Frame], Port], None]] = None
        #: counters kept here so every layer above can read them
        self.tx_frames = 0
        self.rx_frames = 0
        self.rx_corrupt = 0

    def recall(self, frames: List[Frame]) -> None:
        """Called by the tx link when a cut catches reservations ahead
        of their hand-over instant (``frames``: oldest first, as they lay
        on the wire): they are the device's again, and no longer count
        as transmitted."""
        self.tx_frames -= len(frames)
        self.on_recall(frames, self)

    def set_carrier(self, up: bool) -> None:
        """Called by the link layer after the debounce delay."""
        if up == self.carrier_up:
            return
        self.carrier_up = up
        if self.on_carrier is not None:
            self.on_carrier(up, self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.carrier_up else "down"
        return f"<Port {self.name} {state}>"
