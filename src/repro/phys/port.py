"""Ports: the attachment points between devices and fibres.

A :class:`Port` belongs to a device (NIC or switch).  The device registers
callbacks for received frames and for carrier transitions (and a switch,
which reserves its egress wire ahead of time, one for reservations a cut
hands back — see :meth:`~repro.phys.link.SerialLink.reserve`).
Carrier loss is how AmpNet hardware detects failures (slide 18, "network
failures detected by hardware"), so the carrier path is modelled with the
same care as the data path: transitions are delivered after the hardware
debounce delay :data:`~repro.phys.constants.CARRIER_DETECT_NS`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional

from ..sim import Simulator
from .frame import Frame

if TYPE_CHECKING:  # pragma: no cover
    from .link import SerialLink

__all__ = ["Port"]

FrameHandler = Callable[[Frame, "Port"], None]
CarrierHandler = Callable[[bool, "Port"], None]
RecallHandler = Callable[[List[Frame], "Port"], None]


class Port:
    """One duplex optical port.

    ``tx_link``/``rx_link`` are wired by :class:`~repro.phys.link.Fiber`.
    Devices call :meth:`send`; the link layer calls :meth:`deliver` and
    :meth:`set_carrier`.
    """

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self.tx_link: Optional["SerialLink"] = None
        self.rx_link: Optional["SerialLink"] = None
        #: carrier present — read on every send and every MAC pick.
        #: Mutate only through :meth:`set_carrier` / :meth:`force_carrier`.
        self.carrier_up = False
        self._on_frame: Optional[FrameHandler] = None
        self._on_carrier: Optional[CarrierHandler] = None
        self._on_recall: Optional[RecallHandler] = None
        #: counters kept here so every layer above can read them
        self.tx_frames = 0
        self.rx_frames = 0
        self.rx_corrupt = 0

    # -------------------------------------------------------------- wiring
    def set_handlers(
        self,
        on_frame: Optional[FrameHandler] = None,
        on_carrier: Optional[CarrierHandler] = None,
        on_recall: Optional[RecallHandler] = None,
    ) -> None:
        self._on_frame = on_frame
        self._on_carrier = on_carrier
        self._on_recall = on_recall

    # ---------------------------------------------------------------- data
    def send(self, frame: Frame) -> bool:
        """Queue a frame for transmission.

        Returns False (frame silently lost, as on dark fibre) when the
        port has no carrier — callers that need reliability must check
        ``port.carrier_up`` first; the ring MAC does exactly that.
        """
        if self.tx_link is None or not self.carrier_up:
            return False
        self.tx_frames += 1
        self.tx_link.transmit(frame)
        return True

    def deliver(self, frame: Frame) -> None:
        """Called by the rx link when a frame fully arrives."""
        if frame.corrupt:
            # CRC rejects it; the frame never reaches the protocol layer.
            self.rx_corrupt += 1
            return
        self.rx_frames += 1
        if self._on_frame is not None:
            self._on_frame(frame, self)

    def recall(self, frames: List[Frame]) -> None:
        """Called by the tx link when a cut catches reservations ahead
        of their hand-over instant (``frames``: newest first, as they
        come off the wire's tail): they are the device's again, and no
        longer count as transmitted."""
        self.tx_frames -= len(frames)
        self._on_recall(frames, self)

    # -------------------------------------------------------------- carrier
    def set_carrier(self, up: bool) -> None:
        """Called by the link layer after the debounce delay."""
        if up == self.carrier_up:
            return
        self.force_carrier(up)
        if self._on_carrier is not None:
            self._on_carrier(up, self)

    def force_carrier(self, up: bool) -> None:
        """Set carrier state without notifying handlers (for fault rigs
        and tests that need a silent transition)."""
        self.carrier_up = up

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.carrier_up else "down"
        return f"<Port {self.name} {state}>"
