"""Serial links and duplex fibres.

A :class:`SerialLink` is one direction of light: it serializes frames at
the FC-0 line rate (transmitter busy for the frame's wire time, so link
utilisation emerges naturally) and delivers them after the propagation
delay of the fibre run.  A :class:`Fiber` bundles the two directions and
is the unit of fault injection — cutting a fibre kills both directions,
loses whatever was in flight, and drops carrier at both ends after the
hardware debounce time.

The transmitter costs **one schedule entry per frame**: at transmit time
the wire is reserved arithmetically (``start = max(now, busy_until)``,
``busy_until = start + ser_ns``) and a single arrival entry is posted at
``start + ser_ns + prop_ns``.  Timestamps are identical to the old
dequeue→serialize→deliver callback chain — the arithmetic is the same
next-free-time model — but the two intermediate hops per frame are gone,
which at storm scale removes the largest single slice of kernel load.

That entry is **the same object for every frame**: the frames on the
wire sit in a plain FIFO (``_wire``, arrival order = reservation order,
because ``busy_until`` only grows between cuts) and each firing of the
one ``_arrive`` entry takes the head.  A frame in flight therefore costs
a deque slot and, on the schedule, an int instant — nothing the cyclic
collector tracks (see the entry-reuse contract in
``docs/architecture.md``).

Loss semantics: a frame transmitted while the link is down is lost
immediately, and every cut loses whatever was reserved or in flight
(light that went dark mid-flight, including queued wire reservations not
yet serialized — the transmitter commits frames to the wire schedule at
transmit time).  A cut also resets ``busy_until``, so frames sent after
a restore can arrive *before* the dead reservations' instants; the cut
therefore detaches the FIFO — the link gets a fresh FIFO and entry, and
the old entry, still on the schedule once per dead reservation, is
re-pointed at a handler that counts one ``frames_lost`` each time it
fires, at the instants the frames would have arrived.

A switch does not queue for its egress wire: a frame that arrives to an
empty crossing is reserved here at once (:meth:`SerialLink.reserve`) for
the instant the crossconnect will have carried it over, so the crossing
costs no schedule entry of its own.  Until that instant the frame is not
light yet, and a cut that lands first does not lose it: it goes back to
the switch (``Port.recall``), which offers it to the port again at the
instant it was due — where it meets whatever the wire is by then.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List

from ..sim import Callback, Simulator
from .constants import CARRIER_DETECT_NS, propagation_ns
from .frame import Frame
from .port import Port

__all__ = ["SerialLink", "Fiber"]


class SerialLink:
    """Unidirectional serial run from ``src`` to ``dst``."""

    def __init__(self, sim: Simulator, src: Port, dst: Port, length_m: float):
        if length_m < 0:
            raise ValueError("fibre length must be non-negative")
        self.sim = sim
        self.src = src
        self.dst = dst
        self.length_m = length_m
        self.name = f"{src.name}->{dst.name}"
        self.prop_ns = propagation_ns(length_m)
        self.up = True
        #: frames reserved on the wire since the last cut, in arrival
        #: order; every pending firing of ``_arrive_cb`` takes the head.
        self._wire: Deque[Frame] = deque()
        #: the one arrival entry, on the schedule once per frame in
        #: ``_wire``.
        self._arrive_cb = Callback(self._arrive, ())
        #: instant the transmitter frees up; wire reservations are
        #: arithmetic, so backlog needs no queue and no chain callbacks.
        self._busy_until = 0
        self.frames_delivered = 0
        self.frames_lost = 0

    def transmit(self, frame: Frame) -> None:
        """Reserve the wire and post the frame's single arrival entry.

        Serialization is strictly in order at line rate: each frame's
        serialization starts when the transmitter frees up.  Posting goes
        straight to the kernel's ``_post`` primitive (instead of
        ``sim.call_in``): every frame on every fibre passes through here,
        and at 256-node scale the call_in frames alone were a measurable
        slice of the run.
        """
        if not self.up:
            # Dark fibre during the carrier debounce window: the frame is
            # lost at the transmitter, costing no schedule entry at all.
            self.frames_lost += 1
            return
        sim = self.sim
        now = sim._now
        busy = self._busy_until
        start = busy if busy > now else now
        self._busy_until = end = start + frame.ser_ns
        frame.wire_at = now
        self._wire.append(frame)
        sim._post(end + self.prop_ns, self._arrive_cb)

    def reserve(self, frame: Frame, at: int) -> None:
        """:meth:`transmit`, ahead of time: the sender will hand ``frame``
        over at ``at`` (not before now), so serialization starts then or
        when the transmitter frees up.  Only for a link that is ``up``,
        and whose sender's port takes back what a cut recalls."""
        busy = self._busy_until
        start = busy if busy > at else at
        self._busy_until = end = start + frame.ser_ns
        frame.wire_at = at
        self._wire.append(frame)
        self.sim._post(end + self.prop_ns, self._arrive_cb)

    def _arrive(self) -> None:
        # Only frames reserved since the last cut are in ``_wire`` and a
        # down link accepts none, so the link is up whenever this fires.
        self.frames_delivered += 1
        self.dst.deliver(self._wire.popleft())

    def _arrive_dark(self, dead: List[int]) -> None:
        """A reservation from before a cut reaches its arrival instant.

        The first ``dead[0]`` firings stand for frames that died on the
        wire; any after those belong to reservations the cut recalled,
        which were never on it.
        """
        if dead[0]:
            dead[0] -= 1
            self.frames_lost += 1

    # ------------------------------------------------------------- faults
    def go_down(self) -> None:
        if not self.up:
            return
        self.up = False
        # Reservations made ahead of time (``reserve``) that are not due
        # yet sit at the tail, hand-over instants only growing along the
        # wire: those go back to the sender.  All the others die with the
        # light: the old entry keeps its places on the schedule but only
        # counts the losses, and the frames themselves are dropped here.
        wire = self._wire
        now = self.sim._now
        recalled: List[Frame] = []
        while wire and wire[-1].wire_at > now:
            recalled.append(wire.pop())
        old = self._arrive_cb
        old.fn, old.args = self._arrive_dark, ([len(wire)],)
        self._arrive_cb = Callback(self._arrive, ())
        self._wire = deque()
        self._busy_until = 0
        if recalled:
            self.src.recall(recalled)
        # Receiver sees loss of light after the debounce time.
        self.sim.call_in(CARRIER_DETECT_NS, self._sync_carrier, False)

    def go_up(self) -> None:
        if self.up:
            return
        self.up = True
        self.sim.call_in(CARRIER_DETECT_NS, self._sync_carrier, True)

    def _sync_carrier(self, up: bool) -> None:
        # Only apply if the state still matches (cut/restore races).
        if up == self.up:
            self.dst.set_carrier(up)


class Fiber:
    """Duplex fibre pair between two ports; the unit of fault injection."""

    def __init__(self, sim: Simulator, a: Port, b: Port, length_m: float):
        self.sim = sim
        self.a = a
        self.b = b
        self.length_m = length_m
        self.ab = SerialLink(sim, a, b, length_m)
        self.ba = SerialLink(sim, b, a, length_m)
        a.tx_link, a.rx_link = self.ab, self.ba
        b.tx_link, b.rx_link = self.ba, self.ab
        #: independent reasons the fibre may be down (cut, endpoint dark)
        self._cut = False
        self._dark_sides = 0
        # Light comes up as soon as both transceivers are on; model
        # bring-up as immediate carrier at t=0 via the debounce path.
        a.set_carrier(True)
        b.set_carrier(True)

    @property
    def is_up(self) -> bool:
        return not self._cut and self._dark_sides == 0

    def cut(self) -> None:
        """Sever the fibre: both directions go dark, in-flight light lost."""
        if self._cut:
            return
        self._cut = True
        self._apply()

    def restore(self) -> None:
        """Mend the fibre (carrier returns after debounce at both ends)."""
        if not self._cut:
            return
        self._cut = False
        self._apply()

    def endpoint_dark(self) -> None:
        """A transceiver stopped lasing (its node/switch died)."""
        self._dark_sides += 1
        self._apply()

    def endpoint_lit(self) -> None:
        if self._dark_sides == 0:
            raise ValueError("endpoint_lit without matching endpoint_dark")
        self._dark_sides -= 1
        self._apply()

    def _apply(self) -> None:
        if self.is_up:
            self.ab.go_up()
            self.ba.go_up()
        else:
            self.ab.go_down()
            self.ba.go_down()
