"""AmpDK — the AmpNet Distributed Kernel (slides 17-18).

Every AmpNet NIC is "a real-time micro computer managed by the AmpNet
Distributed Kernel".  The pieces modelled here:

* **Heartbeats** — each member broadcasts a DIAGNOSTIC heartbeat cell on a
  reserved channel every ``heartbeat_interval_ns``.  Every member tracks
  last-heard times for every roster peer; silence past
  ``heartbeat_timeout_ns`` triggers rostering.  Link failures are caught
  faster by carrier hardware; heartbeats are the backstop that catches
  *node* deaths (a dark node drops carrier only at its switches, which
  its peers cannot see directly) — this is the paper's "millisecond
  application failure detection" (slide 19).
* **Certification** — after a roster installs, the round's master tours a
  DIAGNOSTIC certification cell around the new ring ("built-in
  diagnostics certify new configuration", slide 18).  If the tour does
  not complete within the certification window the configuration is bad
  and rostering restarts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, TYPE_CHECKING

from ..micropacket import BROADCAST, Flags, MicroPacket, MicroPacketType
from ..rostering import Roster
from ..sim import Counter

if TYPE_CHECKING:  # pragma: no cover
    from ..node import AmpNode

__all__ = ["AmpDK", "heartbeat_schedule", "HEARTBEAT_CHANNEL", "CERTIFY_CHANNEL"]

#: Reserved DIAGNOSTIC channels.
HEARTBEAT_CHANNEL = 15
CERTIFY_CHANNEL = 14

#: Heartbeat broadcast period on paper-scale rings (slide 19).
HEARTBEAT_INTERVAL_NS = 200_000  # 200 us
#: Silence threshold before a peer is declared dead (slide 19:
#: millisecond failure detection).
HEARTBEAT_TIMEOUT_NS = 1_000_000  # 1 ms
#: How often the monitor sweeps for silent peers.
CHECK_INTERVAL_NS = 100_000
#: Certification tours the master sends before it gives up.
CERTIFY_ATTEMPTS = 2
#: Master's patience for the certification tour, in ring tours.  The
#: tour itself takes ~1 unloaded tour, but a cell cannot preempt a
#: frame mid-serialization, so under bulk load each hop can add one
#: DMA-cell time; four tours gives certification the headroom to
#: succeed on a busy but healthy ring.
CERTIFY_TOURS = 4

#: Wire time of one heartbeat cell (fixed format, ~200 line bits).
_HB_CELL_NS = 189
#: Rings up to this size keep the paper's heartbeat numbers verbatim
#: (every paper-scale topology and benchmark baseline lives below it).
_HB_VERBATIM_MAX_NODES = 68
#: Ceiling on the share of line capacity the heartbeat mesh may consume
#: on larger rings.  Every member's heartbeat crosses every link once
#: per interval, so the per-link heartbeat load is
#: ``n * cell_time / interval``.
_HB_MAX_LINE_SHARE = 0.05


@dataclass(frozen=True)
class HeartbeatSchedule:
    """One ring's kernel timing, as :func:`heartbeat_schedule` sized it."""

    heartbeat_interval_ns: int
    heartbeat_timeout_ns: int
    check_interval_ns: int
    #: one ring-tour estimate (paces the certification tour)
    tour_estimate_ns: int


def heartbeat_schedule(n_nodes: int, tour_estimate_ns: int) -> HeartbeatSchedule:
    """Scale the heartbeat schedule to the ring's capacity.

    Rings up to ``_HB_VERBATIM_MAX_NODES`` keep the paper's numbers
    verbatim (200 us beat, 1 ms detection).  On larger rings, n
    heartbeats crossing every link per interval would otherwise eat
    the fabric — a 255-node ring beating every 200 us spends ~24% of
    every link on heartbeats — so the interval is raised until the
    heartbeat mesh consumes at most ``_HB_MAX_LINE_SHARE`` of line
    capacity, and the silence timeout and monitor sweep stretch
    proportionally.  Detection latency degrades gracefully (a few ms
    at 255 nodes) instead of the data plane collapsing.
    """
    interval = HEARTBEAT_INTERVAL_NS
    if n_nodes > _HB_VERBATIM_MAX_NODES:
        interval = max(interval, int(n_nodes * _HB_CELL_NS / _HB_MAX_LINE_SHARE))
    return HeartbeatSchedule(
        heartbeat_interval_ns=interval,
        heartbeat_timeout_ns=max(HEARTBEAT_TIMEOUT_NS, 4 * interval),
        check_interval_ns=max(CHECK_INTERVAL_NS, interval // 2),
        tour_estimate_ns=tour_estimate_ns,
    )


class AmpDK:
    """Per-node distributed kernel services.

    Every loop is a fire-and-guard timer: it re-arms with ``call_in``
    and returns once ``_epoch`` (bumped on every ring up/down) has moved
    past the epoch it was armed in.
    """

    def __init__(self, node: "AmpNode", schedule: HeartbeatSchedule):
        self.node = node
        self.sim = node.sim
        self.config = schedule
        self.name = f"ampdk-{node.node_id}"
        self.counters = Counter()

        #: last-heard instant per peer id (None: not tracked), as long as
        #: the highest id heard of: the monitor scans all of it
        self._last_heard: List[Optional[int]] = []
        self._roster: Optional[Roster] = None
        self._epoch = 0  # bumps on every ring up/down to retire old loops
        #: this epoch's certification cell on tour: (frame id, roster)
        self._cert: Optional[Tuple[int, Roster]] = None

        node.ring_up_listeners.append(self._ring_up)
        node.ring_down_listeners.append(self._ring_down)
        node.tour_complete_listeners.append(self._on_tour_complete)
        node.register_handler(
            MicroPacketType.DIAGNOSTIC, HEARTBEAT_CHANNEL, self._on_heartbeat
        )
        node.register_handler(
            MicroPacketType.DIAGNOSTIC, CERTIFY_CHANNEL, self._on_certify
        )

    # ------------------------------------------------------------ lifecycle
    def _ring_up(self, roster: Roster) -> None:
        self._roster = roster
        self._epoch += 1
        self._cert = None
        sim = self.sim
        now = sim.now
        self._last_heard = last_heard = [None] * (max(roster.members) + 1)
        for m in roster.members:
            if m != self.node.node_id:
                last_heard[m] = now
        epoch = self._epoch
        sim.call_in(0, self._beat, epoch)
        # Grace: peers need a beat in flight before silence means death.
        sim.call_in(self.config.heartbeat_timeout_ns, self._check, epoch)
        if roster.size >= 2 and self._is_certifier(roster):
            # The master installs first; commit cells are still flooding
            # to the other members.  Give them half a tour to open their
            # rings before the certification cell starts touring.
            sim.call_in(
                self.config.tour_estimate_ns // 2, self._certify, roster, epoch, 0
            )

    def _ring_down(self, reason: str) -> None:
        self._roster = None
        self._epoch += 1
        self._cert = None

    def _is_certifier(self, roster: Roster) -> bool:
        return self.node.node_id == min(roster.members)

    # ------------------------------------------------------------ heartbeat
    def _heartbeat_cell(self) -> MicroPacket:
        return MicroPacket(
            ptype=MicroPacketType.DIAGNOSTIC,
            src=self.node.node_id,
            dst=BROADCAST,
            channel=HEARTBEAT_CHANNEL,
            flags=Flags.PRIORITY | Flags.BROADCAST_FLAG,
            payload=b"HB",
        )

    def _beat(self, epoch: int) -> None:
        if epoch != self._epoch or self._roster is None:
            return
        if self._roster.size >= 2:
            self.node.mac.send(self._heartbeat_cell())
            self.counters.incr("heartbeats_sent")
        self.sim.call_in(self.config.heartbeat_interval_ns, self._beat, epoch)

    def _on_heartbeat(self, pkt: MicroPacket, frame) -> None:
        last_heard, src = self._last_heard, pkt.src
        if src >= len(last_heard):  # a sender the roster did not name
            last_heard.extend([None] * (src + 1 - len(last_heard)))
        # Every hop of every beat lands here: no property, no method call.
        last_heard[src] = self.sim._now
        self.counters["heartbeats_seen"] += 1

    def _check(self, epoch: int) -> None:
        if epoch != self._epoch or self._roster is None:
            return
        cfg = self.config
        deadline = self.sim.now - cfg.heartbeat_timeout_ns
        silent = [
            peer for peer, heard in enumerate(self._last_heard)
            if heard is not None and heard < deadline
        ]
        if silent:
            self.counters.incr("peer_timeouts")
            self.node.agent.trigger(f"heartbeat timeout: peers {silent} silent")
            return
        self.sim.call_in(cfg.check_interval_ns, self._check, epoch)

    # ---------------------------------------------------------- certification
    def _certify(self, roster: Roster, epoch: int, attempt: int) -> None:
        """Send certification tour ``attempt``; its window timer decides."""
        if epoch != self._epoch:
            return
        cell = MicroPacket(
            ptype=MicroPacketType.DIAGNOSTIC,
            src=self.node.node_id,
            dst=BROADCAST,
            channel=CERTIFY_CHANNEL,
            flags=Flags.PRIORITY | Flags.BROADCAST_FLAG,
            payload=roster.round_no.to_bytes(1, "little"),
        )
        frame_id = self.node.mac.send(cell).frame_id
        self._cert = (frame_id, roster)
        self.sim.call_in(
            CERTIFY_TOURS * self.config.tour_estimate_ns,
            self._certify_window, frame_id, attempt,
        )

    def _certify_window(self, frame_id: int, attempt: int) -> None:
        cert = self._cert
        if cert is None or cert[0] != frame_id:
            return  # certified, or the ring changed, before the window closed
        self._cert = None
        self.counters.incr("certification_retries")
        if attempt + 1 < CERTIFY_ATTEMPTS:
            self._certify(cert[1], self._epoch, attempt + 1)
            return
        self.counters.incr("certification_failed")
        self.node.agent.trigger("certification tour failed")

    def _on_tour_complete(self, frame) -> None:
        cert = self._cert
        if cert is None or cert[0] != frame.frame_id:
            return
        self._cert = None
        self.counters.incr("certified")
        self.node.tracer.record(
            self.sim.now, "ring_certified", self.name, round=cert[1].round_no,
        )

    def _on_certify(self, pkt: MicroPacket, frame) -> None:
        # Members simply observe certification traffic (counted for tests).
        self.counters.incr("certify_seen")
