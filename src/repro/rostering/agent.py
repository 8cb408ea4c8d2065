"""The per-node rostering agent (slide 16).

    "Algorithm starts automatically whenever a failure is detected.
     A modified flooding algorithm that explores the network for
     available paths and allows the creation of the largest possible
     logical ring.  Packets are forwarded according to rostering rules.
     Rostering completes in two ring-tour times."

Protocol, per round ``r``:

1. **Trigger** — hardware carrier loss, heartbeat timeout, a JOIN cell
   from a booting node, or an EXPLORE cell for a newer round.  The agent
   tears the local ring state down and floods ``EXPLORE(origin, r)`` plus
   its own ``REPORT(r)`` on every live port.
2. **Exploration** — switches flood rostering cells (rostering rules);
   nodes relay each distinct cell once, so exploration reaches every
   physically connected survivor even across partitioned switch groups.
   Every node accumulates the round's REPORTs for one ring-tour window.
3. **Commit** — the lowest-id reporter is the round's master.  It runs
   :func:`~repro.rostering.roster.compute_roster` over the collected
   attachment map, configures the surviving switches, and floods the
   roster as COMMIT chunks.  Every member installs the roster, picking
   each hop's switch with the same deterministic rule the master used.
4. **Certification** — the caller (AmpDK diagnostics) tours a DIAGNOSTIC
   cell around the new ring and re-triggers rostering if it fails
   (slide 18: "built-in diagnostics certify new configuration").

The report window is one estimated ring-tour time and certification is a
physical tour, which is why rostering completes in two ring-tour times —
the slide-16 claim bench F7 measures.
"""

from __future__ import annotations

from enum import Enum, auto
from typing import Callable, Dict, List, Optional, Sequence, Set

from ..phys import Port
from ..phys.frame import Frame, frame_for
from ..sim import NULL_TRACER, Counter, Simulator, Tracer
from .roster import Roster, compute_roster, hop_switches
from .wire import (
    CommitAssembler,
    Phase,
    RosterMessage,
    decode,
    encode_commit_chunks,
    encode_explore,
    encode_join,
    encode_report,
)

__all__ = ["RosterAgent", "AgentState"]

#: How long a non-master waits for a commit before escalating (and a
#: joiner for an answer before rostering alone), in report windows.
COMMIT_TIMEOUT_FACTOR = 3.0
#: Minimum compatible protocol version a master will admit to its
#: roster (assimilation rules, slide 17).
MIN_VERSION = (1, 0)
#: Plain-int mirrors for the per-arrival relay test (a class attribute
#: of an Enum costs a metaclass lookup).
_EXPLORE = int(Phase.EXPLORE)
_COMMIT = int(Phase.COMMIT)


class AgentState(Enum):
    DOWN = auto()         # not part of any ring
    EXPLORING = auto()    # a round is in progress
    OPERATIONAL = auto()  # roster installed, ring carrying traffic


class RosterAgent:
    """Rostering state machine for one node."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        ports: List[Port],
        report_window_ns: int,
        tracer: Optional[Tracer] = None,
    ):
        self.sim = sim
        self.node_id = node_id
        self.ports = ports
        #: report collection window — one estimated ring-tour time
        self.report_window_ns = report_window_ns
        #: protocol version advertised in reports (assimilation, slide 17)
        self.version = (1, 0)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.name = f"roster-{node_id}"

        self.state = AgentState.DOWN
        self.round_no = 0
        self.roster: Optional[Roster] = None
        #: cleared while the node is powered off; a dead NIC must not
        #: react to stale timers or explore its dark ports
        self.enabled = True
        self.counters = Counter()

        #: this round's REPORT per origin (None: not heard) up to the highest
        #: heard, dropped at install; ``_master``, the lowest, outlives it
        self._reports: List[Optional[RosterMessage]] = []
        self._master: Optional[int] = None
        #: this round's relay suppression (see ``_relay``): EXPLORE and
        #: REPORT one bit per origin, COMMIT a chunk mask per origin
        self._explored = 0
        self._reported = 0
        self._committed: Dict[int, int] = {}
        self._assembler = CommitAssembler()
        self._round_started_at = 0
        self._trigger_time: Optional[int] = None

        #: called with the new Roster when this node installs it
        self.on_installed: Optional[Callable[[Roster], None]] = None
        #: called when the ring goes down (before exploring)
        self.on_ring_down: Optional[Callable[[str], None]] = None
        #: master-only: apply switch crossconnect maps (control plane)
        self.switch_configurator: Optional[
            Callable[[Dict[int, Dict[int, int]], Roster], None]
        ] = None
        #: alternative liveness source (gossip membership): returns False
        #: for a node this agent should not admit to a roster it masters.
        #: None = roster-driven liveness only (report presence decides).
        self.liveness_filter: Optional[Callable[[int], bool]] = None

    # ------------------------------------------------------------- queries
    @property
    def is_master(self) -> bool:
        """Master of the current round = lowest reporting node id."""
        return self._master == self.node_id

    def live_port_bitmap(self) -> int:
        bitmap = 0
        for k, port in enumerate(self.ports):
            if port.carrier_up:
                bitmap |= 1 << k
        return bitmap

    # ------------------------------------------------------------ triggers
    def trigger(self, reason: str) -> None:
        """A failure (or join request) demands a new roster."""
        if not self.enabled:
            return
        if self.state == AgentState.EXPLORING:
            # Already rostering; the current round will pick up the new
            # physical reality because reports reflect live carrier.
            self.counters.incr("trigger_coalesced")
            return
        if self._trigger_time is None:
            self._trigger_time = self.sim.now
        self.counters.incr("triggers")
        self.tracer.record(self.sim.now, "roster_trigger", self.name, reason=reason)
        self._start_round(self.round_no + 1)

    def request_join(self) -> None:
        """Booting node announces itself (slide 17 node entry)."""
        self.counters.incr("join_requests")
        self._flood(frame_for(encode_join(self.node_id)))
        # If nobody answers (we are first up), trigger our own round.
        self.sim.call_in(
            int(self.report_window_ns * COMMIT_TIMEOUT_FACTOR),
            self._join_fallback,
        )

    def _join_fallback(self) -> None:
        if self.state == AgentState.DOWN:
            self.trigger("join unanswered")

    def on_carrier_change(self, up: bool, port: Port) -> None:
        """Wired to every port's carrier handler by the node."""
        if up:
            # New fabric appeared while we are operational (a repaired
            # fibre or a healed partition): announce ourselves so any
            # stranger ring on the far side merges with ours (slide 17's
            # node-entry JOIN, reused for segment reunification).
            if self.state == AgentState.OPERATIONAL:
                self.counters.incr("carrier_up_joins")
                self._flood(frame_for(encode_join(self.node_id)))
            return
        if self.state == AgentState.OPERATIONAL:
            self.trigger(f"carrier loss on {port.name}")

    # --------------------------------------------------------------- rounds
    def _start_round(self, round_no: int, joined: bool = False) -> None:
        """Open round ``round_no``: ours (flood EXPLORE for it), or —
        ``joined`` — a newer one somebody else announced."""
        if not joined:
            round_no = round_no & 0xFF or 1  # wrap past 0 (0 = "no round")
        if self.state == AgentState.OPERATIONAL and self.on_ring_down is not None:
            self.on_ring_down(f"round {round_no}")
        if joined and self._trigger_time is None:
            self._trigger_time = self.sim.now
        self.state = AgentState.EXPLORING
        self.round_no = round_no
        self.roster = None
        self._explored = self._reported = 0
        self._committed = {}
        self._assembler.reset()
        self._round_started_at = self.sim.now
        self.counters.incr("rounds_joined" if joined else "rounds_started")

        if not joined:
            self._explored = 1 << self.node_id
            self._flood(frame_for(encode_explore(self.node_id, round_no)))
        self._emit_report()
        window = self.report_window_ns
        self.sim.call_in(window, lambda: self._decide(round_no))
        self.sim.call_in(
            int(window * COMMIT_TIMEOUT_FACTOR),
            lambda: self._commit_timeout(round_no),
        )

    def _emit_report(self) -> None:
        report = encode_report(
            self.node_id,
            self.round_no,
            self.live_port_bitmap(),
            version=self.version,
        )
        # The round's list opens with our own report: the master so far.
        self._reports = [None] * self.node_id + [decode(report)]
        self._master = self.node_id
        self._reported |= 1 << self.node_id
        self._flood(frame_for(report))

    # ------------------------------------------------------------- receive
    def on_cell(self, frame: Frame, port: Port) -> None:
        """Entry point for ROSTERING frames from the physical layer."""
        if not self.enabled:
            return
        msg = decode(frame.packet)
        newer = self._is_newer_round(msg.round_no)

        if msg.phase in (Phase.EXPLORE, Phase.JOIN):
            if msg.phase == Phase.JOIN:
                if self.state != AgentState.EXPLORING:
                    self.trigger(f"join request from node {msg.origin}")
                return
            if newer:
                self._relay(frame, port, msg)
                self._start_round(msg.round_no, joined=True)
            elif msg.round_no == self.round_no and self.state == AgentState.EXPLORING:
                self._relay(frame, port, msg)
            return

        if msg.phase == Phase.REPORT:
            if newer:
                self._start_round(msg.round_no, joined=True)
            if msg.round_no == self.round_no and self.state == AgentState.EXPLORING:
                origin = msg.origin
                if not self._reported >> origin & 1:  # the first copy
                    reports = self._reports
                    if origin >= len(reports):
                        reports.extend([None] * (origin + 1 - len(reports)))
                    reports[origin] = msg
                    if origin < self._master:
                        self._master = origin
                self._relay(frame, port, msg)
            return

        if msg.phase == Phase.COMMIT:
            if msg.round_no != self.round_no:
                return
            self._relay(frame, port, msg)
            if self.state == AgentState.EXPLORING:
                members = self._assembler.add(msg)
                if members is not None:
                    self._install(members)
            return

    def _is_newer_round(self, seen: int) -> bool:
        """Round numbers are mod-256 monotonic; compare on a half-circle."""
        return 0 < (seen - self.round_no) % 256 < 128

    # ---------------------------------------------------------------- flood
    def _flood(self, frame: Frame, except_port: Optional[Port] = None) -> None:
        """Send ``frame`` out of every live port but ``except_port`` — the
        one frame on all of them, as a switch shares one across its
        fan-out: no device keeps state of its own on a rostering frame
        (``wire_at`` is only ever the instant of its latest transmit)."""
        sent = 0
        for port in self.ports:
            if port is except_port or not port.carrier_up:
                continue
            port.tx_link.transmit(frame)
            sent += 1
        self.counters["cells_flooded"] += sent

    def _relay(self, frame: Frame, arrival: Port, msg: RosterMessage) -> None:
        """Relay each distinct cell of this round once — once per
        (phase, origin), a COMMIT once per chunk: the rostering rules of
        :func:`~repro.rostering.wire.flood_key`, kept as bits because
        every cell a node has relayed or sent is of its current round.
        A cell of any other round is a newer-round EXPLORE about to open
        that round, and always relays: the round it opens starts with
        nothing relayed, so its second copy relays too."""
        if msg.round_no == self.round_no:
            phase, origin = msg.phase, msg.origin
            if phase == _COMMIT:
                seen = self._committed.get(origin, 0)
                bit = 1 << msg.chunk_index
                if seen & bit:
                    return
                self._committed[origin] = seen | bit
            elif phase == _EXPLORE:
                bit = 1 << origin
                if self._explored & bit:
                    return
                self._explored |= bit
            else:  # REPORT
                bit = 1 << origin
                if self._reported & bit:
                    return
                self._reported |= bit
        self._flood(frame, except_port=arrival)
        self.counters["cells_relayed"] += 1

    # -------------------------------------------------------------- decide
    def _attachment(self, reports: Dict[int, RosterMessage]) -> Dict[int, Set[int]]:
        """Attachment map (switch -> nodes) the ``reports`` describe."""
        attachment: Dict[int, Set[int]] = {}
        for node, msg in reports.items():
            for k in range(len(self.ports)):
                if msg.port_bitmap & (1 << k):
                    attachment.setdefault(k, set()).add(node)
        return attachment

    def _reporters(self) -> Dict[int, RosterMessage]:
        """This round's reports by origin, in origin order."""
        return {n: msg for n, msg in enumerate(self._reports) if msg is not None}

    def _admissible_reports(self) -> Dict[int, RosterMessage]:
        """Assimilation rules: exclude version-incompatible nodes, and —
        when a membership verdict source is wired in — nodes the gossip
        layer has declared dead (their flooded report may be stale, or
        they may be a zombie the operator wants fenced off)."""
        out = {}
        for node, msg in self._reporters().items():
            if msg.version < MIN_VERSION:
                self.counters.incr("version_rejected")
                continue
            if (
                node != self.node_id
                and self.liveness_filter is not None
                and not self.liveness_filter(node)
            ):
                self.counters.incr("liveness_rejected")
                continue
            out[node] = msg
        return out

    def _decide(self, round_no: int) -> None:
        if round_no != self.round_no or self.state != AgentState.EXPLORING:
            return
        if not self.is_master:
            return  # wait for the master's commit (or the timeout)
        admissible = self._admissible_reports()
        members = compute_roster(self._attachment(admissible))
        if members is None:
            # Totally isolated (all fibres dark): run as a singleton ring
            # so local applications and the cache replica stay alive —
            # "nodes can leave and the data is intact" (slide 2).
            self.counters.incr("isolated_singleton")
            self._install([self.node_id])
            return
        # Hop switches come from the shared deterministic rule, so the
        # switch maps the master installs match the tx ports every member
        # derives at install time.
        roster = self._normalized_roster(members, admissible)
        if roster is None:  # pragma: no cover - master has the reports
            self.counters.incr("empty_roster")
            self.state = AgentState.DOWN
            return
        self.counters.incr("rosters_computed")
        self.tracer.record(
            self.sim.now, "roster_commit", self.name,
            round=self.round_no, members=roster.members,
        )
        if self.switch_configurator is not None:
            self.switch_configurator(roster.switch_maps(), roster)
        cells = encode_commit_chunks(self.node_id, self.round_no, roster.members)
        own = self._committed.get(self.node_id, 0)
        self._committed[self.node_id] = own | ((1 << len(cells)) - 1)
        for cell in cells:
            self._flood(frame_for(cell))
        self._install(list(roster.members))

    def _commit_timeout(self, round_no: int) -> None:
        if round_no != self.round_no or self.state != AgentState.EXPLORING:
            return
        self.counters.incr("commit_timeouts")
        self._start_round(self.round_no + 1)

    # -------------------------------------------------------------- install
    def _normalized_roster(
        self, members: Sequence[int], reports: Dict[int, RosterMessage]
    ) -> Optional[Roster]:
        """Roster with hop switches from the shared deterministic rule
        (None while a member's report is missing)."""
        ports = (1 << len(self.ports)) - 1
        hops = hop_switches(members, {
            node: msg.port_bitmap & ports for node, msg in reports.items()
        })
        if hops is None:
            return None
        return Roster(self.round_no, tuple(members), hops)

    def _install(self, members: List[int]) -> None:
        if self.node_id not in members:
            # Excluded (version, partition): stay down, keep listening.
            self.state = AgentState.DOWN
            self.counters.incr("excluded_from_roster")
            return
        roster = self._normalized_roster(members, self._reporters())
        self._reports = []  # the round is decided (``_master`` stays)
        self._assembler.reset()
        if roster is None:
            # Missing reports leave us unable to derive hops; escalate so
            # the next round's flood fills the gap.
            self.counters.incr("install_failed")
            self._start_round(self.round_no + 1)
            return
        self.roster = roster
        self.state = AgentState.OPERATIONAL
        elapsed = (
            self.sim.now - self._trigger_time
            if self._trigger_time is not None
            else self.sim.now - self._round_started_at
        )
        self._trigger_time = None
        self.counters.incr("rosters_installed")
        self.tracer.record(
            self.sim.now, "roster_installed", self.name,
            round=self.round_no, size=roster.size, elapsed_ns=elapsed,
        )
        if self.on_installed is not None:
            self.on_installed(roster)
