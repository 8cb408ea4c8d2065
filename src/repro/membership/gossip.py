"""Push-gossip membership with a SWIM-style failure detector.

Each :class:`~repro.node.AmpNode` runs one :class:`GossipProtocol`
instance on top of its reliable :class:`~repro.transport.Messenger`.
Every protocol period the node:

1. advances its own heartbeat sequence number (monotonic within an
   incarnation),
2. runs the local failure detector — peers whose heartbeat has not
   advanced within the staleness window become **SUSPECT**; suspects
   that outlive the suspicion window become **DEAD**,
3. direct-probes one peer (SWIM round-robin over a shuffled cycle) with
   a PING interrupt cell; a missing ACK raises suspicion immediately
   instead of waiting for staleness,
4. pushes its full digest to ``fanout`` gossip partners chosen from its
   seeded random stream.

Dissemination is epidemic: a verdict reaches all N nodes in O(log N)
periods with no coordinator — exactly the property the centralized
roster cannot offer under heavy churn.  Suspicion follows the SWIM
refutation rule: a node that sees *itself* suspected or declared dead
bumps its **incarnation number**, which supersedes every claim about the
previous incarnation (see :mod:`repro.membership.state` for the merge
semilattice).

Determinism: all randomness (first-tick jitter, probe cycle shuffles,
partner choice) is drawn from the simulator stream
``membership-<node_id>``, so two runs with the same master seed produce
identical gossip timelines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from ..micropacket import VARIABLE_PAYLOAD_MAX
from ..node import BOOT_DELAY_NS
from ..sim import Counter
from ..transport import Channel
from .state import PeerState, PeerStatus, PeerView
from .wire import (
    ACK,
    ENTRY_BYTES,
    PING,
    decode_digest,
    decode_probe,
    encode_digest,
    encode_probe,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..node import AmpNode

__all__ = ["GossipProtocol", "gossip_timing"]


#: Gossip partners contacted per period (epidemic fan-out).
FANOUT = 2


@dataclass(frozen=True)
class GossipTiming:
    """One ring's gossip and failure-detector timing, as
    :func:`gossip_timing` sized it."""

    #: protocol period
    period_ns: int
    #: direct-probe ACK deadline (half a period)
    ping_timeout_ns: int
    #: ALIVE -> SUSPECT when the heartbeat stalls this long
    stale_after_ns: int
    #: SUSPECT -> DEAD after this unrefuted window (3 periods)
    suspicion_window_ns: int


def gossip_timing(n_nodes: int, tour_estimate_ns: int) -> GossipTiming:
    """Gossip timing sized for a real cluster, so the same protocol
    scales from machine-room to campus fibre.

    Two capacity facts drive the numbers:

    * The digest is O(N) bytes, and every fragment of every gossip
      message tours the *entire shared ring* — so the protocol
      period must grow with the per-period frame load
      (``FANOUT * fragments + probe traffic`` tours, doubled for
      headroom) or the ring saturates and heartbeats arrive late,
      which reads exactly like mass death.
    * A fresh heartbeat needs O(log N) periods to infect everyone,
      so the staleness window must stay above the dissemination
      latency or large clusters false-suspect in steady state.
    """
    fragments = max(1, math.ceil(n_nodes * ENTRY_BYTES / VARIABLE_PAYLOAD_MAX))
    frames_per_period = FANOUT * fragments + 4
    # 4x margin: variable-format digest frames serialize ~3x slower
    # than the fixed cells the tour estimate is built from, and the
    # post-fault retransmit burst needs slack to drain without
    # starving the kernel's priority heartbeat cells.
    period = max(4 * frames_per_period * tour_estimate_ns, 50_000)
    stale_periods = max(4, 2 + math.ceil(math.log2(max(n_nodes, 2))))
    return GossipTiming(
        period_ns=period,
        ping_timeout_ns=max(period // 2, 1),
        stale_after_ns=stale_periods * period,
        suspicion_window_ns=3 * period,
    )


class GossipProtocol:
    """Per-node membership endpoint (attach via cluster ``membership=True``)."""

    def __init__(self, node: "AmpNode", timing: GossipTiming):
        self.node = node
        self.sim = node.sim
        self.config = timing
        self.name = f"member-{node.node_id}"
        self.counters = Counter()
        self.rng = self.sim.rng.stream(f"membership-{node.node_id}")

        self.incarnation = 0
        self.heartbeat = 0
        self.view = PeerView(node.node_id)
        self._running = False
        #: bumped on crash/recover so stale timer callbacks self-cancel
        self._generation = 0
        self._probe_cycle: List[int] = []
        self._next_nonce = 0
        #: nonce -> (target, sent_at) for in-flight direct probes
        self._outstanding: Dict[int, tuple] = {}
        #: when the ring last (re)installed — detector timers must not
        #: count ring-down time, or any outage longer than the staleness
        #: window mass-suspects the whole (perfectly alive) cluster
        self._last_ring_up = 0

        #: observers of every recorded status transition (PeerState).
        #: The segment-routing layer taps this on gateway nodes to audit
        #: gossip verdicts crossing the router; the liveness a router
        #: *advertises* is read from this node's view at advertisement
        #: time (see :mod:`repro.routing`).
        self.transition_listeners: List[Callable[[PeerState], None]] = []

        self._channel = Channel.MEMBERSHIP
        node.messenger.on_message(self._channel, self._on_digest)
        node.messenger.on_signal(self._channel, self._on_probe)
        node.ring_up_listeners.append(self._on_ring_up)
        node.boot_listeners.append(self.start)
        node.crash_listeners.append(self.crash)
        node.recover_listeners.append(self.recover)

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """Begin gossiping (idempotent; runs when the node boots)."""
        if self._running:
            return
        self._running = True
        self._install_self()
        gen = self._generation
        # Seeded jitter desynchronizes first ticks; without it every
        # node would gossip in lockstep.
        delay = self.rng.randrange(self.config.period_ns)
        self.sim.call_in(BOOT_DELAY_NS + delay, lambda: self._tick(gen))

    def crash(self) -> None:
        """Node power loss: NIC membership table is gone."""
        self._running = False
        self._generation += 1
        self.view = PeerView(self.node.node_id)
        self._probe_cycle = []
        self._outstanding = {}

    def recover(self) -> None:
        """Power back on under a fresh incarnation (supersedes tombstones)."""
        self.incarnation += 1
        self.heartbeat = 0
        self._running = False  # start() below re-arms
        self.start()

    def _install_self(self) -> None:
        self.view.override(
            PeerState(self.node.node_id, self.incarnation, self.heartbeat), self.sim.now
        )

    # ------------------------------------------------------------- queries
    def considers_live(self, node_id: int) -> bool:
        """The verdict the roster layer consumes (only DEAD disqualifies)."""
        return self.view.considers_live(node_id)

    # ------------------------------------------------------------ protocol
    def _tick(self, gen: int) -> None:
        if gen != self._generation or not self._running or self.node.failed:
            return
        now = self.sim.now
        if self.node.ring_up:
            self.heartbeat += 1
            self._install_self()
            self._detector_sweep(now)
            self._probe_one(now)
            self._push_gossip()
        self.sim.call_in(self.config.period_ns, lambda: self._tick(gen))

    # ----------------------------------------------------------- detection
    def _detector_sweep(self, now: int) -> None:
        for peer_id in list(self.view.states):
            if peer_id == self.node.node_id:
                continue
            state = self.view.states[peer_id]
            if state.status == PeerStatus.ALIVE:
                seen = max(
                    self.view.heartbeat_seen_at.get(peer_id, now),
                    self._last_ring_up,
                )
                if now - seen >= self.config.stale_after_ns:
                    self._suspect(peer_id, "heartbeat stale")
            elif state.status == PeerStatus.SUSPECT:
                since = max(
                    self.view.status_since.get(peer_id, now),
                    self._last_ring_up,
                )
                if now - since >= self.config.suspicion_window_ns:
                    self._declare_dead(peer_id)

    def _suspect(self, peer_id: int, why: str) -> None:
        raised = self.view.suspect(peer_id, self.sim.now)
        if raised is None:
            return
        self.counters.incr("suspicions")
        self._record_transition(raised, why=why)

    def _declare_dead(self, peer_id: int) -> None:
        dead = self.view.declare_dead(peer_id, self.sim.now)
        if dead is None:
            return
        self.counters.incr("deaths")
        self._record_transition(dead, why="suspicion expired")

    def _probe_one(self, now: int) -> None:
        target = self._next_probe_target()
        if target is None:
            return
        nonce = self._next_nonce = (self._next_nonce + 1) % 0x10000
        self._outstanding[nonce] = (target, now)
        self.node.messenger.signal(
            target,
            encode_probe(PING, self.node.node_id, nonce, self.heartbeat),
            self._channel,
        )
        self.counters.incr("pings_tx")
        gen = self._generation
        self.sim.call_in(self.config.ping_timeout_ns, lambda: self._ack_deadline(gen, nonce))

    def _ack_deadline(self, gen: int, nonce: int) -> None:
        if gen != self._generation or not self._running:
            return
        entry = self._outstanding.pop(nonce, None)
        if entry is None:
            return  # acked in time
        target, sent_at = entry
        if not self.node.ring_up or sent_at < self._last_ring_up:
            return  # the ring dropped mid-probe: the silence proves nothing
        self.counters.incr("ping_timeouts")
        self._suspect(target, "ping timeout")

    def _next_probe_target(self) -> Optional[int]:
        """SWIM round-robin: shuffle the membership, probe it exhaustively."""
        candidates = {
            n for n, s in self.view.states.items()
            if n != self.node.node_id and s.status != PeerStatus.DEAD
        }
        while True:
            while self._probe_cycle:
                peer = self._probe_cycle.pop()
                if peer in candidates:
                    return peer
            if not candidates:
                return None
            cycle = sorted(candidates)
            self.rng.shuffle(cycle)
            self._probe_cycle = cycle

    # -------------------------------------------------------- dissemination
    def _push_gossip(self) -> None:
        candidates = [
            n for n, s in sorted(self.view.states.items())
            if n != self.node.node_id and s.status != PeerStatus.DEAD
        ]
        if not candidates:
            # Never go silent: with every peer tombstoned, a false mass
            # verdict (e.g. after a long partition) could otherwise never
            # be refuted because no digest would ever leave this node.
            candidates = [n for n in sorted(self.view.states) if n != self.node.node_id]
        if not candidates:
            return
        k = min(FANOUT, len(candidates))
        partners = self.rng.sample(candidates, k)
        payload = encode_digest(self.view.digest())
        for partner in partners:
            self.node.messenger.send(partner, payload, self._channel)
        self.counters.incr("gossip_tx", len(partners))
        self.counters.incr("gossip_bytes_tx", len(payload) * len(partners))

    def _on_digest(self, src: int, payload: bytes, channel: int) -> None:
        if not self._running or self.node.failed:
            return
        try:
            states = decode_digest(payload)
        except ValueError:
            self.counters.incr("malformed_rx")  # dropped whole
            return
        self.counters.incr("gossip_rx")
        now = self.sim.now
        for state in states:
            if state.node_id == self.node.node_id:
                self._maybe_refute(state)
                continue
            known = state.node_id in self.view.states
            change = self.view.apply(state, now)
            if not known:
                self.counters.incr("peers_discovered")
            if change is not None:
                old, new = change
                if old is None or old.status != new.status or old.incarnation != new.incarnation:
                    self._record_transition(new, why=f"gossip from {src}")
        # Anti-entropy reply: a digest from a peer we have tombstoned
        # proves that peer is reachable again (two healed partitions
        # bury *each other*, so neither camp ever picks the other as a
        # gossip partner and the ring-up burst may predate refutations).
        # Answering with our digest hands the sender our accusation to
        # refute — and our camp's state to merge — so the epidemic jumps
        # the camp boundary.  Bounded: one reply per received digest,
        # and only while the sender stays buried in our view.
        if not self.view.considers_live(src):
            self.node.messenger.send(
                src, encode_digest(self.view.digest()), self._channel
            )
            self.counters.incr("reconcile_reply_tx")

    def _maybe_refute(self, claim: PeerState) -> None:
        """SWIM refutation: nobody gets to bury me while I can still talk."""
        if claim.status == PeerStatus.ALIVE or claim.incarnation < self.incarnation:
            return
        self.incarnation = claim.incarnation + 1
        self.heartbeat += 1
        self._install_self()
        self.counters.incr("refutations")
        self.node.tracer.record(
            self.sim.now, "membership", self.name,
            peer=self.node.node_id, status="ALIVE",
            incarnation=self.incarnation, heartbeat=self.heartbeat,
            why="refutation",
        )

    def _on_probe(self, src: int, payload: bytes) -> None:
        if not self._running or self.node.failed:
            return
        try:
            op, origin, nonce, _heartbeat = decode_probe(payload)
        except ValueError:
            self.counters.incr("malformed_rx")
            return
        if op == PING:
            self.counters.incr("pings_rx")
            # Answering proves *we* are alive; seeing the ping proves the
            # pinger is.  Both only refresh local freshness clocks — a
            # probe carries no incarnation, so it never enters the merge.
            self.view.heartbeat_seen_at[origin] = self.sim.now
            self.node.messenger.signal(
                origin,
                encode_probe(ACK, self.node.node_id, nonce, self.heartbeat),
                self._channel,
            )
            self.counters.incr("acks_tx")
        elif op == ACK:
            self.counters.incr("acks_rx")
            if self._outstanding.pop(nonce, None) is not None:
                self.view.heartbeat_seen_at[origin] = self.sim.now

    # ----------------------------------------------------------- discovery
    def _on_ring_up(self, roster) -> None:
        """Seed unknown roster members as incarnation-0 ALIVE entries.

        Real claims (higher heartbeat / incarnation) merge over these; a
        tombstoned peer stays dead until its own refreshed incarnation
        arrives, so this never resurrects anyone.
        """
        if not self._running or self.node.failed:
            return
        self._last_ring_up = self.sim.now
        for member in roster.members:
            if member != self.node.node_id and member not in self.view.states:
                self.view.apply(PeerState(member, 0, 0), self.sim.now)
                self.counters.incr("peers_discovered")
        # Anti-entropy on reunification: a roster member our view has
        # tombstoned is provably back (it just rostered) — but normal
        # gossip skips DEAD peers, so the tombstone would never reach it
        # for refutation.  Tell it directly what we believe; its bumped
        # incarnation then overrides the tombstone everywhere.
        buried = [
            m for m in roster.members
            if m != self.node.node_id and not self.view.considers_live(m)
        ]
        if buried:
            payload = encode_digest(self.view.digest())
            for member in buried:
                self.node.messenger.send(member, payload, self._channel)
            self.counters.incr("reconcile_tx", len(buried))

    # ------------------------------------------------------------- tracing
    def _record_transition(self, state: PeerState, why: str) -> None:
        self.node.tracer.record(
            self.sim.now, "membership", self.name,
            peer=state.node_id, status=state.status.name,
            incarnation=state.incarnation, heartbeat=state.heartbeat,
            why=why,
        )
        for listener in self.transition_listeners:
            listener(state)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<GossipProtocol {self.name} inc={self.incarnation} "
            f"hb={self.heartbeat} peers={len(self.view.states)}>"
        )
