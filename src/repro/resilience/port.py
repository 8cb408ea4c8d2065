"""The one attachment point of the resilience patterns on a router port.

A :class:`~repro.routing.router.RouterPort` holds a
:class:`PortResilience` only when its router's
:class:`~repro.resilience.ResilienceConfig` enables a pattern; with
everything off the port carries no breaker, bucket or deferred-fragment
state and tests one ``is None`` per hook.  The hooks, in data-path
order:

* :meth:`admit_fragment` — token-bucket gate on ingress capture;
* :meth:`accepts` — bulkhead compartment check on egress enqueue;
* :meth:`intercepts` — circuit-breaker vote per pumped crossing;
* :meth:`probe` — half-open probing on the port's retry cadence;
* :meth:`drop_deferred` / :meth:`reset` — router crash and recovery.

Everything that leaves the port here lands in the router's dead-letter
channel with a counter and a ``dead_letter`` trace record.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional, TYPE_CHECKING

from .breaker import CircuitBreaker
from .bulkhead import CompartmentedQueue
from .config import ResilienceConfig
from .throttle import TokenBucket

if TYPE_CHECKING:  # pragma: no cover
    from ..micropacket import MicroPacket
    from ..routing.router import RouterPort

__all__ = ["PortResilience"]


class PortResilience:
    def __init__(self, port: "RouterPort", config: ResilienceConfig):
        self.port = port
        self.router = port.router
        self.config = config
        self.breaker: Optional[CircuitBreaker] = (
            CircuitBreaker(config.breaker_threshold, notify=self._breaker_event)
            if config.circuit_breaker else None
        )
        self.throttle: Optional[TokenBucket] = (
            TokenBucket(config.throttle_token_ns, config.throttle_burst,
                        now=self.router.sim.now)
            if config.throttle else None
        )
        #: fragments awaiting throttle tokens (FIFO: order preserved)
        self.deferred: Deque["MicroPacket"] = deque()
        self._throttle_armed = False
        #: the port's egress queue when the bulkhead is on: one
        #: compartment per possible ingress (every *other* port),
        #: sharing the egress capacity
        cfg = self.router.config
        share = max(1, cfg.egress_capacity // max(1, len(cfg.segments) - 1))
        self.bulkhead: Optional[CompartmentedQueue] = (
            CompartmentedQueue(share) if config.bulkhead else None
        )

    # ------------------------------------------------------------ bulkhead
    def accepts(self, crossing: Any) -> bool:
        """Does the crossing fit its ingress segment's compartment?  A
        saturated neighbour is turned away (counted) before it can
        displace anyone else's share."""
        if self.bulkhead is None or self.bulkhead.accepts(crossing.ingress):
            return True
        self.router.counters.incr("bulkhead_isolated_rejects")
        return False

    # ------------------------------------------------------ circuit breaker
    def intercepts(self, crossing: Any, deliverable: bool, now: int) -> bool:
        """One breaker vote for a crossing the pump just dequeued; True
        when it was consumed into the dead-letter channel.

        Each park is a failure vote — at the threshold the destination
        trips OPEN and offers to it fail fast (redrivable) until a
        half-open probe, on the port's retry cadence, delivers.
        """
        breaker = self.breaker
        if breaker is None:
            return False
        dst = crossing.dst
        if not breaker.admit(dst, now):
            self._dead_letter(crossing, "circuit_open", redrivable=True)
            return True
        if not deliverable:
            if not breaker.record_park(dst, now, self.port.retry_ns):
                return False
            # Tripped OPEN: this crossing and every parked sibling go to
            # the dead-letter channel — a closing breaker brings them back.
            for parked in self.port.parked.pop(dst, []):
                self._dead_letter(parked, "circuit_open", redrivable=True)
            self._dead_letter(crossing, "circuit_open", redrivable=True)
            return True
        if breaker.record_delivery(dst):
            # A half-open probe succeeded: re-drive everything that
            # failed fast while it was open (appended behind the probe;
            # drained by the same pump loop).
            self._redrive(dst)
        return False

    def probe(self) -> None:
        """For each OPEN destination whose probe window arrived, re-offer
        one of its dead-lettered crossings — the pump admits it as the
        half-open probe."""
        if self.breaker is None:
            return
        for dst in self.breaker.probes_due(self.router.sim.now):
            self._redrive(dst, limit=1)

    def _redrive(self, dst: Any, limit: Optional[int] = None) -> None:
        for entry in self.router.dead_letter.redrive(
            segment=self.port.segment_id, dst=dst, limit=limit
        ):
            self.port.queue.append(entry.item)

    def _breaker_event(self, event: str, dst: Any) -> None:
        self.router.counters.incr(f"breaker_{event}")
        if event in ("opened", "closed"):
            self.router.trace(f"breaker_{event}",
                              segment=self.port.segment_id, dst=dst)

    # ---------------------------------------------------------- throttling
    def admit_fragment(self, pkt: "MicroPacket") -> bool:
        """Token-bucket gate on ingress capture.

        True: process the fragment now.  False: it was deferred into the
        bounded FIFO (drained as tokens mature) or — beyond the backlog
        bound — shed as an accounted drop.  FIFO order is preserved: new
        fragments defer behind an existing backlog even when a token is
        available, so throttling never reorders a fragment train.
        """
        bucket = self.throttle
        if bucket is None:
            return True
        if not self.deferred and bucket.try_take(self.router.sim.now):
            return True
        counters = self.router.counters
        if len(self.deferred) >= self.config.throttle_backlog:
            counters.incr("throttle_shed")
            self._dead_letter(None, "throttle_shed")
            return False
        self.deferred.append(pkt)
        counters.incr("throttle_deferred")
        self._arm_throttle_timer()
        return False

    def _arm_throttle_timer(self) -> None:
        if self._throttle_armed:
            return
        self._throttle_armed = True
        sim = self.router.sim
        delay = max(1, self.throttle.delay_until_ready(sim.now))
        sim.call_in(delay, self._throttle_timer)

    def _throttle_timer(self) -> None:
        self._throttle_armed = False
        router = self.router
        if router.failed:
            return
        now = router.sim.now
        while self.deferred and self.throttle.try_take(now):
            router.ingest_now(self.port.segment_id, self.deferred.popleft())
        if self.deferred:
            self._arm_throttle_timer()

    # --------------------------------------------------------- dead letters
    def _dead_letter(
        self, crossing: Optional[Any], reason: str, redrivable: bool = False
    ) -> None:
        """Consume one crossing (or a count-only record) into the
        router's dead-letter channel, with the trace record the channel
        itself stays agnostic of."""
        router = self.router
        segment = self.port.segment_id
        evicted = router.dead_letter.consume(
            crossing, reason, segment=segment, redrivable=redrivable,
            now=router.sim.now,
        )
        router.trace(
            "dead_letter", reason=reason, segment=segment,
            dst=crossing.dst if crossing is not None else None,
        )
        if evicted is not None and evicted.redrivable:
            # A redrivable entry pushed out by the bound is a real loss;
            # the overflow counter ticked in the channel, the trace
            # record lands here.
            router.trace("dead_letter_overflow", reason=evicted.reason)

    # ------------------------------------------------------------ lifecycle
    def drop_deferred(self) -> int:
        """Router crash: deferred fragments are NIC memory, lost."""
        lost = len(self.deferred)
        self.deferred.clear()
        return lost

    def reset(self) -> None:
        """Router recovery (the crash already dropped the deferred
        fragments): breaker and bucket state described a world that no
        longer exists, and a throttle timer may have fired into the
        ``failed`` early return."""
        self._throttle_armed = False
        if self.breaker is not None:
            self.breaker.reset()
        if self.throttle is not None:
            self.throttle.reset(self.router.sim.now)
