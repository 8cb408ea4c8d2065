"""Per-destination circuit breaker over the parked-crossing machinery.

The routing layer's park-and-retry loop is an infinitely patient
client: a crossing to a dead destination re-offers on every retry poll
forever, holding egress capacity hostage.  The breaker bounds that
patience with the classic three-state machine, *per destination*:

::

    CLOSED --(threshold consecutive parks)--> OPEN
    OPEN   --(probe due, next offer)--------> HALF_OPEN
    HALF_OPEN --(offer parks again)---------> OPEN      (reopened)
    HALF_OPEN --(offer delivered)-----------> CLOSED    (closed)

While OPEN, offers fail fast — the caller routes them into the
dead-letter channel (redrivable) instead of the parked side list.  The
probe cadence is the port's existing parked-retry timer: no new clock,
no wire traffic — a probe is simply the next crossing allowed through
to the roster-deliverability check.

The class is a pure, deterministic state machine: it never touches
counters, tracers or timers itself.  Transitions are reported through
the ``notify`` callback (events ``opened``, ``reopened``, ``closed``,
``probe``) so the owning port can count and trace them in its own
vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Dict, List, Optional

__all__ = ["BreakerState", "CircuitBreaker"]


class BreakerState(Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass
class _DstState:
    state: BreakerState = BreakerState.CLOSED
    consecutive_parks: int = 0
    probe_at: int = 0


class CircuitBreaker:
    """One breaker instance guards one egress port's destinations."""

    def __init__(
        self,
        threshold: int,
        notify: Optional[Callable[[str, Any], None]] = None,
    ):
        if threshold < 1:
            raise ValueError("breaker threshold must be >= 1")
        self.threshold = threshold
        self.notify = notify or (lambda event, dst: None)
        self._dsts: Dict[Any, _DstState] = {}

    # ------------------------------------------------------------- offers
    def admit(self, dst: Any, now: int) -> bool:
        """May a crossing to ``dst`` proceed to the delivery check?

        False means fail fast (the destination is OPEN and its probe is
        not due yet).  An OPEN destination whose probe *is* due flips to
        HALF_OPEN and admits this one crossing as the probe.
        """
        st = self._dsts.get(dst)
        if st is None or st.state is not BreakerState.OPEN:
            return True
        if now >= st.probe_at:
            st.state = BreakerState.HALF_OPEN
            self.notify("probe", dst)
            return True
        return False

    def record_park(self, dst: Any, now: int, retry_ns: int) -> bool:
        """A crossing to ``dst`` failed the deliverability check.

        Returns True when the destination is now OPEN — the caller must
        fail the crossing (and any parked siblings) into the dead-letter
        channel instead of parking it.
        """
        st = self._dsts.setdefault(dst, _DstState())
        if st.state is BreakerState.HALF_OPEN:
            st.state = BreakerState.OPEN
            st.probe_at = now + retry_ns
            self.notify("reopened", dst)
            return True
        st.consecutive_parks += 1
        if st.consecutive_parks >= self.threshold:
            st.state = BreakerState.OPEN
            st.probe_at = now + retry_ns
            st.consecutive_parks = 0
            self.notify("opened", dst)
            return True
        return False

    def record_delivery(self, dst: Any) -> bool:
        """A crossing to ``dst`` was handed to the wire.

        Returns True when this delivery *closed* a half-open breaker —
        the caller should redrive that destination's dead-lettered
        crossings.
        """
        st = self._dsts.get(dst)
        if st is None:
            return False
        if st.state is BreakerState.HALF_OPEN:
            del self._dsts[dst]
            self.notify("closed", dst)
            return True
        st.consecutive_parks = 0
        return False

    # ------------------------------------------------------------ queries
    def state_of(self, dst: Any) -> BreakerState:
        st = self._dsts.get(dst)
        return st.state if st is not None else BreakerState.CLOSED

    def probes_due(self, now: int) -> List[Any]:
        """OPEN destinations whose probe window has arrived, in a
        deterministic (sorted) order."""
        return sorted(
            dst for dst, st in self._dsts.items()
            if st.state is BreakerState.OPEN and now >= st.probe_at
        )

    def reset(self) -> None:
        """Cold restart (router recovery): forget every destination."""
        self._dsts.clear()
