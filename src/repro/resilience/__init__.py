"""Resilience patterns: policy over the routing layer's failure mechanisms.

The routing layer (PRs 4–5) built failure *mechanisms*: crossings to an
unrostered destination park aside, a blocked redundant router
shadow-parks what it captures, failover promotes the shadow.  This
package turns those mechanisms into the four named production patterns
of the classic resilience catalog, each individually toggleable via
:class:`ResilienceConfig` on a :class:`~repro.routing.RouterConfig`:

* **Circuit breaker** (:mod:`~repro.resilience.breaker`) — a
  per-destination CLOSED → OPEN → HALF_OPEN state machine over the
  parked-crossing machinery: after ``breaker_threshold`` consecutive
  park events a destination is declared open and crossings to it fail
  fast into the dead-letter channel instead of parking forever; the
  existing parked-retry timer doubles as the half-open probe cadence.
* **Dead-letter channel** (:mod:`~repro.resilience.dead_letter`) — a
  bounded, per-reason-counted terminal queue.  Breaker fail-fasts land
  here *redrivable* (a closing breaker re-drives them, preserving the
  zero-confirmed-and-lost story); TTL-expired and capacity-evicted
  shadow crossings land here as accounting records, so nothing leaves
  the router without a counter and a trace.
* **Token-bucket throttling** (:mod:`~repro.resilience.throttle`) —
  paces router ingress capture in integer token-nanoseconds: fragments
  beyond the refill rate defer into a bounded FIFO drained on a timer,
  and overload beyond the backlog is shed as an *accounted* drop.
* **Bulkhead isolation** (:mod:`~repro.resilience.bulkhead`) — splits
  each egress queue into per-ingress-segment compartments drained
  round-robin, so one saturated ingress cannot monopolise an egress
  port's pump cadence or queue capacity.

Everything here is deterministic and allocation-light; with every flag
off (the default) the routing layer's wire behaviour and trace timeline
are bit-identical to the pre-pattern code, which the golden-trace suite
pins.  See ``docs/architecture.md`` ("Resilience patterns") for the
state machines and counter vocabulary.
"""

from .breaker import BreakerState, CircuitBreaker
from .bulkhead import CompartmentedQueue
from .config import ResilienceConfig
from .dead_letter import DeadLetter, DeadLetterChannel
from .port import PortResilience
from .throttle import TokenBucket

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "CompartmentedQueue",
    "DeadLetter",
    "DeadLetterChannel",
    "PortResilience",
    "ResilienceConfig",
    "TokenBucket",
]
