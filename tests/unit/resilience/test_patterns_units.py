"""Unit checks of the resilience primitives' pure logic.

Circuit-breaker state machine, token-bucket arithmetic, bulkhead
compartment algebra and dead-letter accounting — no simulator, no
router.  The wiring into the egress/ingress paths is covered by
``tests/unit/routing/test_router_units.py`` and the integration suite.
"""

import pytest

from repro.resilience import (
    BreakerState,
    CircuitBreaker,
    CompartmentedQueue,
    DeadLetterChannel,
    ResilienceConfig,
    TokenBucket,
)
from repro.sim.monitor import Counter


# --------------------------------------------------------------- config
def test_resilience_config_defaults_everything_off():
    cfg = ResilienceConfig()
    assert not cfg.circuit_breaker
    assert not cfg.dead_letter
    assert not cfg.throttle
    assert not cfg.bulkhead
    assert not cfg.any_enabled


def test_resilience_config_any_enabled():
    assert ResilienceConfig(circuit_breaker=True).any_enabled
    assert ResilienceConfig(bulkhead=True).any_enabled


def test_resilience_config_validation():
    with pytest.raises(ValueError, match="breaker threshold"):
        ResilienceConfig(breaker_threshold=0)
    with pytest.raises(ValueError, match="dead-letter capacity"):
        ResilienceConfig(dead_letter_capacity=0)
    with pytest.raises(ValueError, match="token"):
        ResilienceConfig(throttle_token_ns=0)
    with pytest.raises(ValueError, match="burst"):
        ResilienceConfig(throttle_burst=0)
    with pytest.raises(ValueError, match="backlog"):
        ResilienceConfig(throttle_backlog=0)


# -------------------------------------------------------------- breaker
DST = (1, 5)


def test_breaker_opens_at_threshold():
    events = []
    b = CircuitBreaker(3, notify=lambda ev, dst: events.append(ev))
    assert b.record_park(DST, now=0, retry_ns=100) is False
    assert b.record_park(DST, now=0, retry_ns=100) is False
    assert b.state_of(DST) is BreakerState.CLOSED
    # Third consecutive park trips it.
    assert b.record_park(DST, now=0, retry_ns=100) is True
    assert b.state_of(DST) is BreakerState.OPEN
    assert events == ["opened"]


def test_breaker_delivery_resets_the_failure_count():
    b = CircuitBreaker(3)
    b.record_park(DST, now=0, retry_ns=100)
    b.record_park(DST, now=0, retry_ns=100)
    b.record_delivery(DST)
    # The streak restarts: two more parks stay CLOSED.
    assert b.record_park(DST, now=0, retry_ns=100) is False
    assert b.record_park(DST, now=0, retry_ns=100) is False
    assert b.state_of(DST) is BreakerState.CLOSED


def test_breaker_fails_fast_until_probe_window():
    b = CircuitBreaker(1)
    b.record_park(DST, now=0, retry_ns=100)
    assert not b.admit(DST, now=50)  # before the probe window
    assert b.probes_due(99) == []
    assert b.probes_due(100) == [DST]


def test_breaker_half_open_probe_success_closes():
    events = []
    b = CircuitBreaker(1, notify=lambda ev, dst: events.append(ev))
    b.record_park(DST, now=0, retry_ns=100)
    assert b.admit(DST, now=100)  # the probe is admitted
    assert b.state_of(DST) is BreakerState.HALF_OPEN
    assert b.record_delivery(DST) is True  # closed: caller redrives
    assert b.state_of(DST) is BreakerState.CLOSED
    assert events == ["opened", "probe", "closed"]


def test_breaker_half_open_probe_failure_reopens():
    events = []
    b = CircuitBreaker(1, notify=lambda ev, dst: events.append(ev))
    b.record_park(DST, now=0, retry_ns=100)
    assert b.admit(DST, now=100)
    # The probe parks again: back to OPEN with a fresh probe window.
    assert b.record_park(DST, now=100, retry_ns=100) is True
    assert b.state_of(DST) is BreakerState.OPEN
    assert not b.admit(DST, now=150)
    assert b.admit(DST, now=200)
    assert events == ["opened", "probe", "reopened", "probe"]


def test_breaker_destinations_are_independent():
    other = (2, 9)
    b = CircuitBreaker(1)
    b.record_park(DST, now=0, retry_ns=100)
    assert b.state_of(DST) is BreakerState.OPEN
    assert b.state_of(other) is BreakerState.CLOSED
    assert b.admit(other, now=0)


def test_breaker_reset_forgets_everything():
    b = CircuitBreaker(1)
    b.record_park(DST, now=0, retry_ns=100)
    b.reset()
    assert b.admit(DST, now=0)
    assert b.state_of(DST) is BreakerState.CLOSED


# --------------------------------------------------------- token bucket
def test_bucket_starts_full_and_drains():
    bucket = TokenBucket(token_ns=100, burst=2, now=0)
    assert bucket.try_take(0)
    assert bucket.try_take(0)
    assert not bucket.try_take(0)  # burst exhausted


def test_bucket_refills_with_time():
    bucket = TokenBucket(token_ns=100, burst=2, now=0)
    bucket.try_take(0)
    bucket.try_take(0)
    assert not bucket.try_take(99)
    assert bucket.try_take(100)  # one token matured


def test_bucket_caps_at_burst():
    bucket = TokenBucket(token_ns=100, burst=2, now=0)
    bucket.try_take(0)
    bucket.try_take(0)
    # A long idle period matures at most ``burst`` tokens.
    assert bucket.try_take(10_000)
    assert bucket.try_take(10_000)
    assert not bucket.try_take(10_000)


def test_bucket_delay_until_ready():
    bucket = TokenBucket(token_ns=100, burst=1, now=0)
    assert bucket.delay_until_ready(0) == 0
    bucket.try_take(0)
    assert bucket.delay_until_ready(0) == 100
    assert bucket.delay_until_ready(60) == 40


def test_bucket_reset_refills():
    bucket = TokenBucket(token_ns=100, burst=1, now=0)
    bucket.try_take(0)
    bucket.reset(5)
    assert bucket.try_take(5)


# ------------------------------------------------------------- bulkhead
class _Item:
    def __init__(self, ingress, tag):
        self.ingress = ingress
        self.tag = tag


def test_compartments_isolate_capacity():
    q = CompartmentedQueue(2)
    assert q.accepts(0)
    q.append(_Item(0, "a"))
    q.append(_Item(0, "b"))
    assert not q.accepts(0)  # segment 0's share is spent...
    assert q.accepts(1)      # ...segment 1's is untouched
    q.append(_Item(1, "c"))
    assert len(q) == 3


def test_round_robin_drain_interleaves_compartments():
    q = CompartmentedQueue(4)
    for tag in ("a1", "a2", "a3"):
        q.append(_Item(0, tag))
    q.append(_Item(1, "b1"))
    drained = [q.popleft().tag for _ in range(4)]
    # The lone item from ingress 1 does not wait out ingress 0's burst.
    assert drained == ["a1", "b1", "a2", "a3"]
    with pytest.raises(IndexError):
        q.popleft()


def test_fifo_order_within_a_compartment():
    q = CompartmentedQueue(8)
    q.extend(_Item(0, t) for t in ("x", "y", "z"))
    assert [q.popleft().tag for _ in range(3)] == ["x", "y", "z"]


def test_unknown_ingress_falls_into_default_compartment():
    q = CompartmentedQueue(1)
    q.append(object())  # no .ingress attribute
    assert not q.accepts(-1)
    assert len(q) == 1


def test_clear_and_depth_queries():
    q = CompartmentedQueue(4)
    q.append(_Item(0, "a"))
    q.append(_Item(2, "b"))
    assert {k: len(c) for k, c in q._compartments.items()} == {0: 1, 2: 1}
    assert list(q._order) == [0, 2]
    q.clear()
    assert len(q) == 0
    assert not q


# ---------------------------------------------------------- dead letter
def test_dead_letter_counts_by_reason():
    counters = Counter()
    dlq = DeadLetterChannel(4, counters)
    dlq.consume("x", "circuit_open", segment=0, redrivable=True, now=10)
    dlq.consume(None, "shadow_expired", segment=1, now=20)
    assert counters["dead_lettered"] == 2
    assert counters["dead_letter_circuit_open"] == 1
    assert counters["dead_letter_shadow_expired"] == 1
    assert len(dlq) == 2


def test_dead_letter_rejects_unknown_reason():
    dlq = DeadLetterChannel(4, Counter())
    with pytest.raises(ValueError, match="reason"):
        dlq.consume("x", "gremlins", segment=0)


def test_dead_letter_overflow_evicts_oldest():
    counters = Counter()
    dlq = DeadLetterChannel(2, counters)
    dlq.consume("a", "circuit_open", segment=0, redrivable=True, now=1)
    dlq.consume("b", "circuit_open", segment=0, redrivable=True, now=2)
    evicted = dlq.consume("c", "circuit_open", segment=0, redrivable=True,
                          now=3)
    assert evicted is not None and evicted.item == "a"
    assert counters["dead_letter_overflow"] == 1
    assert len(dlq) == 2


def test_redrive_filters_and_is_oldest_first():
    class _Crossing:
        def __init__(self, dst):
            self.dst = dst

    counters = Counter()
    dlq = DeadLetterChannel(8, counters)
    near, far = _Crossing((1, 5)), _Crossing((2, 7))
    dlq.consume(near, "circuit_open", segment=0, redrivable=True, now=1)
    dlq.consume(far, "circuit_open", segment=1, redrivable=True, now=2)
    dlq.consume(None, "shadow_expired", segment=0, now=3)  # not redrivable
    # Segment filter: only port 0's entry comes back.
    entries = dlq.redrive(segment=0)
    assert [e.item for e in entries] == [near]
    assert counters["dead_letter_redriven"] == 1
    # dst filter on what remains.
    assert dlq.redrive(dst=(9, 9)) == []
    assert [e.item for e in dlq.redrive(dst=(2, 7))] == [far]
    # The accounting-only record is never redriven, but clear counts it.
    assert len(dlq) == 1
    assert dlq.clear() == 1
    assert not dlq


def test_redrive_limit():
    counters = Counter()
    dlq = DeadLetterChannel(8, counters)
    for i in range(3):
        dlq.consume(i, "circuit_open", segment=0, redrivable=True, now=i)
    assert [e.item for e in dlq.redrive(limit=2)] == [0, 1]
    assert [e.item for e in dlq.redrive()] == [2]
