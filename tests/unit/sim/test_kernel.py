"""Unit tests for the discrete-event kernel (Simulator, Event, Process)."""

import pytest

from repro.sim import (
    Event,
    SimulationError,
    Simulator,
)


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0


def test_timeout_advances_clock():
    sim = Simulator()
    done = {}

    def proc():
        yield sim.timeout(100)
        done["t"] = sim.now

    sim.process(proc())
    sim.run()
    assert done["t"] == 100
    assert sim.now == 100


def test_timeout_value_passthrough():
    sim = Simulator()
    seen = {}

    def proc():
        seen["v"] = yield sim.timeout(5, value="payload")

    sim.process(proc())
    sim.run()
    assert seen["v"] == "payload"


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1)


def test_fifo_order_at_same_timestamp():
    sim = Simulator()
    order = []

    def proc(tag):
        yield sim.timeout(10)
        order.append(tag)

    for tag in ["a", "b", "c"]:
        sim.process(proc(tag))
    sim.run()
    assert order == ["a", "b", "c"]


def test_run_until_time_stops_and_sets_clock():
    sim = Simulator()
    fired = []

    def proc():
        while True:
            yield sim.timeout(100)
            fired.append(sim.now)

    sim.process(proc())
    sim.run(until=350)
    assert fired == [100, 200, 300]
    assert sim.now == 350


def test_run_until_event_returns_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(42)
        return "done"

    p = sim.process(proc())
    assert sim.run(until=p) == "done"
    assert sim.now == 42


def test_run_until_past_time_rejected():
    sim = Simulator()
    sim.process(iter_timeout(sim, 100))
    sim.run()
    with pytest.raises(SimulationError):
        sim.run(until=50)


def iter_timeout(sim, d):
    yield sim.timeout(d)


def test_process_waits_for_process():
    sim = Simulator()

    def child():
        yield sim.timeout(30)
        return 7

    def parent():
        result = yield sim.process(child())
        assert result == 7
        assert sim.now == 30
        return "ok"

    p = sim.process(parent())
    assert sim.run(until=p) == "ok"


def test_process_exception_propagates_to_waiter():
    sim = Simulator()

    def child():
        yield sim.timeout(1)
        raise ValueError("boom")

    def parent():
        with pytest.raises(ValueError):
            yield sim.process(child())
        return "caught"

    p = sim.process(parent())
    assert sim.run(until=p) == "caught"


def test_unhandled_process_failure_raises_in_strict_mode():
    sim = Simulator()

    def bad():
        yield sim.timeout(1)
        raise RuntimeError("firmware died")

    sim.process(bad())
    with pytest.raises(RuntimeError, match="firmware died"):
        sim.run()


def test_event_succeed_wakes_waiter():
    sim = Simulator()
    ev = sim.event()
    got = {}

    def waiter():
        got["v"] = yield ev

    def firer():
        yield sim.timeout(10)
        ev.succeed(99)

    sim.process(waiter())
    sim.process(firer())
    sim.run()
    assert got["v"] == 99


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_yield_already_processed_event_resumes_immediately():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("early")
    sim.run()  # process the event with no waiters
    seen = {}

    def proc():
        seen["v"] = yield ev
        seen["t"] = sim.now

    sim.process(proc())
    sim.run()
    assert seen == {"v": "early", "t": 0}


def test_yield_non_event_is_error():
    sim = Simulator()

    def bad():
        yield 42  # type: ignore[misc]

    sim.process(bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_call_at_and_call_in():
    sim = Simulator()
    hits = []
    sim.call_at(100, lambda: hits.append(("at", sim.now)))
    sim.call_in(40, lambda: hits.append(("in", sim.now)))
    sim.run()
    assert hits == [("in", 40), ("at", 100)]


def test_call_at_in_past_rejected():
    sim = Simulator()
    sim.process(iter_timeout(sim, 10))
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(5, lambda: None)


def test_determinism_same_seed_same_trace():
    def run_once(seed):
        sim = Simulator(seed=seed)
        trace = []

        def jitterer():
            rng = sim.rng.stream("jitter")
            for _ in range(20):
                yield sim.timeout(rng.randrange(1, 100))
                trace.append(sim.now)

        sim.process(jitterer())
        sim.run()
        return trace

    assert run_once(7) == run_once(7)
    assert run_once(7) != run_once(8)


def test_nested_process_chain_depth():
    sim = Simulator()

    def leaf():
        yield sim.timeout(1)
        return 1

    def chain(depth):
        if depth == 0:
            result = yield sim.process(leaf())
        else:
            result = yield sim.process(chain(depth - 1))
        return result + 1

    p = sim.process(chain(30))
    assert sim.run(until=p) == 32
