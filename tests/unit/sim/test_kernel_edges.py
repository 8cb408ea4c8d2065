"""Edge-case coverage for the simulation kernel.

Companions to test_kernel.py, aimed at the corners the main suite walks
past: ``run(until=event)`` when the schedule drains before the event
fires, ``call_at`` aimed at the past, the monotonic-clock contract of
repeated ``run(until=t)`` calls, and strict-mode surfacing of event
failures nobody observed.
"""

import pytest

from repro.sim import SimulationError, Simulator


# ------------------------------------------------- run(until=event) drains
def test_run_until_event_raises_when_schedule_drains_first():
    sim = Simulator()
    never = sim.event()  # nobody will ever trigger this

    def proc():
        yield sim.timeout(10)

    sim.process(proc())
    with pytest.raises(SimulationError, match="schedule drained"):
        sim.run(until=never)
    assert sim.now == 10  # everything that was scheduled still ran


def test_run_until_already_processed_event_returns_without_running():
    sim = Simulator()
    ev = sim.timeout(5, value="v")
    sim.run()
    assert sim.now == 5
    sim.timeout(100)  # pending work that must NOT run
    assert sim.run(until=ev) == "v"
    assert sim.now == 5


def test_run_until_already_failed_event_reraises():
    sim = Simulator()
    ev = sim.event()
    ev.callbacks.append(lambda _ev: None)  # observed, so the run survives it
    ev.fail(RuntimeError("stale failure"))
    sim.run()
    with pytest.raises(RuntimeError, match="stale failure"):
        sim.run(until=ev)


# ----------------------------------------------------------- call_at edges
def test_call_at_in_the_past_raises_not_schedules():
    sim = Simulator()
    sim.timeout(50)
    sim.run()
    assert sim.now == 50
    with pytest.raises(SimulationError, match="in the past"):
        sim.call_at(49, lambda: None)


def test_call_at_now_fires_this_instant():
    sim = Simulator()
    hits = []

    def proc():
        yield sim.timeout(30)
        sim.call_at(30, lambda: hits.append(sim.now))  # now == 30

    sim.process(proc())
    sim.run()
    assert hits == [30]


# ------------------------------------------- repeated run(until=t) clock
def test_repeated_run_until_advances_clock_past_drained_schedule():
    sim = Simulator()
    sim.timeout(10)
    sim.run(until=100)
    # Queue drained at t=10, but the horizon still moves the clock.
    assert sim.now == 100
    sim.run(until=250)
    assert sim.now == 250
    # Re-running to the same horizon is a no-op, not an error.
    sim.run(until=250)
    assert sim.now == 250
    with pytest.raises(SimulationError, match="in the past"):
        sim.run(until=249)


def test_run_until_boundary_event_executes_exactly_once():
    sim = Simulator()
    fired = []

    def proc():
        yield sim.timeout(100)
        fired.append(sim.now)

    sim.process(proc())
    sim.run(until=100)  # event at exactly the horizon runs
    assert fired == [100]
    sim.run(until=200)
    assert fired == [100]


# -------------------------------------------------- unobserved failures
def test_strict_mode_surfaces_unobserved_event_failure():
    sim = Simulator()
    ev = sim.event()
    ev.fail(ValueError("nobody saw this"))
    with pytest.raises(ValueError, match="nobody saw this"):
        sim.run()


def test_strict_mode_spares_failures_with_a_waiter():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def waiter():
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(waiter())

    def failer():
        yield sim.timeout(1)
        ev.fail(ValueError("handled"))

    sim.process(failer())
    sim.run()  # the waiter observed it: strict mode must not re-raise
    assert caught == ["handled"]


# -------------------------------------------------- negative-delay timeouts
def test_negative_timeout_fails_at_schedule_time():
    """A negative delay must raise SimulationError when scheduled, not
    surface later as a "time ran backwards" heap violation far from the
    buggy caller."""
    sim = Simulator()
    with pytest.raises(SimulationError, match="negative timeout"):
        sim.timeout(-1)
    # Nothing was enqueued: the schedule is still empty.
    assert sim.scheduler_stats()["pending_entries"] == 0


def test_negative_call_in_fails_at_schedule_time():
    sim = Simulator()
    sim.timeout(100)
    sim.run()
    with pytest.raises(SimulationError, match="negative timeout"):
        sim.call_in(-5, lambda: None)
    assert sim.now == 100


def test_negative_timeout_inside_process_fails_loudly():
    sim = Simulator()
    seen = []

    def proc():
        try:
            yield sim.timeout(-7)
        except SimulationError as exc:
            seen.append(str(exc))

    sim.process(proc())
    sim.run()
    assert seen and "negative timeout" in seen[0]
