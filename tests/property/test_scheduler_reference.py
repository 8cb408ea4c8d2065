"""The kernel against a reference ``(time, seq)`` heap.

The kernel's ordering contract is the textbook one: entries fire in
``(time, submission order)``.  :class:`HeapSimulator` is that contract
and nothing more — a binary heap of ``(time, seq, entry)`` tuples behind
the ``Simulator`` API — and the tests here hold the real kernel (a dict
of instants over a heap of ints) to it:

* random workloads, including entries posted from inside firing
  entries, many entries at one instant and instants far in the future;
* named cases for the corners of the dict-of-instants design: a lone
  entry that posts at ``now``, an instant whose entries post more at
  ``now`` while it drains, ``run(until=t)`` stopping and resuming, an
  exception raised partway through an instant, and ``run(until=event)``;
* whole scenarios: three golden-pinned storylines run on the reference
  heap to the real kernel's digest, event count and counters;
* the same seed produces the same trace digest through the one-entry-
  per-frame links and the fused MAC (whole-stack determinism, not just
  kernel ordering).
"""

import heapq

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.cluster
from repro.scenarios import ScenarioRunner, get_scenario, run_scenario
from repro.sim import Simulator

#: the kernel's reporting lap (``scheduler_stats()["wheel_slots"]``);
#: delays are drawn to straddle its boundaries.
LAP = 8192

CALM = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class HeapSimulator(Simulator):
    """``Simulator`` with its schedule swapped for a ``(time, seq)`` heap.

    ``run`` takes ``until=None`` or an int; an entry's exception leaves
    the rest of the heap in place, so a later ``run`` resumes."""

    def __init__(self, seed: int = 0):
        super().__init__(seed)
        self._heap = []
        self._seq = 0

    def _post(self, time, entry):
        heapq.heappush(self._heap, (time, self._seq, entry))
        self._seq += 1

    def run(self, until=None):
        stop = None if until is None else int(until)
        heap = self._heap
        while heap and (stop is None or heap[0][0] <= stop):
            self._now, _seq, entry = heapq.heappop(heap)
            self.events_processed += 1
            if self.on_event is not None:
                self.on_event(entry)
            entry.fn(*entry.args)
        if stop is not None:
            self._now = stop


# ----------------------------------------------------------- random workloads
#: delays biased toward the interesting regimes: dense near-future,
#: exact lap-boundary values, and far-future instants.
delay = st.one_of(
    st.integers(0, 50),
    st.sampled_from([LAP - 1, LAP, LAP + 1, 2 * LAP - 1, 2 * LAP]),
    st.integers(0, 5 * LAP),
    st.integers(0, 50_000_000),
)

#: one workload item: an initial delay plus follow-up delays the entry
#: posts (relative to its own fire time) when it fires.
workload = st.lists(
    st.tuples(delay, st.lists(delay, max_size=2)),
    min_size=1, max_size=40,
)


def fire_order(sim, items):
    fired = []
    tags = iter(range(10 ** 9))

    def fire(tag, chain):
        fired.append((sim.now, tag))
        for extra in chain:
            sim.call_in(extra, fire, next(tags), ())

    for initial, chain in items:
        sim.call_in(initial, fire, next(tags), chain)
    sim.run()
    return fired


@given(items=workload)
@CALM
def test_kernel_fires_in_reference_heap_order(items):
    assert fire_order(Simulator(), items) == fire_order(HeapSimulator(), items)


@given(
    groups=st.lists(
        st.tuples(delay, st.integers(1, 5)), min_size=1, max_size=12
    )
)
@CALM
def test_fifo_stability_at_equal_timestamps(groups):
    """Entries at one instant fire in submission order, however near or
    far the instant lies."""
    sim = Simulator()
    fired = []
    tag = 0
    expected = {}
    for at, width in groups:
        for _ in range(width):
            sim.call_in(at, lambda t: fired.append((sim.now, t)), tag)
            expected.setdefault(at, []).append(tag)
            tag += 1
    sim.run()
    for at in sorted(expected):
        at_instant = [t for (when, t) in fired if when == at]
        assert at_instant == expected[at]


# ---------------------------------------------------------------- named cases
def both(script):
    """Run ``script(sim, log)`` on the kernel and on the reference heap;
    each returns its log, which must agree."""
    logs = []
    for sim in (Simulator(), HeapSimulator()):
        log = []
        script(sim, log)
        logs.append(log)
    assert logs[0] == logs[1]
    return logs[0]


def test_lone_entry_posting_at_now_fires_after_it():
    def script(sim, log):
        def first():
            log.append(("first", sim.now))
            sim.call_in(0, lambda: log.append(("posted at now", sim.now)))
            sim.call_in(1, lambda: log.append(("next ns", sim.now)))

        sim.call_at(5, first)
        sim.call_at(6, lambda: log.append(("already due", sim.now)))
        sim.run()

    assert both(script) == [("first", 5), ("posted at now", 5),
                            ("already due", 6), ("next ns", 6)]


def test_instant_whose_entries_post_at_now_while_it_drains():
    def script(sim, log):
        def entry(tag, depth):
            log.append((tag, sim.now))
            if depth:
                sim.call_in(0, entry, tag + "+", depth - 1)

        for tag in "abc":
            sim.call_at(10, entry, tag, 2)
        sim.run()

    order = both(script)
    assert [tag for tag, _ in order] == [
        "a", "b", "c", "a+", "b+", "c+", "a++", "b++", "c++"]
    assert {t for _, t in order} == {10}


def test_run_until_stops_and_resumes_in_order():
    def script(sim, log):
        for at in (5, 5, 9, 9, 20, LAP + 3):
            sim.call_at(at, lambda a=at: log.append((a, sim.now)))
        for stop in (4, 5, 9, 19, 10 * LAP):
            sim.run(until=stop)
            log.append(("stopped", sim.now))
            sim.call_in(0, lambda: log.append(("posted between", sim.now)))

    assert both(script) == [
        ("stopped", 4), ("posted between", 4), (5, 5), (5, 5),
        ("stopped", 5), ("posted between", 5), (9, 9), (9, 9),
        ("stopped", 9), ("posted between", 9), ("stopped", 19),
        ("posted between", 19), (20, 20), (LAP + 3, LAP + 3),
        ("stopped", 10 * LAP),
    ]


def test_exception_mid_instant_keeps_the_rest_of_the_instant():
    """Entries not yet fired stay ahead of what was posted at the same
    instant before the exception, and a later ``run`` fires them."""
    def script(sim, log):
        def boom():
            log.append(("boom", sim.now))
            sim.call_in(0, lambda: log.append(("posted by boom", sim.now)))
            raise RuntimeError("boom")

        sim.call_at(7, lambda: log.append(("before", sim.now)))
        sim.call_at(7, boom)
        sim.call_at(7, lambda: log.append(("after", sim.now)))
        sim.call_at(8, lambda: log.append(("later", sim.now)))
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()
        log.append(("caught", sim.now))
        sim.run()
        log.append(("events", sim.events_processed))

    assert both(script) == [
        ("before", 7), ("boom", 7), ("caught", 7), ("after", 7),
        ("posted by boom", 7), ("later", 8), ("events", 5)]


def test_run_until_event_leaves_the_rest_of_its_instant_pending():
    """The event fires from a slot of its own instant with an entry
    behind it; ``run`` returns there, and that entry fires on resume."""
    sim = Simulator()
    log = []
    done = sim.event()

    def trigger():
        log.append("trigger")
        done.succeed("value")  # the event itself is posted at now
        sim.call_in(0, log.append, "after")

    sim.call_at(3, trigger)
    sim.call_at(4, log.append, "later")
    assert sim.run(until=done) == "value"
    assert (log, sim.now) == (["trigger"], 3)
    assert sim.scheduler_stats()["pending_entries"] == 2
    sim.run()
    assert log == ["trigger", "after", "later"]


# ---------------------------------------------------------- whole scenarios
@pytest.mark.parametrize(
    "name", ["quiet_ring", "slide7_mixed", "failover_under_load"])
def test_reference_heap_runs_golden_scenarios_to_the_same_digest(
        name, monkeypatch):
    spec = get_scenario(name)
    kernel = ScenarioRunner(spec)
    expected = kernel.run()
    monkeypatch.setattr(repro.cluster, "Simulator", HeapSimulator)
    reference = ScenarioRunner(spec)
    got = reference.run()
    assert type(reference.cluster.sim) is HeapSimulator
    assert got.trace_digest == expected.trace_digest
    assert got.counters == expected.counters
    assert (reference.cluster.sim.events_processed
            == kernel.cluster.sim.events_processed)


@given(seed=st.integers(0, 40))
@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_same_seed_same_digest_through_link_and_mac_scheduling(seed):
    """Whole-stack determinism survives the data-path scheduling: the
    churn scenario (fibre cuts over loaded one-entry links, paced MACs)
    digests identically on every same-seed run."""
    spec = get_scenario("churn_under_load").with_seed(seed)
    first = run_scenario(spec)
    second = run_scenario(spec)
    assert first.trace_digest == second.trace_digest
    assert first.counters == second.counters
