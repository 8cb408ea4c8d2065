"""Timer-wheel scheduler equivalence properties.

The wheel kernel replaced a binary heap whose ordering contract was
``(time, submission-seq)``.  These properties pin that the replacement
is *observably the same scheduler*:

* any random workload — including entries scheduled from inside firing
  callbacks, times clustered at equal instants, and times straddling
  the wheel's lap boundaries (multiples of the wheel span) and its
  overflow horizon — fires in exactly the order a reference
  ``(time, seq)`` heap would fire it;
* FIFO stability at equal timestamps holds regardless of which side of
  the wheel/overflow split the entries land on;
* the same seed produces the same trace digest through the new
  one-entry-per-frame link and batched-MAC scheduling (whole-stack
  determinism, not just kernel ordering).
"""

import heapq

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.scenarios import get_scenario, run_scenario
from repro.sim import Simulator

#: the wheel covers one lap of this many 1-ns slots (kernel constant);
#: delays are drawn to straddle lap boundaries and the overflow horizon.
WHEEL_SPAN = 8192

CALM = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: delays biased toward the interesting regimes: dense near-future,
#: exact lap-boundary values, and far overflow territory.
delay = st.one_of(
    st.integers(0, 50),
    st.sampled_from([
        WHEEL_SPAN - 1, WHEEL_SPAN, WHEEL_SPAN + 1,
        2 * WHEEL_SPAN - 1, 2 * WHEEL_SPAN,
    ]),
    st.integers(0, 5 * WHEEL_SPAN),
    st.integers(0, 50_000_000),
)

#: one workload item: an initial delay plus follow-up delays the entry
#: schedules (relative to its own fire time) when it fires — chained
#: scheduling is what forces the wheel through lap advances mid-run.
workload = st.lists(
    st.tuples(delay, st.lists(delay, max_size=2)),
    min_size=1, max_size=40,
)


def reference_order(items):
    """Fire order of a strict ``(time, seq)`` heap over the workload."""
    heap = []
    seq = 0
    for initial, chain in items:
        heapq.heappush(heap, (initial, seq, chain))
        seq += 1
    fired = []
    while heap:
        time, tag, chain = heapq.heappop(heap)
        fired.append((time, tag))
        for extra in chain:
            heapq.heappush(heap, (time + extra, seq, ()))
            seq += 1
    return fired


def wheel_order(items):
    """The same workload through the real kernel."""
    sim = Simulator()
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
def test_wheel_fires_in_reference_heap_order(items):
    assert wheel_order(items) == reference_order(items)


@given(
    groups=st.lists(
        st.tuples(delay, st.integers(1, 5)), min_size=1, max_size=12
    )
)
@CALM
def test_fifo_stability_at_equal_timestamps(groups):
    """Entries at one instant fire in submission order, wherever the
    instant lands relative to the wheel window."""
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


@given(seed=st.integers(0, 40))
@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_same_seed_same_digest_through_link_and_mac_scheduling(seed):
    """Whole-stack determinism survives the wave-2 scheduling: the
    churn scenario (fibre cuts over loaded one-entry links, paced MACs)
    digests identically on every same-seed run."""
    spec = get_scenario("churn_under_load").with_seed(seed)
    first = run_scenario(spec)
    second = run_scenario(spec)
    assert first.trace_digest == second.trace_digest
    assert first.counters == second.counters
