"""Determinism regression: same seed => identical timeline, bit for bit.

The whole experimental method of this repo rests on the kernel's
determinism contract (integer clock, FIFO tie-breaks, named seeded
streams).  This test drives a *full* 8-node cluster — gossip membership
on, scripted faults firing, every subsystem tracing — twice with the
same seed and asserts the two tracer timelines are identical, then once
more with a different seed and asserts they diverge (the membership
layer draws jitter and partner choices from the seeded streams, so a
different master seed must produce a different gossip timeline).
"""

from repro import AmpNetCluster
from repro.faults import FaultSchedule


def run_scenario(seed: int):
    cluster = AmpNetCluster(
        n_nodes=8, n_switches=2, seed=seed, membership=True,
    )
    cluster.start()
    cluster.run_until_ring_up()
    tour = cluster.tour_estimate_ns
    now = cluster.sim.now
    sched = (
        FaultSchedule()
        .crash_node(now + 40 * tour, 5)
        .cut_link(now + 300 * tour, 2, 0)
        .recover_node(now + 600 * tour, 5)
    )
    sched.arm(cluster)
    cluster.run(until=now + 1200 * tour)
    return [
        (r.time, r.category, r.source, tuple(sorted(r.data.items())))
        for r in cluster.tracer.records
    ]


def test_same_seed_same_timeline():
    first = run_scenario(seed=13)
    second = run_scenario(seed=13)
    assert len(first) > 200  # the scenario really exercised the stack
    assert first == second


def test_different_seed_diverges():
    assert run_scenario(seed=13) != run_scenario(seed=14)
