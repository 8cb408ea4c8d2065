"""Integration: the availability-timeline report over a failover run."""

from repro import AmpNetCluster
from repro.analysis.timeline import availability_timeline, render_timeline
from repro.faults import FaultSchedule


def test_timeline_captures_failover_story_in_order():
    cluster = AmpNetCluster(n_nodes=6, n_switches=4)
    cluster.start()
    cluster.run_until_ring_up()
    t0 = cluster.sim.now
    tour = cluster.tour_estimate_ns
    FaultSchedule().cut_link(cluster.sim.now + 5 * tour, 0,
                             cluster.current_roster().hop_switch_from(0)
                             ).arm(cluster)
    cluster.run_until_reroster()
    cluster.run(until=cluster.sim.now + 50 * tour)

    events = availability_timeline(cluster, since=t0)
    labels = [e.label for e in events]
    # The canonical order of a healed link cut:
    assert "FAULT" in labels
    assert "DETECT" in labels
    assert "RING UP" in labels
    assert "CERTIFIED" in labels
    # (round 1's CERTIFIED may precede the fault; compare the healed
    # round's events, i.e. the last of each label.)
    last = {label: max(i for i, l in enumerate(labels) if l == label)
            for label in set(labels)}
    assert last["FAULT"] < last["DETECT"] or labels.index("FAULT") < last["DETECT"]
    assert last["DETECT"] < last["RING UP"]
    assert last["RING UP"] < last["CERTIFIED"]
    # Times are monotonic.
    times = [e.time for e in events]
    assert times == sorted(times)


def test_timeline_dedupes_per_round_events():
    cluster = AmpNetCluster(n_nodes=4, n_switches=2)
    cluster.start()
    cluster.run_until_ring_up()
    events = availability_timeline(cluster)
    ups = [e for e in events if e.label == "RING UP"]
    assert len(ups) == 1  # one per round, not one per node


def test_render_timeline_formats():
    cluster = AmpNetCluster(n_nodes=4, n_switches=2)
    cluster.start()
    cluster.run_until_ring_up()
    text = render_timeline(availability_timeline(cluster), title="T")
    assert text.splitlines()[0] == "T"
    assert "RING UP" in text
    assert "(+" in text  # deltas rendered


def test_render_empty_timeline():
    assert "(no availability events)" in render_timeline([])
