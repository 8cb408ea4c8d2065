"""Integration: workload generators and scripted fault scenarios."""

import pytest

from repro import AmpNetCluster
from repro.analysis import ring_drop_count
from repro.faults import FaultSchedule
from repro.workloads import (
    AllToAllBroadcast,
    FileStream,
    MessageStream,
    run_slide7_mixed_workload,
)


def make_cluster(n_nodes=4, n_switches=2, **kw):
    cluster = AmpNetCluster(n_nodes=n_nodes, n_switches=n_switches, **kw)
    cluster.start()
    cluster.run_until_ring_up()
    return cluster


def settle(cluster, tours=50):
    cluster.run(until=cluster.sim.now + tours * cluster.tour_estimate_ns)


# ---------------------------------------------------------------- workloads
def test_message_stream_delivers_all():
    cluster = make_cluster()
    stream = MessageStream(cluster, 0, 2, interval_ns=2_000, count=50)
    settle(cluster, tours=200)
    assert stream.stats.offered == 50
    assert stream.stats.delivered == 50
    assert stream.stats.latency.count == 50


def test_file_stream_moves_bulk_data():
    cluster = make_cluster()
    stream = FileStream(cluster, 1, 3, chunk_bytes=4096, count=5)
    settle(cluster, tours=400)
    assert stream.stats.delivered == 5
    assert stream.stats.bytes_delivered == 5 * 4096


def test_slide7_mixed_workload_all_streams_progress():
    """Slide 7: multiple concurrent streams per segment."""
    cluster = make_cluster()
    stats = run_slide7_mixed_workload(cluster, duration_tours=600)
    for s in stats:
        assert s.delivered > 0, s.name
    assert ring_drop_count(cluster) == 0


def test_all_to_all_broadcast_no_drops_and_complete():
    """Slide 8: simultaneous all-to-all broadcast, zero drops."""
    cluster = make_cluster(n_nodes=6, n_switches=2)
    storm = AllToAllBroadcast(cluster, count=30)
    settle(cluster, tours=800)
    assert storm.total_drops() == 0
    assert storm.complete()
    assert storm.total_delivered() == storm.expected_deliveries()


def test_flow_control_backoff_engages_under_mixed_load():
    """The local-view controller reacts when long DMA cells make transit
    back up behind short cells (uniform cells arrive exactly at service
    rate and never queue — only mixed sizes exercise the backoff)."""
    cluster = make_cluster()
    run_slide7_mixed_workload(cluster, duration_tours=600)
    backoffs = sum(
        node.mac.controller.backoffs for node in cluster.nodes.values()
    )
    assert backoffs > 0  # local view reacted to ring load
    assert ring_drop_count(cluster) == 0  # and still no drops


# ------------------------------------------------------------------- faults
def test_fault_schedule_applies_in_order():
    cluster = make_cluster(n_nodes=6, n_switches=4)
    tour = cluster.tour_estimate_ns
    sched = (
        FaultSchedule()
        .cut_link(10 * tour, 0, 0)
        .restore_link(60 * tour, 0, 0)
        .fail_switch(30 * tour, 1)
    )
    sched.arm(cluster)
    settle(cluster, tours=100)
    assert sched.counters["cut_link"] == 1
    assert sched.counters["fail_switch"] == 1
    assert sched.counters["restore_link"] == 1
    faults = cluster.tracer.select(category="fault")
    assert [f.data["kind"] for f in faults] == [
        "cut_link", "fail_switch", "restore_link",
    ]


def test_single_link_cut_scenario_heals():
    cluster = make_cluster(n_nodes=6, n_switches=4)
    # Cut node 2's active-hop fibre once the ring is steady.
    switch = cluster.current_roster().hop_switch_from(2)
    FaultSchedule().cut_link(20 * cluster.tour_estimate_ns, 2, switch).arm(cluster)
    cluster.run_until_reroster()
    assert set(cluster.current_roster().members) == set(range(6))


def test_rolling_switch_failures_end_on_last_switch():
    cluster = make_cluster(n_nodes=6, n_switches=4)
    # Switches die one after another until a single survivor remains.
    tour = cluster.tour_estimate_ns
    sched = FaultSchedule()
    for sw in range(3):
        sched.fail_switch((sw + 1) * 80 * tour, sw)
    sched.arm(cluster)
    settle(cluster, tours=400)
    cluster.run_until_ring_up()
    roster = cluster.current_roster()
    assert set(roster.members) == set(range(6))
    assert set(roster.hop_switches) == {3}


def test_crash_and_rejoin_scenario():
    cluster = make_cluster(n_nodes=6, n_switches=4)
    # Node crashes, then powers back up and seeks assimilation.
    tour = cluster.tour_estimate_ns
    FaultSchedule().crash_node(20 * tour, 4).recover_node(150 * tour, 4).arm(cluster)
    settle(cluster, tours=400)
    cluster.run_until_ring_up()
    assert set(cluster.current_roster().members) == set(range(6))
    assert cluster.nodes[4].refresh.warm


def test_double_fault_scenario_still_heals():
    cluster = make_cluster(n_nodes=6, n_switches=4)
    # A switch dies and, mid-rostering, a node's link to the next-best
    # switch is cut — the overlapping-failure stress case.
    tour = cluster.tour_estimate_ns
    (
        FaultSchedule()
        .fail_switch(30 * tour, 0)
        .cut_link(30 * tour + tour // 2, 1, 1)
        .arm(cluster)
    )
    settle(cluster, tours=200)
    cluster.run_until_ring_up()
    roster = cluster.current_roster()
    roster.validate_against(cluster.topology.live_attachment())
    assert set(roster.members) == set(range(6))


def test_traffic_through_fault_storm_is_lossless_end_to_end():
    """Messages submitted before and during failures all arrive."""
    cluster = make_cluster(n_nodes=6, n_switches=4)
    tour = cluster.tour_estimate_ns
    got = []
    cluster.nodes[5].messenger.on_message(10, lambda s, d, c: got.append(d))
    handles = []
    sched = FaultSchedule().cut_link(5 * tour, 0, 0).fail_switch(40 * tour, 1)
    sched.arm(cluster)
    for k in range(10):
        handles.append(
            cluster.nodes[0].messenger.send(5, bytes([k]) * 500, 10)
        )
    settle(cluster, tours=600)
    assert len(got) == 10
    assert all(h.delivered.triggered for h in handles)


# ------------------------------------------------------- handler lifecycle
def test_sequential_message_streams_do_not_double_count():
    """Regression: MessageStream used to leave its default sink installed
    forever, so a second stream on the same cluster fed the first one's
    stats too."""
    cluster = make_cluster()
    first = MessageStream(cluster, 0, 2, interval_ns=2_000, count=20, channel=0)
    settle(cluster, tours=120)
    assert first.stats.delivered == 20
    first.close()

    second = MessageStream(cluster, 0, 2, interval_ns=2_000, count=20, channel=0)
    settle(cluster, tours=120)
    assert second.stats.delivered == 20
    assert first.stats.delivered == 20  # untouched after close()
    second.close()


def test_alltoall_close_releases_every_sink():
    cluster = make_cluster()
    storm = AllToAllBroadcast(cluster, count=5)
    settle(cluster, tours=200)
    assert storm.complete()
    storm.close()
    before = {k: v.delivered for k, v in storm.stats.items()}

    rerun = AllToAllBroadcast(cluster, count=5)
    settle(cluster, tours=200)
    assert rerun.complete()
    assert {k: v.delivered for k, v in storm.stats.items()} == before
    rerun.close()


def test_file_stream_close_frees_messenger_channel():
    cluster = make_cluster()
    first = FileStream(cluster, 0, 2, chunk_bytes=512, count=2, channel=11)
    settle(cluster, tours=200)
    assert first.stats.delivered == 2
    first.close()
    # Without close() this would raise "channel already claimed".
    second = FileStream(cluster, 1, 2, chunk_bytes=512, count=2, channel=11)
    settle(cluster, tours=200)
    assert second.stats.delivered == 2
    second.close()


def test_reliable_stream_survives_ring_churn():
    """reliable=True rides the messenger: a mid-run link cut loses no
    offered message."""
    cluster = make_cluster(n_nodes=6, n_switches=4)
    tour = cluster.tour_estimate_ns
    stream = MessageStream(cluster, 1, 4, interval_ns=3_000, count=40,
                           channel=12, reliable=True)
    FaultSchedule().cut_link(10 * tour, 1, 0).arm(cluster)
    settle(cluster, tours=500)
    assert stream.stats.offered == 40
    assert stream.stats.delivered == 40
    stream.close()
