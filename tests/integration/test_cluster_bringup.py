"""Integration: cluster self-organization, ring traffic, self-healing."""

import pytest

from repro import AmpNetCluster
from repro.micropacket import BROADCAST, MicroPacket, MicroPacketType


def make_cluster(n_nodes=6, n_switches=4, **kw):
    cluster = AmpNetCluster(n_nodes=n_nodes, n_switches=n_switches, **kw)
    cluster.start()
    return cluster


def data(src, dst, payload=b"payload!"):
    return MicroPacket(ptype=MicroPacketType.DATA, src=src, dst=dst, payload=payload)


# --------------------------------------------------------------- bring-up
@pytest.mark.parametrize("membership, stack_channels", [
    (False, [1, 2]), (True, [1, 2, 10]),
])
def test_cluster_builds_the_network_and_nothing_else(membership, stack_channels):
    """Applications attach themselves: a built node listens on the
    cache channels (and gossip's when configured) and has no slot for
    AmpDC, AmpFiles, AmpIP, AmpSubscribe or AmpThreads."""
    cluster = AmpNetCluster(n_nodes=3, n_switches=1, membership=membership)
    for node in cluster.nodes.values():
        assert [
            channel
            for channel, fn in enumerate(node.messenger._message_handlers)
            if fn is not None
        ] == stack_channels
        assert not {"amp_dc", "files", "ip", "subscribe", "threads"} & set(vars(node))


def test_cluster_self_organizes_into_one_ring():
    cluster = make_cluster()
    t_up = cluster.run_until_ring_up()
    roster = cluster.current_roster()
    assert roster is not None
    assert set(roster.members) == set(range(6))
    assert t_up < 10 * cluster.tour_estimate_ns
    # Every node installed the identical roster.
    for node in cluster.nodes.values():
        assert node.roster == roster


def test_bringup_works_for_various_sizes():
    for n_nodes, n_switches in [(2, 1), (4, 2), (8, 4), (12, 2)]:
        cluster = make_cluster(n_nodes=n_nodes, n_switches=n_switches)
        cluster.run_until_ring_up()
        roster = cluster.current_roster()
        assert roster is not None and roster.size == n_nodes


def test_switch_maps_installed_consistently():
    cluster = make_cluster()
    cluster.run_until_ring_up()
    roster = cluster.current_roster()
    maps = roster.switch_maps()
    for sw_id, mapping in maps.items():
        assert cluster.topology.switches[sw_id].ring_map == mapping


# ------------------------------------------------------------ ring traffic
def test_unicast_delivery_and_source_strip():
    cluster = make_cluster()
    cluster.run_until_ring_up()
    got = []
    cluster.nodes[3].register_default(lambda pkt, fr: got.append(pkt))
    tours = []
    cluster.nodes[0].tour_complete_listeners.append(
        lambda fr: tours.append(fr) if fr.packet.ptype == MicroPacketType.DATA else None
    )
    cluster.nodes[0].send(data(0, 3))
    cluster.run(until=cluster.sim.now + 5 * cluster.tour_estimate_ns)
    assert len(got) == 1 and got[0].payload == b"payload!"
    assert len(tours) == 1


def test_broadcast_reaches_every_other_node():
    cluster = make_cluster()
    cluster.run_until_ring_up()
    seen = {i: [] for i in range(6)}
    for i, node in cluster.nodes.items():
        node.register_default(lambda pkt, fr, i=i: seen[i].append(pkt) if pkt.ptype == MicroPacketType.DATA else None)
    cluster.nodes[2].send(data(2, BROADCAST))
    cluster.run(until=cluster.sim.now + 5 * cluster.tour_estimate_ns)
    for i in range(6):
        assert len(seen[i]) == (0 if i == 2 else 1), i


def test_many_packets_all_complete_tours():
    cluster = make_cluster(n_nodes=4, n_switches=2)
    cluster.run_until_ring_up()
    n = 40
    tours = []
    for i in range(4):
        cluster.nodes[i].tour_complete_listeners.append(
            lambda fr: tours.append(fr)
            if fr.packet.ptype == MicroPacketType.DATA else None
        )
    for k in range(n):
        src = k % 4
        cluster.nodes[src].send(data(src, (src + 1) % 4).with_seq(k))
    cluster.run(until=cluster.sim.now + 50 * cluster.tour_estimate_ns)
    total_tours = len(tours)
    total_drops = sum(
        cluster.nodes[i].mac.counters["transit_overflow_drop"] for i in range(4)
    )
    assert total_tours == n
    assert total_drops == 0


# ------------------------------------------------------------ self-healing
def test_link_cut_triggers_reroster_and_ring_recovers():
    cluster = make_cluster()
    cluster.run_until_ring_up()
    roster_before = cluster.current_roster()
    # Cut the active hop of node 0.
    sw = roster_before.hop_switch_from(0)
    cluster.cut_link(0, sw)
    cluster.run_until_reroster()
    roster_after = cluster.current_roster()
    assert roster_after.round_no != roster_before.round_no
    assert set(roster_after.members) == set(range(6))  # quad redundancy
    roster_after.validate_against(cluster.topology.live_attachment())


def test_switch_failure_ring_rebuilds_on_surviving_switch():
    cluster = make_cluster()
    cluster.run_until_ring_up()
    active_switches = set(cluster.current_roster().hop_switches)
    victim = active_switches.pop()
    cluster.fail_switch(victim)
    cluster.run_until_reroster()
    roster = cluster.current_roster()
    assert set(roster.members) == set(range(6))
    assert victim not in set(roster.hop_switches)


def test_ring_survives_all_but_one_switch():
    cluster = make_cluster()
    cluster.run_until_ring_up()
    for victim in (0, 1, 2):
        active = set(cluster.current_roster().hop_switches)
        cluster.fail_switch(victim)
        if victim in active:
            cluster.run_until_reroster()
        else:
            cluster.run(until=cluster.sim.now + 2 * cluster.tour_estimate_ns)
            cluster.run_until_ring_up()
    roster = cluster.current_roster()
    assert set(roster.members) == set(range(6))
    assert set(roster.hop_switches) == {3}


def test_node_crash_shrinks_roster():
    cluster = make_cluster()
    cluster.run_until_ring_up()
    cluster.crash_node(4)
    cluster.run_until_reroster()
    roster = cluster.current_roster()
    assert set(roster.members) == set(range(6)) - {4}


def test_crashed_node_reenters_after_recovery():
    cluster = make_cluster()
    cluster.run_until_ring_up()
    cluster.crash_node(4)
    cluster.run_until_reroster()
    cluster.recover_node(4)
    cluster.run_until_reroster()
    roster = cluster.current_roster()
    assert set(roster.members) == set(range(6))
    assert cluster.nodes[4].ring_up


def test_traffic_resumes_after_heal():
    cluster = make_cluster()
    cluster.run_until_ring_up()
    sw = cluster.current_roster().hop_switch_from(2)
    cluster.cut_link(2, sw)
    cluster.run_until_reroster()
    got = []
    cluster.nodes[5].register_default(lambda pkt, fr: got.append(pkt) if pkt.ptype == MicroPacketType.DATA else None)
    cluster.nodes[2].send(data(2, 5))
    cluster.run(until=cluster.sim.now + 5 * cluster.tour_estimate_ns)
    assert len(got) == 1


def test_rostering_elapsed_close_to_two_tours():
    """Slide 16: rostering completes in ~two ring-tour times."""
    cluster = make_cluster(n_nodes=8, n_switches=2, fiber_m=2000.0)
    cluster.run_until_ring_up()
    roster = cluster.current_roster()
    cluster.cut_link(3, roster.hop_switch_from(3))
    cluster.run_until_reroster()
    recs = [
        r for r in cluster.tracer.select(category="roster_installed")
        if r.data["round"] == cluster.current_roster().round_no
    ]
    assert recs
    elapsed = max(r.data["elapsed_ns"] for r in recs)
    tour = cluster.tour_estimate_ns
    assert tour <= elapsed <= 4 * tour


def test_double_cut_heals_to_threaded_two_switch_roster():
    """Cut (node0, sw1) and (node3, sw0) on a 2-switch segment: no single
    switch reaches everyone, so the healed ring must *thread* both
    switches via bridge nodes — and the master must program a switch it
    has no direct live fibre to (regression: an over-eager control-plane
    guard once left node 3 permanently excluded)."""
    cluster = make_cluster(n_nodes=4, n_switches=2, seed=1)
    cluster.run_until_ring_up()
    cluster.cut_link(0, 1)
    cluster.cut_link(3, 0)
    cluster.run_until_reroster()
    roster = cluster.current_roster()
    assert set(roster.members) == {0, 1, 2, 3}
    assert set(roster.hop_switches) == {0, 1}  # genuinely threaded
    for node in cluster.nodes.values():
        assert node.ring_up
    roster.validate_against(cluster.topology.live_attachment())


def test_a_cluster_is_described_by_its_keywords_alone():
    """Regression: a settings bag beside the shape arguments
    (``AmpNetCluster(n_nodes=12, seed=9, config=...)``) once built the
    bag's six nodes at seed 0 without a word.  There is no bag now, so
    there is nothing for an argument to lose to."""
    with pytest.raises(TypeError, match="config"):
        AmpNetCluster(n_nodes=12, config=None)
    cluster = AmpNetCluster(n_nodes=12, n_switches=2, fiber_m=10.0)
    assert len(cluster.nodes) == 12
    assert len(cluster.topology.switches) == 2
    assert cluster.topology.fiber_m == 10.0
