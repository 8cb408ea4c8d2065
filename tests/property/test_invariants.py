"""Property-based tests on system-level invariants.

These drive whole clusters with hypothesis-chosen traffic and fault
patterns and check the properties the paper stakes its claims on:

* conservation — every frame inserted on an operating ring is delivered
  (unicast) or delivered everywhere (broadcast) and then source-stripped;
  nothing is dropped and nothing duplicated;
* messenger exactly-once delivery regardless of fragmentation size;
* roster validity/maximality for arbitrary attachment maps (see also
  tests/unit/rostering/test_roster.py);
* ledger monotonicity through arbitrary single-fault schedules.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import AmpNetCluster
from repro.analysis import ring_drop_count
from repro.micropacket import BROADCAST, MicroPacket, MicroPacketType
from repro.services import AmpFiles

SLOW = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def fresh_cluster(n_nodes, n_switches, seed):
    cluster = AmpNetCluster(n_nodes=n_nodes, n_switches=n_switches, seed=seed)
    cluster.start()
    cluster.run_until_ring_up()
    return cluster


@given(
    n_nodes=st.integers(3, 8),
    sends=st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 8)),  # (src, dst or bcast)
        min_size=1, max_size=30,
    ),
    seed=st.integers(0, 3),
)
@SLOW
def test_ring_conservation_random_unicast_broadcast_mix(n_nodes, sends, seed):
    """No drop, no duplicate, every tour completes, per-source FIFO."""
    cluster = fresh_cluster(n_nodes, 2, seed)
    deliveries = {i: [] for i in range(n_nodes)}
    for i, node in cluster.nodes.items():
        node.register_default(
            lambda pkt, fr, i=i: deliveries[i].append(pkt)
            if pkt.ptype == MicroPacketType.DATA else None
        )
    tours = []
    for node in cluster.nodes.values():
        node.tour_complete_listeners.append(
            lambda fr: tours.append(fr)
            if fr.packet.ptype == MicroPacketType.DATA else None
        )
    expected_unicast = 0
    expected_broadcast = 0
    count = 0
    for src_raw, dst_raw in sends:
        src = src_raw % n_nodes
        dst = BROADCAST if dst_raw == 8 else dst_raw % n_nodes
        if dst == src:
            dst = (src + 1) % n_nodes
        pkt = MicroPacket(
            ptype=MicroPacketType.DATA, src=src, dst=dst,
            payload=count.to_bytes(8, "little"),
        ).with_seq(count)
        cluster.nodes[src].send(pkt)
        count += 1
        if dst == BROADCAST:
            expected_broadcast += 1
        else:
            expected_unicast += 1
    cluster.run(until=cluster.sim.now + 400 * cluster.tour_estimate_ns)

    total_delivered = sum(len(v) for v in deliveries.values())
    assert total_delivered == expected_unicast + expected_broadcast * (n_nodes - 1)
    assert len(tours) == expected_unicast + expected_broadcast
    assert ring_drop_count(cluster) == 0
    # No duplicates: payload counters unique per receiving node.
    for i, pkts in deliveries.items():
        payloads = [p.payload for p in pkts]
        assert len(set(payloads)) == len(payloads)


@given(
    size=st.integers(1, 3000),
    channel=st.integers(10, 12),
    seed=st.integers(0, 3),
)
@SLOW
def test_messenger_delivers_any_size_exactly_once(size, channel, seed):
    cluster = fresh_cluster(4, 2, seed)
    payload = bytes((seed + i) % 256 for i in range(size))
    got = []
    cluster.nodes[3].messenger.on_message(
        channel, lambda s, d, c: got.append(d)
    )
    handle = cluster.nodes[0].messenger.send(3, payload, channel)
    cluster.run(until=cluster.sim.now + 600 * cluster.tour_estimate_ns)
    assert got == [payload]
    assert handle.delivered.triggered


@given(
    fault=st.sampled_from(["link", "switch", "node"]),
    victim=st.integers(0, 5),
    seed=st.integers(0, 3),
)
@SLOW
def test_single_fault_always_heals_with_maximal_roster(fault, victim, seed):
    """Any single fault on the quad-redundant segment heals to the
    largest physically constructible ring."""
    cluster = fresh_cluster(6, 4, seed)
    roster = cluster.current_roster()
    if fault == "link":
        cluster.cut_link(victim, roster.hop_switch_from(victim))
        expected_members = set(range(6))
    elif fault == "switch":
        cluster.fail_switch(roster.hop_switch_from(victim))
        expected_members = set(range(6))
    else:
        cluster.crash_node(victim)
        expected_members = set(range(6)) - {victim}
    cluster.run_until_reroster()
    healed = cluster.current_roster()
    assert set(healed.members) == expected_members
    healed.validate_against(cluster.topology.live_attachment())


@given(data=st.binary(min_size=1, max_size=800), seed=st.integers(0, 3))
@SLOW
def test_file_replication_is_content_faithful(data, seed):
    cluster = fresh_cluster(4, 2, seed)
    AmpFiles(cluster.nodes[1]).write_file("blob", data)
    cluster.run(until=cluster.sim.now + 500 * cluster.tour_estimate_ns)
    for node in cluster.nodes.values():
        assert AmpFiles(node).read_file_now("blob") == data


@given(
    n_nodes=st.integers(4, 8),
    victim_raw=st.integers(0, 7),
    seed=st.integers(0, 3),
)
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_gossip_membership_is_accurate_and_complete_for_any_crash(
    n_nodes, victim_raw, seed
):
    """Whatever the cluster size, victim and seed: after one crash the
    gossip layer converges with *completeness* (every survivor marks the
    victim DEAD) and *accuracy* (no survivor ends up marked DEAD)."""
    victim = victim_raw % n_nodes
    cluster = AmpNetCluster(
        n_nodes=n_nodes, n_switches=2, seed=seed, membership=True
    )
    cluster.start()
    cluster.run_until_ring_up()
    cfg = cluster._membership_cfg
    cluster.run(until=cluster.sim.now + 5 * cfg.period_ns)
    cluster.crash_node(victim)
    cluster.run_until_membership_converged(dead={victim})
    for node in cluster.live_nodes():
        assert node.membership.view.dead_ids() == [victim]
