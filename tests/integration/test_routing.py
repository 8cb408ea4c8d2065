"""Integration: router-joined multi-ring clusters.

The frame-level routing subsystem end to end: capture off the ingress
ring, store-and-forward through bounded egress queues, re-origination
with the origin's global address preserved, forwarding tables learned
from liveness advertisements crossing the routers, and the no-data-loss
story across partitions.
"""

import pytest

from repro.micropacket import BROADCAST
from repro.routing import PortRole, RoutedCluster, RouterConfig
from repro.routing.election import MAX_ROOT_AGE_PERIODS
from repro.scenarios import (
    ScenarioSpec,
    SegmentSpec,
    TopologySpec,
    WorkloadSpec,
    get_scenario,
    run_scenario,
)

#: free messenger channel for test traffic (services claim the low ids)
CH = 13


def build(n_segments=2, n_nodes=4, routers=None, membership=False, seed=7):
    topology = TopologySpec(
        segments=[SegmentSpec(n_nodes)] * n_segments,
        routers=routers or [RouterConfig(segments=tuple(range(n_segments)))],
    )
    cluster = RoutedCluster(topology, seed=seed, membership=membership)
    cluster.start()
    cluster.run_until_ring_up()
    return cluster


def build_redundant(n_nodes=4, membership=False, seed=7, **router_kw):
    """Two routers joining the same segment pair — a cyclic graph."""
    return build(
        n_segments=2, n_nodes=n_nodes, membership=membership, seed=seed,
        routers=[
            RouterConfig(segments=(0, 1), priority=10, **router_kw),
            RouterConfig(segments=(0, 1), priority=200, **router_kw),
        ],
    )


def settle(cluster, tours=200):
    cluster.run(until=cluster.sim.now + tours * cluster.tour_estimate_ns)


def settle_election(cluster):
    """Let the routers exchange advertisements and converge roles."""
    period = max(r.advertise_period_ns for r in cluster.routers)
    cluster.run(until=cluster.sim.now + 2 * period)
    assert cluster.spanning_tree_converged()


def test_segments_run_independent_rings_with_gateways():
    cluster = build()
    for si, sub in enumerate(cluster.segments):
        roster = sub.current_roster()
        assert roster.size == 5  # 4 user nodes + 1 gateway
        assert 4 in roster.members  # the gateway rostered like any member
    # Independent rostering domains.
    assert cluster.segments[0].current_roster() is not cluster.segments[1].current_roster()


def test_cross_segment_message_preserves_global_source():
    cluster = build()
    got = []
    cluster.nodes[(1, 2)].messenger.on_message(
        CH, lambda src, data, ch: got.append((src, data))
    )
    cluster.nodes[(0, 1)].messenger.send((1, 2), b"over the router", CH)
    settle(cluster)
    assert got == [((0, 1), b"over the router")]
    router = cluster.routers[0]
    assert router.counters["messages_captured"] == 1
    assert router.counters["egress_tx"] == 1


def test_local_global_address_stays_on_ring():
    cluster = build()
    got = []
    cluster.nodes[(0, 3)].messenger.on_message(
        CH, lambda src, data, ch: got.append((src, data))
    )
    cluster.nodes[(0, 1)].messenger.send((0, 3), b"same segment", CH)
    settle(cluster, tours=60)
    assert got == [((0, 1), b"same segment")]
    assert cluster.routers[0].counters["messages_captured"] == 0


def test_cross_segment_reply_path():
    cluster = build()
    transcript = []

    def serve(src, data, ch):
        transcript.append(("request", src, data))
        cluster.nodes[(1, 0)].messenger.send(src, b"pong", CH)

    cluster.nodes[(1, 0)].messenger.on_message(CH, serve)
    cluster.nodes[(0, 2)].messenger.on_message(
        CH, lambda src, data, ch: transcript.append(("reply", src, data))
    )
    cluster.nodes[(0, 2)].messenger.send((1, 0), b"ping", CH)
    settle(cluster, tours=400)
    assert transcript == [
        ("request", (0, 2), b"ping"),
        ("reply", (1, 0), b"pong"),
    ]


def test_gateway_is_an_addressable_member_of_its_own_ring():
    """Gateway addressing, ported from the retired backplane-router
    suite to what the routed cluster supports: a gateway sends and
    receives by global address like any member of *its own* ring.
    (Across the router it is infrastructure, not an endpoint: its MAC
    source-strips the frames it inserts, so it neither captures its own
    crossings nor delivers a re-origination addressed to itself.)"""
    cluster = build()
    got = []
    for addr in ((1, 4), (1, 0)):
        cluster.nodes[addr].messenger.on_message(
            CH, lambda src, data, ch, addr=addr: got.append((addr, src, data))
        )
    cluster.nodes[(1, 0)].messenger.send((1, 4), b"to the gateway", CH)
    cluster.nodes[(1, 4)].messenger.send((1, 0), b"from the gateway", CH)
    settle(cluster, tours=60)
    assert sorted(got) == [
        ((1, 0), (1, 4), b"from the gateway"),
        ((1, 4), (1, 0), b"to the gateway"),
    ]
    assert cluster.routers[0].counters["messages_captured"] == 0


def test_crossing_survives_ring_failure_in_destination_segment():
    """A fibre cut in the destination segment just before the send: the
    crossing rides out the re-roster and still arrives (ported from the
    retired backplane-router suite)."""
    cluster = build(n_nodes=6)
    got = []
    cluster.nodes[(1, 3)].messenger.on_message(
        CH, lambda src, data, ch: got.append(data)
    )
    seg1 = cluster.segment(1)
    seg1.cut_link(2, seg1.current_roster().hop_switch_from(2))
    cluster.nodes[(0, 2)].messenger.send((1, 3), b"through the storm", CH)
    seg1.run_until_reroster()
    settle(cluster, tours=400)
    assert got == [b"through the storm"]


def test_fragmented_message_crosses_intact():
    cluster = build()
    payload = bytes(range(256)) * 4  # 16 fragments
    got = []
    cluster.nodes[(1, 1)].messenger.on_message(
        CH, lambda src, data, ch: got.append(data)
    )
    cluster.nodes[(0, 0)].messenger.send((1, 1), payload, CH)
    settle(cluster, tours=400)
    assert got == [payload]


def test_destination_id_collision_is_not_misdelivered():
    """A routed frame's dst id may equal a local node's id on the
    ingress ring; segment scoping must keep it from delivering there."""
    cluster = build()
    wrong, right = [], []
    cluster.nodes[(0, 2)].messenger.on_message(
        CH, lambda src, data, ch: wrong.append(data)
    )
    cluster.nodes[(1, 2)].messenger.on_message(
        CH, lambda src, data, ch: right.append(data)
    )
    cluster.nodes[(0, 0)].messenger.send((1, 2), b"for segment one", CH)
    settle(cluster)
    assert right == [b"for segment one"]
    assert wrong == []


def test_multi_hop_chain_learns_routes_and_delivers():
    cluster = build(
        n_segments=3,
        routers=[RouterConfig(segments=(0, 1)), RouterConfig(segments=(1, 2))],
    )
    r0, r1 = cluster.routers
    # Let advertisements cross: r0 must learn segment 2 via segment 1.
    cluster.run(until=cluster.sim.now + 3 * r0.advertise_period_ns)
    assert r0.table.routes[2].via == 1 and r0.table.routes[2].metric == 1
    assert r1.table.routes[0].via == 1 and r1.table.routes[0].metric == 1

    got = []
    cluster.nodes[(2, 1)].messenger.on_message(
        CH, lambda src, data, ch: got.append((src, data))
    )
    cluster.nodes[(0, 1)].messenger.send((2, 1), b"two hops", CH)
    settle(cluster, tours=600)
    assert got == [((0, 1), b"two hops")]
    assert r0.counters["messages_captured"] >= 1
    assert r1.counters["messages_captured"] >= 1

    # A sender on the *middle* segment: both routers capture the frame,
    # r0 declines (split horizon — r1 is attached to the destination)
    # and that decline must not read as a data-plane drop.
    cluster.nodes[(1, 0)].messenger.send((2, 1), b"from the middle", CH)
    settle(cluster, tours=600)
    assert got[-1] == ((1, 0), b"from the middle")
    assert r0.counters["split_horizon_declines"] >= 1
    assert r0.counters["unroutable_drop"] == 0
    assert cluster.router_drop_count() == 0


def test_segments_do_not_share_membership_rng_streams():
    """Equal node ids in different segments must draw gossip randomness
    from distinct named streams, or one segment's gossip schedule would
    silently perturb the other's."""
    cluster = build(membership=True)
    a = cluster.nodes[(0, 1)].membership.rng
    b = cluster.nodes[(1, 1)].membership.rng
    assert a is not b


def test_liveness_crosses_the_router_via_advertisements():
    cluster = build(
        n_segments=3,
        routers=[RouterConfig(segments=(0, 1)), RouterConfig(segments=(1, 2))],
        membership=True,
    )
    r0 = cluster.routers[0]
    cluster.run(until=cluster.sim.now + 3 * r0.advertise_period_ns)
    # r0 is not attached to segment 2, yet knows its live nodes
    # (4 users + the far router's gateway) from crossing advertisements.
    assert r0.live_in_segment(2) == {0, 1, 2, 3, 4}
    assert r0.considers_live((2, 3))
    assert not r0.considers_live((2, 99))


def test_gossip_overhead_per_node_is_messages_over_live_nodes():
    """Regression: the routed flavour averaged the per-segment averages,
    so a 5-member ring weighed as much as a 41-member one (48.04 where
    messages / live nodes is 13.63)."""
    cluster = RoutedCluster(
        TopologySpec(
            segments=[SegmentSpec(4), SegmentSpec(40)],
            routers=[RouterConfig(segments=(0, 1))],
        ),
        seed=1, membership=True,
    )
    cluster.start()
    cluster.run_until_ring_up()
    cluster.run(until=cluster.sim.now + 3_000_000)
    overhead = cluster.membership_overhead()
    messages = overhead["gossip_tx"] + overhead["pings_tx"] + overhead["acks_tx"]
    assert messages == sum(
        sub.membership_overhead()[key]
        for sub in cluster.segments
        for key in ("gossip_tx", "pings_tx", "acks_tx")
    )
    assert overhead["per_node_msgs"] == messages / len(cluster.live_nodes())


def test_unroutable_destination_is_counted_not_crashed():
    cluster = build(n_segments=2)
    router = cluster.routers[0]
    cluster.nodes[(0, 0)].messenger.send((9, 1), b"to nowhere", CH)
    settle(cluster)
    # The sole copy parks first (a route may still be converging) ...
    assert router.counters["unroutable_parked"] == 1
    assert router.counters["unroutable_drop"] == 0
    # ... and only its shadow-TTL expiry is the real, counted drop.
    ttl = router.config.shadow_ttl_periods * router.advertise_period_ns
    cluster.run(until=cluster.sim.now + ttl + 2 * router.advertise_period_ns)
    assert router.counters["unroutable_drop"] == 1
    assert cluster.router_drop_count() == 1


def test_egress_backpressure_grows_pacing_gap():
    """A burst of crossings beyond the egress window must queue, feed
    the insertion controller's backoff, and still fully deliver."""
    cluster = build(
        routers=[RouterConfig(segments=(0, 1), egress_window=1,
                              egress_capacity=16)]
    )
    got = []
    cluster.nodes[(1, 2)].messenger.on_message(
        CH, lambda src, data, ch: got.append(data)
    )
    port = cluster.routers[0].ports[1]
    peak = 0
    orig_enqueue = port.enqueue

    def spy(crossing):
        nonlocal peak
        ok = orig_enqueue(crossing)
        peak = max(peak, port.backlog)
        return ok

    port.enqueue = spy
    sender = cluster.nodes[(0, 1)].messenger
    for i in range(12):
        sender.send((1, 2), bytes([i]) * 8, CH)
    settle(cluster, tours=2000)
    assert len(got) == 12
    assert peak >= 2                        # the queue really backed up
    assert port.controller.backoffs > 0     # and flow control noticed
    assert cluster.routers[0].counters["egress_overflow_drop"] == 0


def test_egress_overflow_drops_and_counts():
    cluster = build(
        routers=[RouterConfig(segments=(0, 1), egress_window=1,
                              egress_capacity=2)]
    )
    sender = cluster.nodes[(0, 1)].messenger
    for i in range(10):
        sender.send((1, 2), bytes([i]) * 8, CH)
    settle(cluster, tours=600)
    router = cluster.routers[0]
    assert router.counters["egress_overflow_drop"] > 0
    assert cluster.router_drop_count() == router.counters["egress_overflow_drop"]


def test_partitioned_destination_parks_until_heal():
    """Crossing traffic for a split-away destination must wait in the
    router, not be confirmed-and-lost on a ring that lacks the node."""
    cluster = build(n_segments=2, n_nodes=6, membership=True)
    got = []
    cluster.nodes[(1, 1)].messenger.on_message(
        CH, lambda src, data, ch: got.append(data)
    )
    side_a, switches_a = (0, 1, 2), (0,)
    seg1 = cluster.segment(1)
    seg1.partition(side_a, switches_a)
    seg1.run_until_reroster()
    # Destination (1,1) is now on side A; the gateway (id 6) is on side B.
    cluster.nodes[(0, 0)].messenger.send((1, 1), b"wait for me", CH)
    settle(cluster, tours=400)
    assert got == []
    assert cluster.routers[0].ports[1].backlog == 1
    assert cluster.routers[0].counters["egress_parked"] > 0
    seg1.heal_partition(side_a, switches_a)
    settle(cluster, tours=1200)
    assert got == [b"wait for me"]
    assert cluster.routers[0].counters["egress_overflow_drop"] == 0


def test_routed_broadcast_reaches_every_member_of_target_segment():
    cluster = build()
    got = []
    for nid in range(4):
        cluster.nodes[(1, nid)].messenger.on_message(
            CH, lambda src, data, ch, n=nid: got.append((n, data))
        )
    cluster.nodes[(0, 3)].messenger.send((1, BROADCAST), b"hear ye", CH)
    settle(cluster, tours=400)
    assert sorted(got) == [(n, b"hear ye") for n in range(4)]


def test_routed_cluster_replays_bit_identically():
    def run_once():
        cluster = build(seed=11)
        got = []
        cluster.nodes[(1, 3)].messenger.on_message(
            CH, lambda src, data, ch: got.append(data)
        )
        cluster.nodes[(0, 2)].messenger.send((1, 3), b"deterministic", CH)
        settle(cluster, tours=300)
        assert got == [b"deterministic"]
        from repro.scenarios.runner import trace_digest
        return trace_digest(cluster.tracer)

    assert run_once() == run_once()


# --------------------------------------------------------- redundancy
def test_redundant_pair_elects_one_forwarding_path():
    """A cyclic graph (two routers, same segment pair) builds, and the
    spanning tree blocks exactly the surplus port."""
    cluster = build_redundant()
    settle_election(cluster)
    r0, r1 = cluster.routers
    # R0 (priority 10) is root and designated on both segments.
    assert r0.root == r0.bid == (10, 0)
    assert all(p.role is PortRole.FORWARDING for p in r0.ports.values())
    # R1 keeps its root port listening-and-forwarding, blocks the other.
    assert r1.root == (10, 0)
    assert sorted(p.role.value for p in r1.ports.values()) == [
        "blocked", "forwarding"
    ]
    assert cluster.designated_router(0) == 0
    assert cluster.designated_router(1) == 0


def test_redundant_pair_delivers_exactly_once():
    """Both routers capture every crossing; only the designated one
    forwards, and the origin-keyed dedup suppresses any transient
    duplicate — the handler fires exactly once per message."""
    cluster = build_redundant()
    settle_election(cluster)
    got = []
    cluster.nodes[(1, 2)].messenger.on_message(
        CH, lambda src, data, ch: got.append(data)
    )
    for i in range(6):
        cluster.nodes[(0, 1)].messenger.send((1, 2), bytes([i]) * 8, CH)
    settle(cluster, tours=600)
    assert sorted(got) == [bytes([i]) * 8 for i in range(6)]
    r0, r1 = cluster.routers
    assert r0.counters["egress_tx"] == 6
    # The backup held its copies instead of forwarding or dropping them.
    assert r1.counters["egress_tx"] == 0
    assert r1.counters["shadow_parked"] >= 6
    assert cluster.router_drop_count() == 0


def test_designated_router_death_fails_over():
    """Kill the designated router mid-stream: the backup's missed-ad
    deadline re-converges the tree, shadow-parked crossings are
    promoted, and every message arrives exactly once — none are
    confirmed-and-lost."""
    cluster = build_redundant()
    settle_election(cluster)
    r0, r1 = cluster.routers
    got = []
    cluster.nodes[(1, 2)].messenger.on_message(
        CH, lambda src, data, ch: got.append(data)
    )
    cluster.nodes[(0, 1)].messenger.send((1, 2), b"before", CH)
    settle(cluster, tours=200)
    assert got == [b"before"]

    t_crash = cluster.sim.now
    cluster.crash_router(0)
    # Sent into the detection window: only the (still blocked) backup
    # captures it.
    settle(cluster, tours=30)
    cluster.nodes[(0, 1)].messenger.send((1, 2), b"during", CH)
    horizon = t_crash + 8 * r1.advertise_period_ns
    while not cluster.spanning_tree_converged() and cluster.sim.now < horizon:
        settle(cluster, tours=5)
    assert cluster.spanning_tree_converged()
    # Detection is advertisement-driven: the deadline plus one period.
    assert cluster.sim.now - t_crash <= 5 * r1.advertise_period_ns
    assert cluster.designated_router(0) == 1
    assert cluster.designated_router(1) == 1
    assert all(p.role is PortRole.FORWARDING for p in r1.ports.values())

    settle(cluster, tours=800)
    cluster.nodes[(0, 1)].messenger.send((1, 2), b"after", CH)
    settle(cluster, tours=400)
    # Exactly once each: the backup's replay of "before" was suppressed
    # by the destination's origin-keyed dedup.
    assert sorted(got) == [b"after", b"before", b"during"]
    assert r1.counters["shadow_promoted"] >= 2
    assert cluster.router_drop_count() == 0


def test_disconnected_router_islands_each_converge():
    """A legal forest — two router islands with no shared segment —
    converges per component: each island settles on its own root
    instead of waiting forever for a global minimum it cannot see."""
    cluster = build(
        n_segments=4, n_nodes=3,
        routers=[RouterConfig(segments=(0, 1)),
                 RouterConfig(segments=(2, 3))],
    )
    settle_election(cluster)  # asserts spanning_tree_converged()
    r0, r1 = cluster.routers
    assert r0.root == r0.bid
    assert r1.root == r1.bid  # its own island's root, not r0
    assert cluster.designated_router(0) == 0
    assert cluster.designated_router(2) == 1


def test_mismatched_advertise_periods_do_not_flap():
    """A redundant pair whose advertise cadences differ widely (e.g.
    one also bridges a much larger ring): the fast router must judge
    the slow one by the slow cadence, not its own — no false peer
    expiry, no role flapping, no phantom failovers."""
    cluster = build(
        n_segments=2, n_nodes=4,
        # ~4 ms against ~250 us on these six-member rings: 16x apart
        routers=[RouterConfig(segments=(0, 1), priority=10,
                              advertise_period_tours=600),
                 RouterConfig(segments=(0, 1), priority=200,
                              advertise_period_tours=37.5)],
    )
    r0, r1 = cluster.routers
    # Let the slow router advertise a few times while the fast one
    # ticks dozens of its own periods.
    cluster.run(until=cluster.sim.now + 3 * r0.advertise_period_ns)
    assert cluster.spanning_tree_converged()
    assert cluster.designated_router(0) == 0
    assert r1.counters["peers_expired"] == 0
    # Role changes settle once (initial election), then stay put.
    settled = r1.counters["role_changes"]
    cluster.run(until=cluster.sim.now + 3 * r0.advertise_period_ns)
    assert r1.counters["peers_expired"] == 0
    assert r1.counters["role_changes"] == settled
    assert cluster.designated_router(0) == 0


def test_dead_root_among_three_routers_ages_out():
    """Ghost-root regression: with THREE routers on one segment pair,
    the two survivors of the root's death keep relaying its claim to
    each other.  The Max-Age bound must kill the ghost so the election
    falls back to the live bridges and traffic fails over."""
    cluster = build(
        n_segments=2, n_nodes=4,
        routers=[RouterConfig(segments=(0, 1), priority=10),
                 RouterConfig(segments=(0, 1), priority=100),
                 RouterConfig(segments=(0, 1), priority=200)],
    )
    settle_election(cluster)
    assert cluster.designated_router(0) == 0
    r1 = cluster.routers[1]
    period = r1.advertise_period_ns
    max_age = MAX_ROOT_AGE_PERIODS

    t_crash = cluster.sim.now
    cluster.crash_router(0)
    horizon = t_crash + 4 * max_age * period
    while not cluster.spanning_tree_converged() and cluster.sim.now < horizon:
        settle(cluster, tours=20)
    assert cluster.spanning_tree_converged(), "ghost root never aged out"
    # The survivors agree on the best live bridge.
    assert r1.root == r1.bid == (100, 1)
    assert cluster.routers[2].root == (100, 1)
    assert cluster.designated_router(0) == 1
    assert cluster.designated_router(1) == 1

    got = []
    cluster.nodes[(1, 2)].messenger.on_message(
        CH, lambda src, data, ch: got.append(data)
    )
    cluster.nodes[(0, 1)].messenger.send((1, 2), b"via the new tree", CH)
    settle(cluster, tours=400)
    assert got == [b"via the new tree"]
    assert cluster.router_drop_count() == 0


def test_recovered_router_rejoins_the_election():
    cluster = build_redundant()
    settle_election(cluster)
    cluster.crash_router(0)
    r1 = cluster.routers[1]
    settle(cluster, tours=int(5 * r1.advertise_period_ns
                              / cluster.tour_estimate_ns))
    assert cluster.designated_router(0) == 1
    cluster.recover_router(0)
    cluster.run_until_ring_up()
    settle_election(cluster)
    # The better bridge id takes the tree back.
    assert cluster.designated_router(0) == 0
    assert cluster.designated_router(1) == 0


def test_stale_routes_are_withdrawn_when_the_next_hop_dies():
    """A chain 0-R0-1-R1-2: R0 reaches segment 2 only through R1's
    advertisements.  When R1 dies, the learned route must age out
    instead of blackholing crossings forever."""
    cluster = build(
        n_segments=3,
        routers=[RouterConfig(segments=(0, 1)), RouterConfig(segments=(1, 2))],
    )
    r0, r1 = cluster.routers
    cluster.run(until=cluster.sim.now + 3 * r0.advertise_period_ns)
    assert 2 in r0.table.routes
    cluster.crash_router(1)
    cluster.run(until=cluster.sim.now + 5 * r0.advertise_period_ns)
    assert 2 not in r0.table.routes
    assert r0.counters["routes_expired"] + r0.counters["routes_withdrawn"] >= 1
    # Crossings for the vanished segment shadow-park (visible, and
    # recoverable if the route returns) rather than silently queueing
    # behind a dead route; only shadow-TTL expiry counts them dropped.
    cluster.nodes[(0, 1)].messenger.send((2, 1), b"nowhere now", CH)
    settle(cluster, tours=200)
    assert r0.counters["unroutable_parked"] == 1
    ttl = r0.config.shadow_ttl_periods * r0.advertise_period_ns
    cluster.run(until=cluster.sim.now + ttl + 2 * r0.advertise_period_ns)
    assert r0.counters["unroutable_drop"] == 1


def test_parked_crossing_does_not_stall_live_destinations():
    """Head-of-line regression: one partitioned and one live destination
    share an egress port — traffic to the live one keeps flowing while
    the other's crossings wait in the side list."""
    cluster = build(n_segments=2, n_nodes=6, membership=True)
    got_live, got_parked = [], []
    cluster.nodes[(1, 1)].messenger.on_message(
        CH, lambda src, data, ch: got_parked.append(data)
    )
    cluster.nodes[(1, 4)].messenger.on_message(
        CH, lambda src, data, ch: got_live.append(data)
    )
    side_a, switches_a = (0, 1, 2), (0,)
    seg1 = cluster.segment(1)
    seg1.partition(side_a, switches_a)
    seg1.run_until_reroster()
    # Destination (1,1) is on split-away side A; (1,4) stayed with the
    # gateway (id 6) on side B.
    port = cluster.routers[0].ports[1]
    cluster.nodes[(0, 0)].messenger.send((1, 1), b"wait", CH)
    settle(cluster, tours=300)
    assert port.parked_count == 1
    for i in range(4):
        cluster.nodes[(0, 2)].messenger.send((1, 4), bytes([i]) * 4, CH)
    settle(cluster, tours=600)
    # The live destination's traffic drained past the parked crossing.
    assert sorted(got_live) == [bytes([i]) * 4 for i in range(4)]
    assert got_parked == []
    assert port.parked_count == 1
    seg1.heal_partition(side_a, switches_a)
    settle(cluster, tours=1200)
    assert got_parked == [b"wait"]
    assert cluster.routers[0].counters["egress_overflow_drop"] == 0


def test_pump_wake_is_not_throttled_by_parked_traffic():
    """White-box timer check: with a pacing gap pending AND a parked
    crossing, pump must arm the (short) pacing wake, not the ~10-tour
    parked retry — one dead destination must not throttle live ones."""
    from repro.routing.port import Crossing

    cluster = build(n_segments=2, n_nodes=4)
    port = cluster.routers[0].ports[1]
    now = cluster.sim.now
    # One crossing parks (node 99 is not rostered on segment 1); the
    # retry poll timer (long) is now armed.
    port.queue.append(Crossing((0, 1), (1, 99), b"dead", CH, 1))
    port.pump()
    assert port.parked_count == 1
    assert port._pump_timer_due - now == port.retry_ns
    # A live crossing arrives behind a 5 us pacing gap WHILE the long
    # timer is armed: pump must re-arm the earlier pacing wake.
    port.controller.gap_ns = 5_000
    port.controller.next_insert_at = now + 5_000
    port.queue.append(Crossing((0, 1), (1, 2), b"live", CH, 2))
    port.pump()
    assert len(port.queue) == 1
    assert port._pump_timer_due - now <= 5_000 < port.retry_ns


def test_four_ring_512_spans_512_addressable_nodes():
    """The acceptance capstone: the four_ring_512 scenario addresses
    >= 512 user nodes across router-joined segments."""
    spec = get_scenario("four_ring_512")
    user_nodes = sum(seg.n_nodes for seg in spec.topology.segments)
    assert user_nodes >= 512
    cluster = spec.build_cluster()
    # Every user node is addressable: present in the global node map.
    assert sum(
        1
        for (si, nid) in cluster.nodes
        if nid < spec.topology.segments[si].n_nodes
    ) == user_nodes == 512
