"""Unit-level checks of the routing layer.

Config and topology validation; the pure parts — spanning-tree
election and forwarding table — driven through their own modules with
no router, cluster or simulator; and the stateful shell on a wired but
never started router: what it puts in an advertisement, how it reacts
to one, egress park accounting and the shadow ledger.  (``test_ads``
and ``test_table`` go deeper on the codec and the table; live
multi-segment behaviour is in ``tests/integration/test_routing.py``.)
"""

import pytest

from repro.resilience import ResilienceConfig
from repro.routing import (
    PortRole,
    RoutedCluster,
    RouterConfig,
    SegmentRouter,
    SegmentSpec,
    TopologySpec,
)
from repro.routing.ads import AGE_UNIT_NS, decode, encode
from repro.routing.election import (
    MAX_ROOT_AGE_PERIODS,
    Election,
    PeerClaim,
    elect,
    silent_peers,
)
from repro.routing.port import Crossing
from repro.routing.router import _Shadow
from repro.routing.table import NOT_OURS, Route, RouteTable


# ----------------------------------------------------------- RouterConfig
def test_router_needs_two_distinct_segments():
    with pytest.raises(ValueError, match="at least two"):
        RouterConfig(segments=(0,))
    with pytest.raises(ValueError, match="twice"):
        RouterConfig(segments=(0, 0))


def test_egress_knobs_validated():
    with pytest.raises(ValueError, match="egress capacity"):
        RouterConfig(segments=(0, 1), egress_capacity=0)
    with pytest.raises(ValueError, match="egress window"):
        RouterConfig(segments=(0, 1), egress_window=0)


def test_redundancy_knobs_validated():
    with pytest.raises(ValueError, match="priority"):
        RouterConfig(segments=(0, 1), priority=300)
    with pytest.raises(ValueError, match="miss deadline"):
        RouterConfig(segments=(0, 1), miss_deadline_periods=0)
    with pytest.raises(ValueError, match="shadow TTL"):
        RouterConfig(segments=(0, 1), miss_deadline_periods=4,
                     shadow_ttl_periods=2)
    with pytest.raises(ValueError, match="shadow capacity"):
        RouterConfig(segments=(0, 1), shadow_capacity=0)


# ---------------------------------------------------- TopologySpec shape
def _segs(n):
    return [SegmentSpec(n_nodes=3)] * n


def test_cyclic_router_graphs_are_allowed():
    """Redundant routers form cycles by design; the spanning tree (not
    the validator) is what keeps forwarding loop-free."""
    # Two routers between the same pair of segments.
    TopologySpec(
        segments=_segs(2),
        routers=[RouterConfig(segments=(0, 1)),
                 RouterConfig(segments=(0, 1))],
    )
    # A triangle of segments.
    TopologySpec(
        segments=_segs(3),
        routers=[RouterConfig(segments=(0, 1)),
                 RouterConfig(segments=(1, 2)),
                 RouterConfig(segments=(2, 0))],
    )
    # Trees still build, obviously.
    TopologySpec(
        segments=_segs(4), routers=[RouterConfig(segments=(0, 1, 2, 3))]
    )


def test_unknown_segment_reference_rejected():
    with pytest.raises(ValueError, match="references segment"):
        TopologySpec(
            segments=_segs(2), routers=[RouterConfig(segments=(0, 5))]
        )


def test_segment_member_ceiling_enforced():
    with pytest.raises(ValueError, match="255-member"):
        TopologySpec(
            segments=[SegmentSpec(n_nodes=255), SegmentSpec(n_nodes=4)],
            routers=[RouterConfig(segments=(0, 1))],
        )


def test_one_convergence_tracker_per_timeline():
    """Segments share the cluster's tracer, so they take its tracker
    too: sixteen listeners indexing the same records on ``mesh_1k`` was
    fifteen too many."""
    cluster = RoutedCluster(TopologySpec(
        segments=_segs(3), routers=[RouterConfig(segments=(0, 1, 2))]))
    assert len(cluster.tracer._listeners) == 1
    assert all(s.convergence is cluster.convergence for s in cluster.segments)


def test_gateway_ids_follow_user_nodes():
    first, second = RoutedCluster(TopologySpec(
        segments=_segs(3),
        routers=[RouterConfig(segments=(0, 1)), RouterConfig(segments=(1, 2))],
    )).routers

    def gateways(router):
        return {seg: port.gateway.node_id for seg, port in router.ports.items()}

    # Segment 1 hosts both routers: gateway ids 3 and 4.
    assert gateways(first) == {0: 3, 1: 3}
    assert gateways(second) == {1: 4, 2: 3}


# ------------------------------------------------- role election (pure)
PERIOD = 200_000
MAX_AGE = MAX_ROOT_AGE_PERIODS
MISS = 3      # RouterConfig.miss_deadline_periods default


def claim(priority, root, cost=0, period_ns=PERIOD, root_age_ns=0,
          last_heard=0):
    return PeerClaim(priority, root, cost, period_ns, root_age_ns, last_heard)


def run_election(bid, peers, now=0):
    return elect(bid, peers, now, PERIOD)


def test_single_router_is_root_and_forwards_everywhere():
    result = run_election((128, 0), {0: {}, 1: {}})
    assert result == Election.self_rooted((128, 0), (0, 1))
    assert result.root == (128, 0) and result.root_cost == 0
    assert result.root_port is None
    assert all(result.role(seg) is PortRole.FORWARDING for seg in (0, 1))
    assert all(result.designated.values())
    assert result.advertised_root_age_ns(now=10**9) == 0


def test_parallel_routers_block_the_worse_one():
    """Two routers on the same segment pair: the better bridge id wins
    designated-ness on both segments; the loser keeps its root port
    forwarding (lowest segment id) and blocks the other."""
    primary = claim(10, root=(10, 0))
    result = run_election((200, 1), {0: {0: primary}, 1: {0: primary}})
    assert result.root == (10, 0)
    assert (result.root_cost, result.root_port) == (1, 0)
    assert result.role(0) is PortRole.FORWARDING
    assert not result.designated[0]
    assert result.role(1) is PortRole.BLOCKED


def test_designated_tie_breaks_on_router_id():
    """Equal priorities: the lower router id is the better bridge."""
    result = run_election(
        (128, 2), {0: {1: claim(128, root=(128, 1))}, 1: {}}
    )
    assert result.root == (128, 1)
    assert not result.designated[0]
    # Port 1 hears no competition, so this router stays designated there.
    assert result.designated[1] and result.role(1) is PortRole.FORWARDING


def test_equal_cost_offers_tie_break_on_the_peer_bridge_id():
    """Two peers one hop from the same root: the root port follows the
    better *peer* bridge, whichever segment it sits on."""
    peers = {
        0: {5: claim(50, root=(1, 9), cost=1)},
        1: {4: claim(40, root=(1, 9), cost=1)},
    }
    result = run_election((128, 7), peers)
    assert (result.root_cost, result.root_port) == (2, 1)
    # cost 2 loses to each peer's cost 1, so neither port is designated
    assert result.role(0) is PortRole.BLOCKED


def test_ghost_root_claim_ages_out():
    """Max-Age discipline: a relayed root claim that only other
    survivors keep echoing — never refreshed by the root itself — must
    be discarded, so the election falls back to the live bridges
    instead of counting to infinity on a dead root."""
    bound = MAX_AGE * PERIOD
    ghost = claim(200, root=(10, 0), cost=2, root_age_ns=bound + 1)
    assert run_election((100, 1), {0: {2: ghost}, 1: {}}).root == (100, 1)
    # An ignored claim does not contest designation either.
    assert run_election((100, 1), {0: {2: ghost}, 1: {}}).designated[0]
    # The same claim at exactly the bound is still adopted ...
    at_bound = {0: {2: claim(200, (10, 0), cost=2, root_age_ns=bound)}, 1: {}}
    assert run_election((100, 1), at_bound).root == (10, 0)
    # ... until one more nanosecond passes here un-refreshed.
    assert run_election((100, 1), at_bound, now=1).root == (100, 1)


def test_relayed_root_age_grows_with_real_time():
    relay = claim(200, root=(10, 0), root_age_ns=30_000, last_heard=0)
    result = run_election((100, 1), {0: {2: relay}, 1: {}})
    assert result.root == (10, 0)
    # Advertised onward: claimed age + elapsed + one hop unit.
    assert result.advertised_root_age_ns(0) == 30_000 + AGE_UNIT_NS
    assert result.advertised_root_age_ns(100_000) == 130_000 + AGE_UNIT_NS


def test_slow_advertisers_are_judged_by_their_own_cadence():
    """A peer advertising at a much longer period (it bridges a big
    ring) must not be expired — or ghost-bounded — by a fast-ticking
    neighbour's local deadline, and vice versa."""
    slow = 40 * PERIOD
    peers = {0: {2: claim(10, root=(10, 2), period_ns=slow)}, 1: {}}
    # Far beyond the local deadlines, well within the slow peer's.
    now = 2 * MAX_AGE * PERIOD
    assert silent_peers(peers, now, PERIOD, MISS) == []
    assert run_election((100, 1), peers, now=now).root == (10, 2)
    # A slow *listener* grants a fast peer its own (longer) deadline.
    fast = {0: {2: claim(10, root=(10, 2), period_ns=PERIOD // 10)}, 1: {}}
    assert silent_peers(fast, MISS * PERIOD, PERIOD, MISS) == []
    # Past the slower deadline each does go.
    assert silent_peers(peers, MISS * slow + 1, PERIOD, MISS) == [(0, 2)]
    assert silent_peers(fast, MISS * PERIOD + 1, PERIOD, MISS) == [(0, 2)]
    assert run_election((100, 1), peers, now=MAX_AGE * slow + 1).root == (100, 1)


def test_silent_peers_lists_every_port_the_dead_router_was_heard_on():
    primary = claim(10, root=(10, 0))
    late = claim(9, root=(9, 3), last_heard=PERIOD)
    peers = {0: {0: primary}, 1: {0: primary, 3: late}}
    assert silent_peers(peers, MISS * PERIOD + 1, PERIOD, MISS) == [
        (0, 0), (1, 0),
    ]


# ---------------------------------------------- forwarding table (pure)
def test_egress_resolution_and_split_horizon():
    table = RouteTable(attached=(0, 1))
    table.routes[2] = Route(via=1, metric=1, router=7)
    # Directly attached wins; never back out the ingress port (that is
    # a decline — another router serves it — not a routing failure).
    assert table.egress_for(0, 1) == 1
    assert table.egress_for(1, 1) == NOT_OURS
    # Learned route, unless it points back where the frame came from.
    assert table.egress_for(0, 2) == 1
    assert table.egress_for(1, 2) == NOT_OURS
    # Unknown destination segment: genuinely unroutable.
    assert table.egress_for(0, 9) is None


def test_route_refresh_updates_last_heard():
    table = RouteTable(attached=(0, 1))
    ad = decode(AD_FROM_7)
    table.learn(ad, ingress=1, now=0)
    assert table.learn(ad, ingress=1, now=500) == []  # a refresh, not news
    assert table.routes[3].last_heard == 500


def test_stale_route_withdrawn_after_miss_deadline():
    table = RouteTable(attached=(0, 1))
    table.learn(decode(AD_FROM_7), ingress=1, now=0)
    deadline = MISS * PERIOD  # the ad's own period (20 units) = PERIOD
    assert table.expire(deadline, PERIOD, MISS) == []
    assert table.expire(deadline + 1, PERIOD, MISS) == [
        ("route", "expired", dict(segment=3, via=1)),
    ]
    assert table.routes == {}


def test_live_set_rides_reachability_entries():
    table = RouteTable(attached=(0, 1))
    table.routes[7] = Route(via=1, metric=1, router=5,
                            live=frozenset({1, 2, 9}))
    rows, _ = table.advertised(0, forwarding=(0, 1), period_ns=PERIOD,
                               summarize=False)
    assert rows == [(7, 1, {1, 2, 9})]


def test_learned_routes_via_blocked_ports_are_not_advertised():
    table = RouteTable(attached=(0, 1))
    table.routes[7] = Route(via=1, metric=1, router=5)
    rows, _ = table.advertised(0, forwarding=(0,), period_ns=PERIOD,
                               summarize=False)
    assert rows == []


# ------------------------------------------------ the router shell
def idle_router(router_id=0, **router_kw):
    """Router ``router_id`` of a real two-segment cluster that is never
    started: sim, tracer, ports and gateways are wired, but no ring is
    up and no advertisement flows."""
    routers = [RouterConfig(segments=(0, 1)) for _ in range(router_id)]
    routers.append(RouterConfig(segments=(0, 1), **router_kw))
    cluster = RoutedCluster(TopologySpec(segments=_segs(2), routers=routers))
    return cluster.routers[router_id]


def blocked_on(router, segment):
    """Force the election verdict: ``segment`` blocked, the other port
    the root port towards a better bridge."""
    other = 1 - segment
    router.election = Election(
        root=(1, 99), root_cost=1, root_port=other, offer_age_ns=0,
        offer_heard_at=0, designated={segment: False, other: False},
    )
    assert router.ports[segment].role is PortRole.BLOCKED


#: router 7 (priority 50) claims root (50, 7): segment 3 at metric 0
AD_FROM_7 = bytes([7, 50, 7, 50, 0, 20, 0, 0, 0, 1, 3, 0, 2, 4, 5])


# ------------------------------------------------------- advertisements
def test_advertisement_roundtrip():
    router = idle_router(router_id=3, priority=9)
    ad = router._build_ad(router.ports[0])
    assert (ad.router_id, ad.priority) == (3, 9)
    assert (ad.root, ad.root_cost) == ((9, 3), 0)
    assert ad.period_ns == router.advertise_period_ns
    assert ad.root_age_ns == 0  # the root itself always claims a fresh root
    # Attached segment 1 is advertised into segment 0 (split horizon
    # suppresses segment 0 itself); no ring is up, so nobody is live.
    assert ad.entries == ((1, 0, frozenset()),)
    # Single-area mode: the flat v2 format, no summaries on the wire.
    assert (ad.version, ad.area, ad.summaries) == (2, 0, ())
    assert decode(encode(ad)).entries == ad.entries


def test_blocked_port_sends_presence_only():
    """A blocked port still advertises its bridge id (that is how its
    death would be noticed) but offers no reachability."""
    router = idle_router()
    router.table.routes[7] = Route(via=1, metric=1, router=5)
    blocked_on(router, 0)
    ad = router._build_ad(router.ports[0])
    assert ad.router_id == 0 and ad.root == (1, 99)
    assert ad.entries == ()
    # The forwarding port offers nothing learned via the blocked one,
    # nor the blocked port's own segment.
    assert router._build_ad(router.ports[1]).entries == ()


def test_advertisement_updates_table_with_distance_vector():
    router = idle_router()
    port = router.ports[1]
    router._on_advertisement(port, AD_FROM_7)
    assert router.table.routes[3].via == 1
    assert router.table.routes[3].live == frozenset({4, 5})
    assert router.live_in_segment(3) == {4, 5}
    assert router.counters["routes_learned"] == 1
    assert port.peers[7].root == (50, 7)
    assert router.root == (50, 7)  # the better bridge was elected
    # Our own advertisement touring back must not create routes.
    router._on_advertisement(
        port, bytes([0, 128, 0, 128, 0, 20, 0, 0, 0, 1, 9, 0, 0])
    )
    assert 9 not in router.table.routes and 0 not in port.peers


def test_malformed_advertisement_is_counted_and_dropped():
    router = idle_router()
    port = router.ports[1]
    for bad in (b"", AD_FROM_7[:-1], AD_FROM_7 + b"\x00"):
        router._on_advertisement(port, bad)
    assert router.counters["ads_malformed"] == 3
    assert router.counters["ads_rx"] == 0
    assert not port.peers and not router.table.routes


def test_blocked_port_does_not_learn_routes():
    """Reachability heard on a blocked port is data-plane information
    the port cannot carry; learning it would undo the role-transition
    withdrawal every advertise period."""
    router = idle_router()
    blocked_on(router, 1)
    router._on_advertisement(router.ports[1], AD_FROM_7)
    assert 3 not in router.table.routes
    # The STP half of the same ad WAS processed (peer recorded).
    assert 7 in router.ports[1].peers


def test_peer_expiry_fails_over_to_the_backup():
    backup = idle_router(router_id=1, priority=200)
    primary = bytes([0, 10, 0, 10, 0, 20, 0, 0, 0, 0])
    for port in backup.ports.values():
        backup._on_advertisement(port, primary)
    assert {seg: p.role.value for seg, p in backup.ports.items()} == {
        0: "forwarding", 1: "blocked"
    }
    backup._started = backup._ticking = True
    backup.sim.run(until=MISS * backup.advertise_period_ns + 1)
    backup._advertise_tick()
    assert backup.root == backup.bid
    assert all(p.role is PortRole.FORWARDING and p.designated
               for p in backup.ports.values())
    assert backup.counters["peers_expired"] == 2


# ------------------------------------------------------- shadow holding
def _shadow_entry(ingress, dst):
    return _Shadow(Crossing((0, 1), dst, b"x", 13, 5, ingress=ingress), 0)


def test_drain_shadow_holds_unroutable_crossings():
    """A withdrawn route must not turn a shadow-parked crossing into an
    unroutable drop mid-drain — the route may return next advertise
    cycle, and until the TTL expires the entry is the failover net."""
    router = idle_router()
    router.shadow.append(_shadow_entry(0, (9, 2)))  # no route to seg 9
    router._drain_shadow()
    assert len(router.shadow) == 1
    assert router.counters["unroutable_drop"] == 0
    assert router.counters["shadow_held"] == 1


def test_drain_shadow_holds_split_horizon_crossings():
    router = idle_router()
    router.table.routes[9] = Route(via=0, metric=1, router=7)
    router.shadow.append(_shadow_entry(0, (9, 2)))  # route points back out
    router._drain_shadow()
    assert len(router.shadow) == 1
    assert router.counters["split_horizon_declines"] == 0
    assert router.counters["shadow_held"] == 1


# --------------------------------------------------- resilience config
def test_resilience_mapping_coerced_to_config():
    cfg = RouterConfig(segments=(0, 1),
                       resilience={"circuit_breaker": True,
                                   "breaker_threshold": 5})
    assert isinstance(cfg.resilience, ResilienceConfig)
    assert cfg.resilience.circuit_breaker
    assert cfg.resilience.breaker_threshold == 5
    # Omitted: the router's policy defaults to everything off.
    router = SegmentRouter(0, RouterConfig(segments=(0, 1)))
    assert not router.res.any_enabled


# ---------------------------------------------- park/re-park accounting
def _parked_port():
    """A port of an idle router: its gateway has no roster yet, so every
    local destination is undeliverable and crossings park."""
    router = idle_router()
    return router, router.ports[0], Crossing((1, 1), (0, 2), b"x", 13, 5)


def test_first_park_counts_once():
    """Regression: ``egress_parked`` counts *crossings*, not retry
    cycles.  Re-offering a parked crossing to a still-dead destination
    must tick ``egress_reparked`` instead of inflating the park count."""
    router, port, crossing = _parked_port()
    assert port.enqueue(crossing)
    assert router.counters["egress_parked"] == 1
    assert router.counters["egress_reparked"] == 0
    assert port.parked_count == 1
    # Two retry polls against the same dead destination.
    for repark in (1, 2):
        port.requeue_parked()
        port.pump()
        assert router.counters["egress_parked"] == 1
        assert router.counters["egress_reparked"] == repark
        assert port.parked_count == 1


def test_parked_crossings_still_count_against_capacity():
    router, port, _ = _parked_port()
    cap = router.config.egress_capacity
    for i in range(cap):
        assert port.enqueue(Crossing((1, 1), (0, 2), b"x", 13, i))
    assert not port.enqueue(Crossing((1, 1), (0, 2), b"x", 13, cap))
    assert router.counters["egress_parked"] == cap


def test_crossing_addressed_to_the_egress_gateway_is_a_counted_drop():
    """The gateway is a router port, not a host: re-originating a
    crossing to the port's own ``(segment, gateway)`` put a frame on the
    ring that its own MAC source-stripped — counted ``egress_tx``, never
    delivered (PR 12's finding (ii))."""
    cluster = RoutedCluster(TopologySpec(
        segments=_segs(2), routers=[RouterConfig(segments=(0, 1))]))
    router = cluster.routers[0]
    port = router.ports[0]
    gateway = (0, port.gateway.node_id)
    assert port.enqueue(Crossing((1, 1), gateway, b"x", 13, 5, ingress=1))
    assert router.counters["gateway_addressed_drop"] == 1
    assert router.counters["egress_tx"] == 0
    assert port.backlog == 0  # neither queued nor parked
    assert cluster.router_drop_count() == 1
    (record,) = cluster.tracer.select(category="routing")
    assert record.data == dict(event="gateway_addressed", dst=gateway, ingress=1)


def test_port_holds_no_resilience_state_unless_a_pattern_is_on():
    port = idle_router().ports[0]
    assert port.resilience is None
    assert not any(
        hasattr(port, name)
        for name in ("breaker", "throttle", "_deferred", "_throttle_armed")
    )
    guarded = idle_router(resilience={"throttle": True}).ports[0]
    assert guarded.resilience.throttle is not None
    assert guarded.resilience.breaker is None


# ------------------------------------------- shadow-loss accountability
def _park(router, tid):
    router._shadow_park(Crossing((0, 1), (1, 2), b"x", 13, tid, ingress=0))


def test_shadow_eviction_is_counted_and_dead_lettered():
    """Regression: a capacity eviction used to vanish without a trace.
    Now it ticks ``shadow_evicted`` and (with the dead-letter channel
    on) lands as an accounting record."""
    router = idle_router(shadow_capacity=2, resilience={"dead_letter": True})
    for i in range(3):  # capacity 2: the third park evicts the oldest
        _park(router, i)
    assert router.counters["shadow_parked"] == 3
    assert router.counters["shadow_evicted"] == 1
    assert len(router.shadow) == 2
    assert router.counters["dead_letter_shadow_evicted"] == 1
    # Every parked shadow is accounted for: still resident or evicted.
    assert router.counters["shadow_parked"] == (
        len(router.shadow) + router.counters["shadow_evicted"]
    )


def test_shadow_expiry_is_counted_and_dead_lettered():
    router = idle_router(shadow_capacity=2, resilience={"dead_letter": True})
    _park(router, 0)
    ttl = router.config.shadow_ttl_periods * router.advertise_period_ns
    router._expire_shadow(ttl)  # within TTL: kept
    assert len(router.shadow) == 1
    router._expire_shadow(ttl + 1)
    assert len(router.shadow) == 0
    assert router.counters["shadow_expired"] == 1
    assert router.counters["dead_letter_shadow_expired"] == 1


def test_shadow_loss_counters_do_not_need_the_dead_letter_channel():
    """The loss *counters* are unconditional — only the dead-letter
    record is gated on the pattern toggle."""
    router = idle_router(shadow_capacity=2)  # every pattern off
    for i in range(3):
        _park(router, i)
    router._expire_shadow(10**12)
    assert router.counters["shadow_evicted"] == 1
    assert router.counters["shadow_expired"] == 2
    assert router.counters["dead_lettered"] == 0
    assert len(router.dead_letter) == 0
