"""Integration: the resilience-pattern suite over the routed cluster.

Each pattern is exercised end to end on a live multi-segment cluster —
breaker trip/probe/close across a partition, throttle deferral under a
capture clump, bulkhead isolation under a noisy neighbour — plus the
failure-path regressions this PR sweeps: the post-recovery pump stall
and chaos fault composition staying deterministic and exactly-once.
"""

import pytest

from repro.resilience import ResilienceConfig
from repro.routing import RoutedCluster, RouterConfig
from repro.scenarios import (
    FaultSpec,
    ScenarioSpec,
    SegmentSpec,
    TopologySpec,
    WorkloadSpec,
    run_scenario,
)
from repro.scenarios.runner import trace_digest

#: free messenger channel for test traffic (services claim the low ids)
CH = 13


def build(n_segments=2, n_nodes=6, membership=False, seed=7, **router_kw):
    topology = TopologySpec(
        segments=[SegmentSpec(n_nodes)] * n_segments,
        routers=[RouterConfig(segments=tuple(range(n_segments)), **router_kw)],
    )
    cluster = RoutedCluster(topology, seed=seed, membership=membership)
    cluster.start()
    cluster.run_until_ring_up()
    return cluster


def settle(cluster, tours=200):
    cluster.run(until=cluster.sim.now + tours * cluster.tour_estimate_ns)


# ------------------------------------------------------- circuit breaker
def test_breaker_trips_fails_fast_and_redrives_after_heal():
    """A partition strands the destination side: the per-destination
    breaker opens over the repeated parks, subsequent offers fail fast
    into the redrivable dead-letter channel, and the half-open probe
    after the heal closes the circuit and redrives everything."""
    cluster = build(
        membership=True,
        resilience=ResilienceConfig(circuit_breaker=True,
                                    breaker_threshold=2, dead_letter=True),
    )
    router = cluster.routers[0]
    got = []
    cluster.nodes[(1, 1)].messenger.on_message(
        CH, lambda src, data, ch: got.append(data)
    )
    side_a, switches_a = (0, 1, 2), (0,)
    seg1 = cluster.segment(1)
    seg1.partition(side_a, switches_a)
    seg1.run_until_reroster()
    # Destination (1,1) split away; the gateway (id 6) is on side B.
    for i in range(6):
        cluster.nodes[(0, 0)].messenger.send((1, 1), bytes([i]), CH)
    settle(cluster, tours=600)
    assert got == []
    assert router.counters["breaker_opened"] >= 1
    assert router.counters["dead_letter_circuit_open"] > 0
    # Fail-fast entries are redrivable, never silently lost.
    assert len(router.dead_letter) > 0
    seg1.heal_partition(side_a, switches_a)
    settle(cluster, tours=2000)
    assert sorted(got) == [bytes([i]) for i in range(6)]
    assert router.counters["breaker_closed"] >= 1
    assert router.counters["dead_letter_redriven"] > 0
    assert len(router.dead_letter) == 0  # nothing left behind
    assert router.counters["egress_overflow_drop"] == 0


# ------------------------------------------------------------- throttle
def test_throttle_defers_capture_clumps_without_loss():
    cluster = build(
        resilience=ResilienceConfig(throttle=True, throttle_token_ns=50_000,
                                    throttle_burst=1),
    )
    router = cluster.routers[0]
    got = []
    cluster.nodes[(1, 2)].messenger.on_message(
        CH, lambda src, data, ch: got.append(data)
    )
    # A clump of crossings arrives back to back — far faster than one
    # token per 50 us — so all but the first defer into the FIFO.
    for i in range(5):
        cluster.nodes[(0, i)].messenger.send((1, 2), bytes([i]), CH)
    settle(cluster, tours=800)
    assert router.counters["throttle_deferred"] > 0
    assert router.counters["throttle_shed"] == 0
    assert sorted(got) == [bytes([i]) for i in range(5)]


def test_throttle_sheds_beyond_backlog_bound_with_accounting():
    cluster = build(
        resilience=ResilienceConfig(throttle=True, throttle_token_ns=200_000,
                                    throttle_burst=1, throttle_backlog=2,
                                    dead_letter=True),
    )
    router = cluster.routers[0]
    for i in range(8):
        cluster.nodes[(0, i % 4)].messenger.send((1, 2), bytes([i]), CH)
    settle(cluster, tours=400)
    assert router.counters["throttle_shed"] > 0
    # Every shed fragment left an accounting record, not silence.
    assert (router.counters["dead_letter_throttle_shed"]
            == router.counters["throttle_shed"])


# ------------------------------------------------------------- bulkhead
def test_bulkhead_caps_one_ingress_share_of_the_egress_queue():
    cluster = build(
        n_segments=3, n_nodes=4,
        egress_capacity=8, egress_window=1,
        resilience=ResilienceConfig(bulkhead=True),
    )
    router = cluster.routers[0]
    # Segments 1 and 2 both target segment 0: each owns a 4-slot
    # compartment of the 8-slot egress queue.
    q = router.ports[0].queue
    assert q.compartment_cap == 4
    got = []
    cluster.nodes[(0, 1)].messenger.on_message(
        CH, lambda src, data, ch: got.append(data)
    )
    cluster.nodes[(1, 1)].messenger.send((0, 1), b"from-1", CH)
    cluster.nodes[(2, 1)].messenger.send((0, 1), b"from-2", CH)
    settle(cluster, tours=600)
    assert sorted(got) == [b"from-1", b"from-2"]
    assert router.counters["bulkhead_isolated_rejects"] == 0


# ----------------------------------------- satellite: post-recovery pump
def test_recovered_router_drains_fresh_backlog():
    """Regression: a router crashed while its egress window was full
    (in-flight sends' confirm callbacks died with the gateway) must not
    count those crashed-era sends as outstanding forever.  Recovery
    resets the port's insertion controller, so post-recovery traffic
    pumps instead of stalling."""
    cluster = build(n_nodes=4, egress_window=1, egress_capacity=8)
    router = cluster.routers[0]
    got = []
    cluster.nodes[(1, 2)].messenger.on_message(
        CH, lambda src, data, ch: got.append(data)
    )
    for i in range(4):
        cluster.nodes[(0, 1)].messenger.send((1, 2), bytes([i]), CH)
    # Run just long enough for captures to reach the egress queue and
    # the window-1 controller to have a send in flight.
    port = router.ports[1]
    deadline = cluster.sim.now + 2000 * cluster.tour_estimate_ns
    while cluster.sim.now < deadline and not (
        port.controller.outstanding > 0 and port.backlog > 0
    ):
        cluster.run(until=cluster.sim.now + cluster.tour_estimate_ns)
    assert port.controller.outstanding > 0 and port.backlog > 0
    cluster.crash_router(0)
    assert port.backlog == 0  # NIC memory died with the router
    settle(cluster, tours=100)
    cluster.recover_router(0)
    assert port.controller.outstanding == 0  # the stall regression
    cluster.run_until_ring_up()
    # Fresh traffic through the recovered router must flow.
    before = len(got)
    cluster.nodes[(0, 1)].messenger.send((1, 2), b"post-recovery", CH)
    settle(cluster, tours=2000)
    assert b"post-recovery" in got[before:]


# ------------------------------------------- satellite: chaos composition
def _chaos_composed_spec():
    """Overlapping fault trains: a partition inside segment 1 while the
    designated router of a redundant pair crashes and recovers — the
    failover convergence races the partition heal."""
    side_a = (0, 1, 2, 3)
    return ScenarioSpec(
        name="chaos_composed",
        description="partition, router crash and recovery overlapping",
        topology=TopologySpec(
            segments=(SegmentSpec(n_nodes=8), SegmentSpec(n_nodes=8)),
            routers=(
                RouterConfig(segments=(0, 1), priority=16,
                           resilience={"dead_letter": True}),
                RouterConfig(segments=(0, 1), priority=240,
                           resilience={"dead_letter": True}),
            ),
        ),
        seed=7,
        workloads=(
            WorkloadSpec("poisson", count=24, src=(0, 1), dst=(1, 5),
                         channel=12, reliable=True,
                         params={"mean_interval_ns": 150_000}),
            WorkloadSpec("poisson", count=18, src=(1, 6), dst=(0, 4),
                         channel=CH, reliable=True,
                         params={"mean_interval_ns": 180_000}),
        ),
        faults=(
            FaultSpec("partition", at_tours=100, segment=1, nodes=side_a,
                      switches=(0,)),
            FaultSpec("crash_router", at_tours=160, router=0),
            FaultSpec("heal_partition", at_tours=420, segment=1,
                      nodes=side_a, switches=(0,)),
            FaultSpec("recover_router", at_tours=600, router=0),
        ),
        invariants=("all_delivered", "roster_converged",
                    "no_duplicate_deliveries"),
        horizon_tours=1000,
    )


def test_composed_chaos_is_deterministic_and_exactly_once():
    first = run_scenario(_chaos_composed_spec())
    second = run_scenario(_chaos_composed_spec())
    assert first.ok, [f"{i.name}: {i.detail}" for i in first.failures()]
    assert first.trace_digest == second.trace_digest
    assert first.counters == second.counters
    # Exactly-once held through the overlap: dedup absorbed any replays.
    assert first.counters["delivered"] == first.counters["offered"]


def test_composed_chaos_accounts_for_every_shadow():
    """Satellite sweep: parked + promoted + expired + evicted + resident
    accounts for every shadow-parked crossing — no silent shadow loss
    even when faults overlap."""
    result = run_scenario(_chaos_composed_spec())
    c = result.counters
    assert c.get("router_shadow_parked", 0) == (
        c.get("router_shadow_promoted", 0)
        + c.get("router_shadow_expired", 0)
        + c.get("router_shadow_evicted", 0)
        + c.get("router_shadow_resident", 0)
    )


# ---------------------------------------------------- default-off no-op
def test_patterns_off_is_wire_identical_to_no_resilience_config():
    """``ResilienceConfig()`` (all patterns off) must be
    timeline-identical to passing no config at all — the suite is a
    strict no-op until a pattern is switched on."""

    def run(res):
        cluster = build(n_nodes=4, resilience=res)
        got = []
        cluster.nodes[(1, 2)].messenger.on_message(
            CH, lambda src, data, ch: got.append(data)
        )
        for i in range(3):
            cluster.nodes[(0, 1)].messenger.send((1, 2), bytes([i]), CH)
        settle(cluster, tours=600)
        assert len(got) == 3
        return trace_digest(cluster.tracer)

    assert run(None) == run(ResilienceConfig())
