"""Integration: mesh-scale hierarchical routing.

The area tier end to end: mesh builders producing the documented
router layout, cluster-scoped broadcast reaching every segment exactly
once over the spanning tree, summary staleness honouring the
*advertiser's* refresh cadence in mixed-cadence meshes, and the
same-seed determinism contract at mesh scale.
"""

from collections import Counter

from repro.micropacket import BROADCAST
from repro.routing import (
    RoutedCluster,
    RouterConfig,
    SegmentSpec,
    TopologySpec,
)
from repro.scenarios import (
    ScenarioRunner,
    get_scenario,
    run_scenario,
)

#: free messenger channel for test traffic (services claim the low ids)
CH = 13


def build_area_mesh(n_areas=3, spa=2, nodes=4, seed=7):
    topology = TopologySpec.area_mesh(
        n_areas, spa, nodes, n_switches=4, advertise_period_tours=8,
    )
    cluster = RoutedCluster(topology, seed=seed, trace=False)
    cluster.start()
    cluster.run_until_ring_up()
    # Let elections settle and summaries relay border-to-border.
    cluster.run(until=cluster.sim.now + 40 * cluster.tour_estimate_ns)
    return cluster


# ---------------------------------------------------------------- builders


def test_star_mesh_builder_shape():
    cfg = TopologySpec.star_mesh(5, 6, redundancy=2)
    assert len(cfg.segments) == 5
    primary, *standbys = cfg.routers
    assert primary.segments == (0, 1, 2, 3, 4)
    assert primary.priority == 64
    assert [s.priority for s in standbys] == [240, 240]
    assert all(s.segments == primary.segments for s in standbys)


def test_area_mesh_builder_shape():
    cfg = TopologySpec.area_mesh(3, 2, 5, redundant_spokes=True)
    assert len(cfg.segments) == 6
    hubs = [r for r in cfg.routers if r.priority == 64]
    standbys = [r for r in cfg.routers if r.priority == 240]
    borders = [r for r in cfg.routers if r.priority == 128]
    assert [h.area for h in hubs] == [1, 2, 3]
    assert [h.segments for h in hubs] == [(0, 1), (2, 3), (4, 5)]
    assert [s.area for s in standbys] == [1, 2, 3]
    # Borders cycle area-first-segments: 0->2, 2->4, 4->0.
    assert [b.segments for b in borders] == [(0, 2), (2, 4), (4, 0)]
    # A border is labelled with the area of its first attachment.
    assert [b.area for b in borders] == [1, 2, 3]


# --------------------------------------------------------------- broadcast


def test_cluster_broadcast_reaches_every_segment_exactly_once():
    cluster = build_area_mesh()
    got = Counter()
    for addr, node in cluster.nodes.items():
        node.messenger.on_message(CH, lambda s, d, c, a=addr: got.update([a]))
    cluster.nodes[(0, 1)].messenger.send_cluster_broadcast(b"all-areas", CH)
    cluster.run(until=cluster.sim.now + 60 * cluster.tour_estimate_ns)

    # Every node in every segment hears it exactly once; the sender's
    # own messenger does not loop the frame back.
    assert sorted({a[0] for a in got}) == list(range(len(cluster.segments)))
    expected = set(cluster.nodes) - {(0, 1)}
    assert set(got) == expected
    assert set(got.values()) == {1}

    # The border cycle (3 areas) would re-import the frame into the
    # origin area without spanning-tree pruning + origin dedup.
    fanout = sum(r.counters.get("broadcast_fanout", 0) for r in cluster.routers)
    pruned = sum(r.counters.get("broadcast_pruned", 0) for r in cluster.routers)
    assert fanout == len(cluster.segments) - 1
    assert pruned >= 1


def test_segment_broadcast_stays_local_in_a_mesh():
    cluster = build_area_mesh()
    got = Counter()
    for addr, node in cluster.nodes.items():
        node.messenger.on_message(CH, lambda s, d, c, a=addr: got.update([a]))
    cluster.nodes[(2, 1)].messenger.send(BROADCAST, b"local", CH)
    cluster.run(until=cluster.sim.now + 30 * cluster.tour_estimate_ns)
    assert got and all(a[0] == 2 for a in got)


# ----------------------------------------------------- mixed-cadence ads


def test_slow_cadence_summaries_survive_at_fast_routers():
    """Summary staleness must follow the *advertiser's* refresh period.

    A fast hub (4-tour cadence) learning area summaries from a slow
    border (24-tour cadence) would expire them between refreshes if it
    judged staleness on its own period — a permanent flap that parks
    or drops every inter-area crossing.  The v3 summary rows carry
    their refresh period precisely so this mesh stays quiet.
    """
    cfg = TopologySpec(
        segments=[SegmentSpec(n_nodes=4)] * 4,
        routers=[
            RouterConfig(segments=(0, 1), priority=64, area=1,
                         advertise_period_tours=4),
            RouterConfig(segments=(1, 2), priority=128, area=1,
                         advertise_period_tours=24),
            RouterConfig(segments=(2, 3), priority=64, area=2,
                         advertise_period_tours=24),
        ],
    )
    cluster = RoutedCluster(cfg, seed=7)
    cluster.start()
    cluster.run_until_ring_up()
    tour = cluster.tour_estimate_ns
    # Many fast periods and several slow ones: plenty of chances for a
    # cadence-mismatch flap to show.
    cluster.run(until=cluster.sim.now + 120 * tour)

    got, back = [], []
    cluster.nodes[(3, 2)].messenger.on_message(
        CH, lambda s, d, c: got.append((s, d)))
    cluster.nodes[(0, 2)].messenger.on_message(
        CH, lambda s, d, c: back.append((s, d)))
    cluster.nodes[(0, 1)].messenger.send((3, 2), b"out", CH)
    cluster.nodes[(3, 1)].messenger.send((0, 2), b"ret", CH)
    cluster.run(until=cluster.sim.now + 200 * tour)

    assert got == [((0, 1), b"out")]
    assert back == [((3, 1), b"ret")]
    for router in cluster.routers:
        assert router.counters.get("summaries_expired", 0) == 0, router.name
        assert router.counters.get("unroutable_drop", 0) == 0, router.name


# ------------------------------------------------------------ determinism


def test_same_seed_mesh_runs_are_bit_identical():
    first = run_scenario(get_scenario("mesh_routed_small", seed=11))
    second = run_scenario(get_scenario("mesh_routed_small", seed=11))
    assert first.ok and second.ok
    assert first.trace_digest == second.trace_digest
    assert first.counters == second.counters


def test_different_seed_mesh_runs_diverge():
    """The pooled destinations and Poisson arrivals follow the master
    seed.  (As with ``diurnal_ramp``, a fault-free timeline digest can
    coincide — the divergence contract lives in the streams' transmit
    instants.)"""
    runs = {}
    for seed in (11, 12):
        runner = ScenarioRunner(get_scenario("mesh_routed_small", seed=seed))
        assert runner.run().ok
        runs[seed] = [list(w.tx_times) for w in runner.workloads]
    assert runs[11] != runs[12]
