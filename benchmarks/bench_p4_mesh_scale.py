"""P4: mesh-scale routing — crossing premium, hub failover, ad growth.

Four experiments over the hierarchical (area) tier, one seeded run
each, published as a single emission:

* **crossing premium** — the same reliable stream staying local,
  crossing one hub (intra-area), and crossing hub + border + hub
  (inter-area).  Each tier of the hierarchy adds a store-and-forward
  premium; the table pins the ordering.
* **hub failover convergence** — the designated hub of an area with a
  redundant spoke is power-failed under inter-area load.  Convergence
  is advertisement-driven exactly as in P3; no crossing may be
  confirmed-and-lost.
* **ad bytes vs segment count** — a 3-area mesh swept over
  segments-per-area, measured with area summarization (v3 ads) and
  with the same topology flattened to area 0 (flat per-segment rows).
  The pinned figure is the mean routing-ad size: the bytes one ring
  carries per advertise period per attached router.  Flat ads grow
  linearly in the segment count; the summarized curve must grow
  *sublinearly* — the scaling claim the area tier exists for.
* **1k-node probe** — a PerfProbe window over the steady-state
  mesh_1k topology: the window's event count and the scheduler's
  occupancy at its close, both fixed by the seed (how fast the host
  runs it is ``benchmarks/e2e``'s ``mesh_1k`` row).

All latencies and window bounds are simulated nanoseconds.
"""

from dataclasses import replace

from repro.perf import PerfProbe
from repro.routing import RoutedCluster, TopologySpec
from repro.workloads import MessageStream

import harness

CHANNEL = 13
NODES = 8              # per segment, small-mesh experiments
COUNT = 30             # messages per stream
ADVERTISE_TOURS = 8
MISS_PERIODS = 3
SWEEP_SPA = (2, 3, 5)  # 3 areas -> K = 6, 9, 15 segments
MEASURE_PERIODS = 10


def build_mesh(n_areas, spa, nodes, *, redundant=False, flat=False,
               cadence=ADVERTISE_TOURS, seed=7):
    topology = TopologySpec.area_mesh(
        n_areas, spa, nodes, redundant_spokes=redundant, n_switches=4,
        advertise_period_tours=cadence, miss_deadline_periods=MISS_PERIODS,
    )
    if flat:
        # Same topology, no hierarchy: every router in area 0 advertises
        # flat per-segment rows instead of area summaries.
        topology = replace(
            topology,
            routers=[replace(r, area=0) for r in topology.routers],
        )
    cluster = RoutedCluster(topology, seed=seed, trace=False)
    cluster.start()
    cluster.run_until_ring_up()
    return cluster


def settle(cluster, tours):
    cluster.run(until=cluster.sim.now + tours * cluster.tour_estimate_ns)


def run_stream(cluster, src, dst, name):
    tour = cluster.tour_estimate_ns
    stream = MessageStream(
        cluster, src=src, dst=dst, interval_ns=12 * tour, count=COUNT,
        channel=CHANNEL, name=name, reliable=True,
    )
    deadline = cluster.sim.now + 6000 * tour
    while stream.stats.delivered < COUNT and cluster.sim.now < deadline:
        cluster.run(until=cluster.sim.now + 50 * tour)
    stream.close()
    return stream.stats


# ------------------------------------------------------------ experiments


def exp_crossing_premium():
    """Local vs intra-area vs inter-area reliable delivery."""
    cluster = build_mesh(2, 2, NODES)
    settle(cluster, 5 * ADVERTISE_TOURS)
    cases = (
        ("local", (0, 1), (0, 5)),          # same ring
        ("intra_area", (0, 1), (1, 5)),     # one hub crossing
        ("inter_area", (0, 1), (3, 5)),     # hub + border + hub
    )
    stats = {name: run_stream(cluster, src, dst, f"p4-{name}")
             for name, src, dst in cases}
    assert all(s.delivered == COUNT for s in stats.values())
    assert cluster.router_drop_count() == 0
    means = {name: s.latency.mean() for name, s in stats.items()}
    # Each hierarchy tier crossed adds latency — the shape this pins.
    assert means["local"] < means["intra_area"] < means["inter_area"]
    return stats, means


def exp_hub_failover():
    """Crash the designated hub of area 1 under inter-area load.

    Runs at the router's *default* advertise cadence (50 tours): the
    crash also kills the hub's gateway nodes, so both of its rings
    re-roster around the corpses, and at the mesh scenarios' fast
    8-tour cadence that fixed re-roster time — not the advertisement
    protocol — dominates the clock.  The bound is the P3 contract
    widened for depth: past the miss deadline the surviving root's
    claim still has to relay across the border tier (hub -> border ->
    standby, one advertise period per hop) while both orphaned rings
    re-roster, so convergence lands within ``2 * (miss_deadline + 2)``
    periods instead of P3's single-hop ``miss_deadline + 2``.
    """
    cluster = build_mesh(2, 2, NODES, redundant=True, cadence=None)
    settle(cluster, 2 * 50)
    assert cluster.spanning_tree_converged()
    tour = cluster.tour_estimate_ns
    hub_idx = next(
        i for i, r in enumerate(cluster.routers)
        if r.config.priority == 64 and r.config.area == 1
    )
    period = cluster.routers[hub_idx].advertise_period_ns

    # Inter-area stream that transits the doomed hub, in flight across
    # the crash.
    stream = MessageStream(
        cluster, src=(1, 2), dst=(3, 5), interval_ns=12 * tour,
        count=COUNT, channel=CHANNEL, name="p4-failover", reliable=True,
    )
    cluster.run(until=cluster.sim.now + COUNT * 4 * tour)
    t_crash = cluster.sim.now
    cluster.crash_router(hub_idx)

    deadline = t_crash + 3 * (MISS_PERIODS + 2) * period
    while not cluster.spanning_tree_converged() and cluster.sim.now < deadline:
        cluster.run(until=cluster.sim.now + tour)
    assert cluster.spanning_tree_converged()
    failover_ns = cluster.sim.now - t_crash
    assert failover_ns <= 2 * (MISS_PERIODS + 2) * period

    drain_deadline = cluster.sim.now + 6000 * tour
    while stream.stats.delivered < COUNT and cluster.sim.now < drain_deadline:
        cluster.run(until=cluster.sim.now + 50 * tour)
    stream.close()
    lost = stream.stats.offered - stream.stats.delivered
    assert lost == 0, f"{lost} inter-area crossings confirmed-and-lost"
    return failover_ns, period, stream.stats


def measure_ad_bytes(cluster):
    """(bytes per period, mean bytes per ad) over the whole mesh.

    The mean is the wire figure: one router port sends one ad per
    advertise period, so mean ad size is exactly the routing-ad load
    each ring carries per attached router per period.
    """
    settle(cluster, 3 * ADVERTISE_TOURS)          # past the startup burst
    b0 = sum(r.counters.get("ad_bytes_tx", 0) for r in cluster.routers)
    n0 = sum(r.counters.get("ads_tx", 0) for r in cluster.routers)
    settle(cluster, MEASURE_PERIODS * ADVERTISE_TOURS)
    b1 = sum(r.counters.get("ad_bytes_tx", 0) for r in cluster.routers)
    n1 = sum(r.counters.get("ads_tx", 0) for r in cluster.routers)
    return (b1 - b0) / MEASURE_PERIODS, (b1 - b0) / (n1 - n0)


def exp_ad_scaling():
    """v3 summaries vs flat rows as the segment count grows."""
    curve = {}
    for spa in SWEEP_SPA:
        k = 3 * spa
        curve[k] = {
            "v3": measure_ad_bytes(build_mesh(3, spa, NODES)),
            "flat": measure_ad_bytes(build_mesh(3, spa, NODES, flat=True)),
        }
    # Hierarchy pays off as soon as areas span multiple segments...
    for k in (9, 15):
        assert curve[k]["v3"][1] < curve[k]["flat"][1], (
            f"K={k}: v3 ad {curve[k]['v3'][1]} >= flat {curve[k]['flat'][1]}"
        )
    # ...and the summarized ad is sublinear in segment count: 2.5x the
    # segments must cost strictly less than 2.5x the bytes per ad.
    growth = curve[15]["v3"][1] / curve[6]["v3"][1]
    assert growth < 15 / 6, f"ad bytes grew {growth:.2f}x over 2.5x segments"
    return curve, growth


def exp_scale_probe():
    """PerfProbe window over the steady-state 1k-node mesh."""
    cluster = build_mesh(3, 5, 68, redundant=True)
    settle(cluster, 20)                            # steady state
    probe = PerfProbe(cluster.sim, per_kind=True)
    probe.start()
    settle(cluster, 10)                            # measurement window
    report = probe.stop()
    n_nodes = len(cluster.nodes)
    assert n_nodes >= 1_000
    assert report.events > 0
    return n_nodes, report


# ------------------------------------------------------------------ test


def test_p4_mesh_scale(publish_json):
    crossing_stats, means = exp_crossing_premium()
    failover_ns, period, fo_stats = exp_hub_failover()
    curve, growth = exp_ad_scaling()
    n_nodes, report = exp_scale_probe()

    columns = ["Experiment", "Case", "Metric", "Value"]
    rows = []
    for name, stats in crossing_stats.items():
        rows.append(["crossing", name, "mean_ns",
                     round(stats.latency.mean(), 1)])
        rows.append(["crossing", name, "p95_ns",
                     round(stats.latency.percentile(95), 1)])
    rows.append(["failover", "hub_crash", "convergence_ns", failover_ns])
    rows.append(["failover", "hub_crash", "delivered", fo_stats.delivered])
    for k, pair in sorted(curve.items()):
        rows.append(["ad_bytes", f"K={k}", "v3_bytes_per_ad",
                     round(pair["v3"][1], 1)])
        rows.append(["ad_bytes", f"K={k}", "flat_bytes_per_ad",
                     round(pair["flat"][1], 1)])
        rows.append(["ad_bytes", f"K={k}", "v3_bytes_per_period",
                     round(pair["v3"][0], 1)])
    sched = report.scheduler
    rows.append(["scale_1k", "probe", "window_events", report.events])
    rows.append(["scale_1k", "probe", "window_sim_ns", report.sim_ns])
    rows.append(["scale_1k", "probe", "pending_entries",
                 sched["pending_entries"]])
    rows.append(["scale_1k", "probe", "pending_instants",
                 sched["pending_instants"]])

    premium = {
        "intra": round(means["intra_area"] / means["local"], 2),
        "inter": round(means["inter_area"] / means["local"], 2),
    }
    publish_json(
        harness.bench_payload(
            exp="P4",
            title="Mesh-scale routing: crossing premium, hub failover, "
                  "sublinear ad growth, 1k-node probe",
            params={
                "n_areas": 2,
                "nodes_per_segment": NODES,
                "count_per_stream": COUNT,
                "advertise_period_tours": ADVERTISE_TOURS,
                "miss_deadline_periods": MISS_PERIODS,
                "sweep_segments": [3 * spa for spa in SWEEP_SPA],
                "measure_periods": MEASURE_PERIODS,
                "probe_topology": "area_mesh(3, 5, 68, redundant_spokes)",
                "seed": 7,
            },
            columns=columns,
            rows=rows,
            metrics={
                "crossing_premium_intra_area": premium["intra"],
                "crossing_premium_inter_area": premium["inter"],
                "failover_convergence_ns": failover_ns,
                "failover_convergence_periods": round(
                    failover_ns / period, 3),
                "confirmed_and_lost": fo_stats.offered - fo_stats.delivered,
                "ad_bytes_growth_6_to_15_segments": round(growth, 3),
                "ad_bytes_v3_k15_per_ad": round(curve[15]["v3"][1], 1),
                "ad_bytes_flat_k15_per_ad": round(curve[15]["flat"][1], 1),
                "probe_nodes": n_nodes,
                "probe_window_events": report.events,
                "probe_window_sim_ns": report.sim_ns,
                "sched_pending_entries": sched["pending_entries"],
                "sched_pending_instants": sched["pending_instants"],
            },
            notes="Area-tier scaling story in one emission: the premium "
                  "each hierarchy tier adds to a reliable crossing, "
                  "advertisement-driven hub failover with zero "
                  "confirmed-and-lost crossings, routing-ad bytes per "
                  "period growing sublinearly in segment count under v3 "
                  "summarization (vs the flat area-0 baseline on the "
                  "same topology), and a deterministic PerfProbe window "
                  "over the steady-state ~1k-node mesh.  Simulated ns "
                  "throughout.  Re-emitted once when the uncontended "
                  "ring hop was fused: the probe's window events and "
                  "scheduler occupancy fell with it (three schedule "
                  "entries instead of six; bench P1 carries the per-hop "
                  "count); every "
                  "simulated latency, byte and message count is as it "
                  "was.  Re-emitted again when the kernel lost its timer "
                  "wheel: the probe's occupancy rows are the pending "
                  "entries and pending instants at the window's close "
                  "(840 wheel + 2121 overflow entries before); every "
                  "other cell is as it was.",
        )
    )
