"""P2: the cost of crossing a segment router.

Two 16-node rings joined by one :class:`~repro.routing.SegmentRouter`.
The same reliable message stream runs four times — staying on its home
ring vs crossing the router, at single-cell (8 B) and fragmented
(512 B) sizes — so the table isolates exactly what a crossing adds:
capture off the ingress ring, store-and-forward reassembly, and a
second ring insertion paced by the router's egress flow control.

All latency numbers are *simulated* nanoseconds from a seeded run, so
the emission is deterministic and ``benchmarks/diff_results.py`` holds
it exactly across commits.
"""

from repro.routing import (
    RoutedCluster,
    RouterConfig,
    SegmentSpec,
    TopologySpec,
)
from repro.workloads import MessageStream

import harness

N_NODES = 16          # user nodes per segment
COUNT = 40            # messages per stream
CHANNEL = 13
SIZES = (8, 512)      # single cell; 8-fragment message


def build_cluster() -> RoutedCluster:
    cluster = RoutedCluster(
        TopologySpec(
            segments=[SegmentSpec(N_NODES)] * 2,
            routers=[RouterConfig(segments=(0, 1))],
        ),
        seed=7,
    )
    cluster.start()
    cluster.run_until_ring_up()
    return cluster


def run_stream(cluster: RoutedCluster, dst, size: int, name: str):
    """One reliable stream to ``dst``; returns its finished stats."""
    tour = cluster.tour_estimate_ns
    # Keep the offered load below the drain rate (a 512 B message is
    # eight fragments at ~2 insertions per tour), so the table measures
    # the router's store-and-forward premium, not self-queueing.
    interval = 2 * tour if size <= 8 else 30 * tour
    stream = MessageStream(
        cluster, src=(0, 1), dst=dst,
        interval_ns=interval, count=COUNT, channel=CHANNEL,
        name=name, reliable=True,
        size_fn=(None if size <= 8 else (lambda _seq: size)),
    )
    deadline = cluster.sim.now + 4000 * tour
    while stream.stats.delivered < COUNT and cluster.sim.now < deadline:
        cluster.run(until=cluster.sim.now + 50 * tour)
    stream.close()
    return stream.stats


def run_experiment():
    cluster = build_cluster()
    rows = []
    stats_by_scope = {}
    for size in SIZES:
        for scope, dst in (("local", (0, 9)), ("crossed", (1, 9))):
            stats = run_stream(cluster, dst, size, f"p2-{scope}-{size}")
            stats_by_scope[(scope, size)] = stats
            rows.append([
                scope, size, stats.offered, stats.delivered,
                round(stats.latency.mean(), 1),
                round(stats.latency.percentile(95), 1),
            ])
    router = cluster.routers[0]
    return cluster, router, rows, stats_by_scope


def test_p2_routed_throughput(publish_json):
    cluster, router, rows, stats = run_experiment()

    # Every stream fully delivered; nothing dropped anywhere.
    assert all(row[3] == COUNT for row in rows)
    assert cluster.router_drop_count() == 0
    # The router really carried the crossing streams (both sizes).
    assert router.counters["messages_captured"] == 2 * COUNT
    # Crossing costs more than staying local, at every size — the
    # qualitative shape this bench pins.
    for size in SIZES:
        local = stats[("local", size)].latency.mean()
        crossed = stats[("crossed", size)].latency.mean()
        assert crossed > local

    columns = ["Scope", "Bytes", "Offered", "Delivered",
               "Mean ns", "p95 ns"]
    crossing_factor = {
        size: round(
            stats[("crossed", size)].latency.mean()
            / stats[("local", size)].latency.mean(), 2,
        )
        for size in SIZES
    }
    publish_json(
        harness.bench_payload(
            exp="P2",
            title="Routed vs local reliable delivery across a segment router",
            params={
                "n_segments": 2,
                "nodes_per_segment": N_NODES,
                "count_per_stream": COUNT,
                "sizes_bytes": list(SIZES),
                "seed": 7,
            },
            columns=columns,
            rows=rows,
            metrics={
                "crossing_factor_8B": crossing_factor[8],
                "crossing_factor_512B": crossing_factor[512],
                "router_messages_captured": router.counters["messages_captured"],
                "router_fragments_captured": router.counters["fragments_captured"],
                "router_egress_tx": router.counters["egress_tx"],
                "router_drops": cluster.router_drop_count(),
            },
            notes="Same reliable stream on its home ring vs across the "
                  "router at 8 B and 512 B; latency in simulated ns "
                  "(deterministic). The crossing factor is the router's "
                  "store-and-forward premium.",
        )
    )
