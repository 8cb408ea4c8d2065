"""P3: router-failover convergence and the zero-loss story.

Two 12-node rings joined by a *redundant* router pair.  Reliable
crossing streams run in both directions while the spanning-tree
designated router (R0, the better bridge id) is power-failed mid-load.
The bench pins, from one seeded run:

* **failover convergence time** — from the crash instant until the
  surviving router's missed-advertisement deadline fires, the tree
  re-converges and the backup is designated on every segment.  The
  protocol bound is ``(miss_deadline_periods + 1)`` advertise periods;
  the measured figure is simulated nanoseconds, so the differ holds it
  exactly.
* **zero confirmed-and-lost crossings** — every message offered before,
  during and after the failover is delivered.  Crossings the dead
  router held were also shadow-parked by the (then blocked) backup;
  re-convergence promotes them, and the destination's origin-keyed
  dedup suppresses the copies the dead router had already delivered —
  parked, not lost, and exactly-once.
"""

from repro.routing import (
    RoutedCluster,
    RouterConfig,
    SegmentSpec,
    TopologySpec,
)
from repro.workloads import MessageStream

import harness

N_NODES = 12          # user nodes per segment
COUNT = 60            # messages per stream (spans the whole failover)
CHANNEL = 13
PRIORITIES = (16, 240)
MISS_PERIODS = 3


def build_cluster() -> RoutedCluster:
    cluster = RoutedCluster(
        TopologySpec(
            segments=[SegmentSpec(N_NODES)] * 2,
            routers=[
                RouterConfig(segments=(0, 1), priority=priority,
                             miss_deadline_periods=MISS_PERIODS)
                for priority in PRIORITIES
            ],
        ),
        seed=7,
    )
    cluster.start()
    cluster.run_until_ring_up()
    return cluster


def run_experiment():
    cluster = build_cluster()
    tour = cluster.tour_estimate_ns
    r0, r1 = cluster.routers
    period = r1.advertise_period_ns

    # Let the election settle before offering load.
    cluster.run(until=cluster.sim.now + 2 * period)
    assert cluster.spanning_tree_converged()
    assert cluster.designated_router(0) == 0

    streams = [
        MessageStream(cluster, src=(0, 1), dst=(1, 5),
                      interval_ns=12 * tour, count=COUNT, channel=CHANNEL,
                      name="p3-east", reliable=True),
        MessageStream(cluster, src=(1, 2), dst=(0, 6),
                      interval_ns=14 * tour, count=COUNT, channel=12,
                      name="p3-west", reliable=True),
    ]
    # Crash the designated router a third of the way into the load.
    cluster.run(until=cluster.sim.now + COUNT * 4 * tour)
    t_crash = cluster.sim.now
    cluster.crash_router(0)

    # Convergence: poll at tour granularity (simulated, deterministic).
    deadline = t_crash + 3 * (MISS_PERIODS + 1) * period
    while not cluster.spanning_tree_converged() and cluster.sim.now < deadline:
        cluster.run(until=cluster.sim.now + tour)
    assert cluster.spanning_tree_converged()
    failover_ns = cluster.sim.now - t_crash

    # Drain the remaining load.
    done = lambda: all(s.stats.delivered >= COUNT for s in streams)
    drain_deadline = cluster.sim.now + 6000 * tour
    while not done() and cluster.sim.now < drain_deadline:
        cluster.run(until=cluster.sim.now + 50 * tour)
    for stream in streams:
        stream.close()
    return cluster, streams, t_crash, failover_ns


def test_p3_router_failover(publish_json):
    cluster, streams, t_crash, failover_ns = run_experiment()
    r0, r1 = cluster.routers
    period = r1.advertise_period_ns

    offered = sum(s.stats.offered for s in streams)
    delivered = sum(s.stats.delivered for s in streams)
    lost = offered - delivered
    dup_suppressed = sum(
        n.messenger.counters["duplicate_fragments"]
        for n in cluster.nodes.values()
    )

    # The claims this bench exists to pin.
    assert lost == 0, f"{lost} crossings confirmed-and-lost"
    assert cluster.router_drop_count() == 0
    assert cluster.designated_router(0) == 1
    assert cluster.designated_router(1) == 1
    assert r1.counters["shadow_promoted"] > 0      # parked, then replayed
    assert failover_ns <= (MISS_PERIODS + 2) * period

    columns = ["Stream", "Offered", "Delivered", "Mean ns", "p95 ns"]
    rows = [
        [s.stats.name, s.stats.offered, s.stats.delivered,
         round(s.stats.latency.mean(), 1),
         round(s.stats.latency.percentile(95), 1)]
        for s in streams
    ]
    publish_json(
        harness.bench_payload(
            exp="P3",
            title="Redundant-router failover: convergence time and "
                  "zero-loss crossings",
            params={
                "n_segments": 2,
                "nodes_per_segment": N_NODES,
                "count_per_stream": COUNT,
                "priorities": list(PRIORITIES),
                "miss_deadline_periods": MISS_PERIODS,
                "seed": 7,
            },
            columns=columns,
            rows=rows,
            metrics={
                "failover_convergence_ns": failover_ns,
                "failover_convergence_periods": round(
                    failover_ns / period, 3
                ),
                "advertise_period_ns": period,
                "offered": offered,
                "delivered": delivered,
                "confirmed_and_lost": lost,
                "shadow_parked": r1.counters["shadow_parked"],
                "shadow_promoted": r1.counters["shadow_promoted"],
                "duplicates_suppressed": dup_suppressed,
                "router_drops": cluster.router_drop_count(),
            },
            notes="Designated router of a redundant pair power-failed "
                  "under bidirectional reliable crossing load.  "
                  "Convergence is advertisement-driven (miss deadline + "
                  "one period); crossings in flight during the window "
                  "are shadow-parked by the backup and promoted on "
                  "re-convergence — none are confirmed-and-lost.  All "
                  "times simulated ns (deterministic).",
        )
    )
