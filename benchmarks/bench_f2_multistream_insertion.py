"""F2 (slide 7): multiple concurrent data streams inserted per node.

Four nodes run the slide's exact scenario — two applications sending
files, two sending messages, all simultaneously — and every stream makes
progress with zero ring drops.
"""

from repro import AmpNetCluster
from repro.analysis import fmt_ns, ring_drop_count
from repro.workloads import run_slide7_mixed_workload

import harness

N_NODES = 4
DURATION_TOURS = 800


def run_experiment():
    cluster = AmpNetCluster(n_nodes=N_NODES, n_switches=2)
    cluster.start()
    cluster.run_until_ring_up()
    stats = run_slide7_mixed_workload(cluster, duration_tours=DURATION_TOURS)
    rows = [
        (
            s.name,
            s.offered,
            s.delivered,
            s.bytes_delivered,
            fmt_ns(s.latency.mean()),
        )
        for s in stats
    ]
    return rows, stats, ring_drop_count(cluster)


def test_f2_multistream_insertion(publish_json):
    (rows, stats, drops) = run_experiment()

    # Every concurrent stream made progress and nothing was dropped.
    assert all(s.delivered > 0 for s in stats)
    assert drops == 0
    # Message streams fully drained within the horizon.
    msg = [s for s in stats if s.name.startswith("msg")]
    assert all(s.delivered == s.offered for s in msg)

    columns = ["Stream", "Offered", "Delivered", "Bytes", "Mean latency"]
    publish_json(
        harness.bench_payload(
            exp="F2",
            title="Concurrent per-node streams (slide 7 mixed insertion)",
            params={"n_nodes": N_NODES, "duration_tours": DURATION_TOURS},
            columns=columns,
            rows=[list(row) for row in rows],
            metrics={
                "ring_drops": drops,
                "total_offered": sum(s.offered for s in stats),
                "total_delivered": sum(s.delivered for s in stats),
                "total_bytes_delivered": sum(s.bytes_delivered for s in stats),
            },
            notes="Four streams (two file, two message) inserted "
                  "concurrently on a four-node ring; message streams must "
                  "fully drain and the data plane must not drop.",
        )
    )
