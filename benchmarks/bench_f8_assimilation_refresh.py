"""F8 (slides 17-18): node entry, assimilation and cache refresh.

A node crashes (losing its NIC memory), recovers, and is assimilated:
JOIN -> rostered -> snapshot refresh -> warm.  Assimilation latency
scales with the cache payload the provider must stream; version-
incompatible nodes are kept out entirely.
"""

from repro import AmpNetCluster
from repro.netcache import RegionSpec

import harness

CACHE_SIZES_KB = (8, 32, 128)


def run_join(cache_kb: int):
    # 512-byte records: the refresh cost under test is the snapshot
    # *bytes* streamed to the joiner, not the record count.
    region = RegionSpec(region_id=5, name="payload", n_records=cache_kb * 2,
                        record_size=512)
    cluster = AmpNetCluster(n_nodes=6, n_switches=2, regions=[region])
    cluster.start()
    cluster.run_until_ring_up()
    # Fill the cache so there is something to refresh.
    writer = cluster.nodes[0]
    for idx in range(region.n_records):
        writer.cache.write("payload", idx, bytes([idx % 255 + 1]) * 512)
    cluster.run(until=cluster.sim.now + 600 * cluster.tour_estimate_ns)

    cluster.crash_node(4)
    cluster.run_until_reroster()
    cluster.recover_node(4)
    cluster.run_until_reroster()
    horizon = cluster.sim.now + 5_000 * cluster.tour_estimate_ns
    node = cluster.nodes[4]
    while not node.refresh.warm and cluster.sim.now < horizon:
        cluster.run(until=cluster.sim.now + 20 * cluster.tour_estimate_ns)
    assert node.refresh.warm, "assimilation did not complete"
    # Verify the refreshed replica actually carries the data.
    ok, data, _v = node.cache.try_read("payload", region.n_records - 1)
    assert ok and data[0] != 0
    refreshed = [
        r for r in cluster.tracer.select(category="cache_refreshed")
        if r.source.endswith("-4")
    ]
    snapshot_bytes = refreshed[-1].data["bytes"]
    return node.assimilation.assimilation_ns, snapshot_bytes


def run_version_rejection():
    cluster = AmpNetCluster(n_nodes=4, n_switches=2)
    # Node 3 speaks an ancient protocol version; masters must exclude it,
    # so the ring converges on the other three (node 3 stays DOWN and
    # run_until_ring_up — which wants *every* node up — would never fire).
    old = cluster.nodes[3]
    old.agent.version = (0, 9)
    cluster.start()
    horizon = 2_000 * cluster.tour_estimate_ns
    while cluster.sim.now < horizon:
        cluster.run(until=cluster.sim.now + 20 * cluster.tour_estimate_ns)
        roster = cluster.current_roster()
        if roster is not None and roster.size == 3:
            break
    return set(cluster.current_roster().members)


def run_experiment():
    rows = []
    for cache_kb in CACHE_SIZES_KB:
        elapsed, snapshot_bytes = run_join(cache_kb)
        rows.append((cache_kb, snapshot_bytes, elapsed))
    members = run_version_rejection()
    return rows, members


def test_f8_assimilation_and_refresh(publish_json):
    rows, members = run_experiment()

    # Assimilation completes at every size and latency grows with payload.
    snapshot_sizes = [r[1] for r in rows]
    assert snapshot_sizes == sorted(snapshot_sizes)
    # Version gate (slide 17): the incompatible node is not rostered.
    assert members == {0, 1, 2}

    publish_json(
        harness.bench_payload(
            exp="F8",
            title="Assimilation and cache refresh: crash, re-entry, warm-up",
            params={"cache_sizes_kb": list(CACHE_SIZES_KB), "n_nodes": 6},
            columns=["cache_kb", "snapshot_bytes", "assimilation_ns"],
            rows=[list(row) for row in rows],
            metrics={
                "version_rejected_roster_size": len(members),
                "max_assimilation_ns": max(r[2] for r in rows),
            },
            notes="Snapshot bytes and assimilation time grow with the "
                  "cache payload; the protocol-0.9 node is excluded from "
                  "the roster entirely (version gate).",
        )
    )
