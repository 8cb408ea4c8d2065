"""A3 (ablation, slide 10): write-through host regions vs a host cache.

Slide 10's coherence rule: host-memory views of NIC memory are written
through — "no caching is allowed in local host cache".  This ablation
shows why: a hypothetical host-side cached copy refreshed by polling
serves stale values for up to its poll interval, while the write-through
view (reading NIC SRAM directly under the seqlock) is stale only for the
replication flight time.
"""

from repro import AmpNetCluster
from repro.netcache import RegionSpec

import harness

REGION = RegionSpec(region_id=6, name="a3", n_records=2, record_size=16)
WRITES = 120
WRITE_INTERVAL_NS = 40_000


def run_experiment():
    cluster = AmpNetCluster(n_nodes=4, n_switches=2, regions=[REGION])
    cluster.start()
    cluster.run_until_ring_up()
    sim = cluster.sim
    writer = cluster.nodes[0]
    reader = cluster.nodes[2]

    #: value byte -> time written (ground truth for staleness)
    written_at = {}

    def writer_proc():
        for k in range(1, WRITES + 1):
            written_at[k % 256] = sim.now
            writer.cache.write("a3", 0, bytes([k % 256]) * 16)
            yield sim.timeout(WRITE_INTERVAL_NS)

    results = {}

    def sample_staleness(name, read_value_fn, sample_interval, poll_interval=None):
        staleness = []
        cached = {"value": 0, "refreshed": 0}

        def proc():
            while sim.now < WRITES * WRITE_INTERVAL_NS:
                if poll_interval is None:
                    value = read_value_fn()
                else:
                    # host cache: refresh only every poll_interval
                    if sim.now - cached["refreshed"] >= poll_interval:
                        cached["value"] = read_value_fn()
                        cached["refreshed"] = sim.now
                    value = cached["value"]
                if value in written_at:
                    newest = max(written_at.values())
                    staleness.append(newest - written_at[value])
                yield sim.timeout(sample_interval)
            results[name] = staleness

        sim.process(proc())

    def read_now():
        ok, data, _v = reader.cache.try_read("a3", 0)
        return data[0] if ok and data else 0

    sample_staleness("write-through (slide 10)", read_now, 10_000)
    sample_staleness("host cache, 0.5 ms poll", read_now, 10_000,
                     poll_interval=500_000)
    sample_staleness("host cache, 2 ms poll", read_now, 10_000,
                     poll_interval=2_000_000)

    sim.process(writer_proc())
    cluster.run(until=(WRITES + 10) * WRITE_INTERVAL_NS)
    return {
        name: (sum(vals) / len(vals) if vals else 0.0, max(vals, default=0))
        for name, vals in results.items()
    }


def test_a3_writethrough_ablation(publish_json):
    summary = run_experiment()

    wt_mean, _wt_max = summary["write-through (slide 10)"]
    slow_mean, _ = summary["host cache, 2 ms poll"]
    fast_mean, _ = summary["host cache, 0.5 ms poll"]

    # Write-through beats any polling cache; staleness grows with the
    # poll interval — the reason slide 10 forbids host caching.
    assert wt_mean < fast_mean < slow_mean

    publish_json(
        harness.bench_payload(
            exp="A3",
            title="Write-through ablation: host view staleness vs polling cache",
            params={"writes": WRITES, "write_interval_ns": WRITE_INTERVAL_NS,
                    "n_nodes": 4},
            columns=["discipline", "mean_staleness_ns", "worst_staleness_ns"],
            rows=[
                [name, round(mean, 1), worst]
                for name, (mean, worst) in summary.items()
            ],
            metrics={
                "writethrough_mean_staleness_ns": round(wt_mean, 1),
                "slow_poll_mean_staleness_ns": round(slow_mean, 1),
            },
            notes="Simulated-time staleness, deterministic under the seed. "
                  "Write-through is stale only for the replication flight "
                  "time; a polled host cache is stale up to its interval.",
        )
    )
