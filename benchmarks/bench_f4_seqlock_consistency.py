"""F4 (slide 9): Lamport-counter (seqlock) cache consistency.

A writer storms one record while a remote replica is continuously
applying the updates through its (non-atomic) DMA path.  A naive reader
that ignores the counters observes torn records; the slide-9 two-counter
protocol never does, at the price of a bounded number of retries.
"""

from repro import AmpNetCluster
from repro.netcache import RegionSpec

import harness

REGION = RegionSpec(region_id=2, name="f4", n_records=4, record_size=64)
WRITES = 150
SAMPLES_PER_WRITE = 12


def is_torn(data: bytes) -> bool:
    """Records are written as a single repeated byte: mixed bytes = torn."""
    return len(set(data)) > 1


def run_experiment():
    cluster = AmpNetCluster(n_nodes=4, n_switches=2, regions=[REGION])
    cluster.start()
    cluster.run_until_ring_up()
    sim = cluster.sim
    writer_cache = cluster.nodes[0].cache
    reader_cache = cluster.nodes[2].cache

    stats = {"naive_reads": 0, "naive_torn": 0, "seqlock_reads": 0,
             "seqlock_torn": 0, "retries_before": 0}

    def writer():
        for k in range(WRITES):
            writer_cache.write("f4", 0, bytes([k % 251 + 1]) * 64)
            yield sim.timeout(3_000)

    def naive_reader():
        for _ in range(WRITES * SAMPLES_PER_WRITE):
            data = reader_cache.read_naive("f4", 0)
            if data.strip(b"\x00"):
                stats["naive_reads"] += 1
                if is_torn(data):
                    stats["naive_torn"] += 1
            yield sim.timeout(250)

    def seqlock_reader():
        for _ in range(WRITES * SAMPLES_PER_WRITE):
            data = yield from reader_cache.read("f4", 0)
            if data.strip(b"\x00"):
                stats["seqlock_reads"] += 1
                if is_torn(data):
                    stats["seqlock_torn"] += 1
            yield sim.timeout(250)

    sim.process(writer())
    sim.process(naive_reader())
    sim.process(seqlock_reader())
    cluster.run(until=sim.now + 3_000 * (WRITES + 10))
    stats["retries_before"] = reader_cache.counters["read_retries"]
    return stats


def test_f4_seqlock_consistency(publish_json):
    stats = run_experiment()

    # The ablation sees torn data; the slide-9 protocol never does.
    assert stats["naive_torn"] > 0, "apply path never produced a torn window"
    assert stats["seqlock_torn"] == 0
    assert stats["seqlock_reads"] > 0

    columns = ["Reader", "Reads", "Torn reads"]
    rows = [
        ["naive (ignore counters)", stats["naive_reads"], stats["naive_torn"]],
        ["seqlock (slide 9)", stats["seqlock_reads"], stats["seqlock_torn"]],
    ]
    publish_json(
        harness.bench_payload(
            exp="F4",
            title="Lamport-counter (seqlock) cache consistency under a "
                  "write storm",
            params={
                "n_nodes": 4,
                "writes": WRITES,
                "samples_per_write": SAMPLES_PER_WRITE,
                "record_size": REGION.record_size,
            },
            columns=columns,
            rows=rows,
            metrics={
                "naive_reads": stats["naive_reads"],
                "naive_torn": stats["naive_torn"],
                "seqlock_reads": stats["seqlock_reads"],
                "seqlock_torn": stats["seqlock_torn"],
                "seqlock_retries": stats["retries_before"],
            },
            notes="All counts from one seeded simulated run "
                  "(deterministic): the naive reader observes torn "
                  "records, the slide-9 two-counter protocol never "
                  "does, at the price of bounded retries.",
        )
    )
