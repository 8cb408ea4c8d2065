"""F5 (slide 10): network semaphores resolve write conflicts.

Four nodes increment a shared counter in the network cache.  Unprotected
read-modify-writes race and lose updates (last-writer-wins erases
concurrent increments); wrapping the RMW in a network semaphore makes
every increment land.
"""

from repro import AmpNetCluster
from repro.netcache import RegionSpec

import harness

REGION = RegionSpec(region_id=3, name="f5", n_records=2, record_size=8)
WORKERS = 4
INCREMENTS = 12


def read_counter(cache) -> int:
    ok, data, _v = cache.try_read("f5", 0)
    return int.from_bytes(data[:8], "little") if ok else 0


def run_case(with_semaphore: bool) -> int:
    cluster = AmpNetCluster(n_nodes=WORKERS, n_switches=2, regions=[REGION])
    cluster.start()
    cluster.run_until_ring_up()
    sim = cluster.sim

    def worker(node_id):
        node = cluster.nodes[node_id]
        for _ in range(INCREMENTS):
            if with_semaphore:
                ok = yield from node.sems.acquire(0)
                assert ok
            value = read_counter(node.cache)
            node.cache.write("f5", 0, (value + 1).to_bytes(8, "little"))
            handle = node.replicator.last_handle
            yield handle.delivered  # propagate before anyone else reads
            if with_semaphore:
                node.sems.release(0)
            yield sim.timeout(1_000)

    for nid in range(WORKERS):
        sim.process(worker(nid))
    cluster.run(until=sim.now + 6_000 * cluster.tour_estimate_ns)
    finals = {read_counter(n.cache) for n in cluster.nodes.values()}
    assert len(finals) == 1, "replicas diverged"
    return finals.pop()


def run_experiment():
    locked = run_case(with_semaphore=True)
    unlocked = run_case(with_semaphore=False)
    return locked, unlocked


def test_f5_network_semaphores(publish_json):
    locked, unlocked = run_experiment()
    expected = WORKERS * INCREMENTS

    assert locked == expected, "semaphore-protected increments lost updates"
    assert unlocked < expected, "unprotected RMW surprisingly lost nothing"

    rows = [
        ("network semaphore (slide 10)", expected, locked, expected - locked),
        ("unprotected RMW", expected, unlocked, expected - unlocked),
    ]
    publish_json(
        harness.bench_payload(
            exp="F5",
            title="Network semaphores: contended counter, lost updates",
            params={"workers": WORKERS, "increments": INCREMENTS},
            columns=["discipline", "expected", "final_value", "lost_updates"],
            rows=[list(row) for row in rows],
            metrics={
                "semaphore_lost_updates": expected - locked,
                "unprotected_lost_updates": expected - unlocked,
            },
            notes="Deterministic seeded run: the semaphore-protected "
                  "counter loses nothing, the unprotected RMW races.",
        )
    )
