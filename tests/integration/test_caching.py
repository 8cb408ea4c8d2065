"""Integration: the in-network caching service end to end.

Covers what the scenario suite (zipf_cache_warmup, cache_offload_star)
does not: the write path under every policy, cache-aside's
no-coalescing contract, LFU eviction under a live cluster, the on-path
router tap answering locally, the caching-off wire-identity contract
(mirroring the resilience patterns-off test), and composed same-seed
determinism of a cache + fault scenario.
"""

import pytest

from repro.caching import (
    CacheConfig,
    CacheDeployment,
    DEFAULT_CONTENT_CHANNEL,
    OP_RESPONSE,
    OP_WRITE_ACK,
    decode,
    encode_request,
    encode_write,
    origin_body,
)
from repro.cluster import AmpNetCluster
from repro.routing import RoutedCluster, RouterConfig
from repro.scenarios import (
    CacheSpec,
    FaultSpec,
    ScenarioSpec,
    SegmentSpec,
    TopologySpec,
    WorkloadSpec,
    run_scenario,
)
from repro.scenarios.runner import trace_digest

CH = DEFAULT_CONTENT_CHANNEL


def ring(n_nodes=6, seed=7):
    cluster = AmpNetCluster(n_nodes=n_nodes, n_switches=2, seed=seed)
    cluster.start()
    cluster.run_until_ring_up()
    return cluster


def routed(seed=7, cache=None, n_nodes=6):
    topology = TopologySpec(
        segments=[SegmentSpec(n_nodes)] * 2,
        routers=[RouterConfig(segments=(0, 1), cache=cache)],
    )
    cluster = RoutedCluster(topology, seed=seed)
    cluster.start()
    cluster.run_until_ring_up()
    return cluster


def settle(cluster, tours=200):
    cluster.run(until=cluster.sim.now + tours * cluster.tour_estimate_ns)


class Client:
    """Bare content-protocol client: sends frames, records replies."""

    def __init__(self, cluster, node):
        self.cluster = cluster
        self.node = node
        self.replies = []
        cluster.nodes[node].messenger.on_message(
            CH, lambda src, payload, ch: self.replies.append(decode(payload))
        )
        self._seq = 0

    def request(self, target, content_id):
        self._seq += 1
        self.cluster.nodes[self.node].messenger.send(
            target, encode_request(self._seq, content_id), CH
        )
        return self._seq

    def write(self, target, content_id, body):
        self._seq += 1
        self.cluster.nodes[self.node].messenger.send(
            target, encode_write(self._seq, content_id, body), CH
        )
        return self._seq


# -------------------------------------------------------------- policies
def test_read_through_serves_hits_and_accounts_ledger():
    cluster = ring()
    deploy = CacheDeployment(cluster, origin=0, caches=(1,),
                             policy="read_through", capacity=4)
    client = Client(cluster, 2)
    for cid in (3, 3, 3, 5):
        client.request(1, cid)
        settle(cluster, 80)
    deploy.close()
    assert [r.op for r in client.replies] == [OP_RESPONSE] * 4
    assert [r.body for r in client.replies] == [
        origin_body(3, 40), origin_body(3, 40),
        origin_body(3, 40), origin_body(5, 40),
    ]
    totals = deploy.counter_totals()
    # Two distinct ids fetched once each; repeats served from cache.
    assert totals["hits"] == 2
    assert totals["misses"] == 2
    assert totals["origin_fetches"] == 2
    assert totals["origin_requests"] == 2
    assert totals["hits"] + totals["misses"] == 4
    assert totals["responses"] == 4


def test_cache_aside_never_coalesces_concurrent_misses():
    cluster = ring()
    deploy = CacheDeployment(cluster, origin=0, caches=(1,),
                             policy="cache_aside", capacity=4)
    client = Client(cluster, 2)
    # Back-to-back misses for one id, no settling in between: the
    # cache-aside loader belongs to each request, so both fetch.
    client.request(1, 9)
    client.request(1, 9)
    settle(cluster, 400)
    deploy.close()
    totals = deploy.counter_totals()
    assert len(client.replies) == 2
    assert totals["origin_fetches"] == 2
    assert totals.get("coalesced", 0) == 0


def test_read_through_coalesces_concurrent_misses():
    cluster = ring()
    deploy = CacheDeployment(cluster, origin=0, caches=(1,),
                             policy="read_through", capacity=4)
    client = Client(cluster, 2)
    client.request(1, 9)
    client.request(1, 9)
    settle(cluster, 400)
    deploy.close()
    totals = deploy.counter_totals()
    assert len(client.replies) == 2
    assert totals["origin_fetches"] == 1
    assert totals["coalesced"] == 1


def test_write_through_updates_origin_synchronously():
    cluster = ring()
    deploy = CacheDeployment(cluster, origin=0, caches=(1,),
                             policy="read_through", capacity=4)
    client = Client(cluster, 2)
    client.write(1, 7, b"x" * 24)
    settle(cluster, 200)
    assert [r.op for r in client.replies] == [OP_WRITE_ACK]
    assert deploy.origin.body_of(7) == b"x" * 24
    assert deploy.counter_totals()["write_through"] == 1
    # A read through the *origin* now sees the written body.
    client.request(0, 7)
    settle(cluster, 200)
    deploy.close()
    assert client.replies[-1].body == b"x" * 24


def test_write_behind_acks_fast_and_flushes_lazily():
    cluster = ring()
    tour = cluster.tour_estimate_ns
    deploy = CacheDeployment(cluster, origin=0, caches=(1,),
                             policy="write_behind", capacity=8,
                             flush_interval_ns=80 * tour, flush_batch=2)
    cache = deploy.caches[0]
    client = Client(cluster, 2)
    for cid in (1, 2, 3):
        client.write(1, cid, bytes([cid]) * 20)
    settle(cluster, 40)
    # Acked from the cache before any flush reached the origin.
    assert [r.op for r in client.replies] == [OP_WRITE_ACK] * 3
    assert deploy.origin.counters.get("origin_writes", 0) == 0
    assert cache.dirty_count == 3
    settle(cluster, 400)
    deploy.close()
    totals = deploy.counter_totals()
    assert totals["flushed"] == 3
    assert totals["dirty_resident"] == 0
    # Bounded batches: 3 dirty ids at flush_batch=2 is two timer fires.
    assert totals["flush_batches"] == 2
    assert deploy.origin.body_of(2) == bytes([2]) * 20


def test_lfu_eviction_keeps_the_frequently_hit_entry():
    cluster = ring()
    deploy = CacheDeployment(cluster, origin=0, caches=(1,),
                             policy="read_through", capacity=2,
                             eviction="lfu")
    cache = deploy.caches[0]
    client = Client(cluster, 2)
    for cid in (1, 1, 1, 2):  # id 1 becomes the hot entry
        client.request(1, cid)
        settle(cluster, 80)
    client.request(1, 3)  # overflows capacity 2: LFU evicts id 2
    settle(cluster, 200)
    deploy.close()
    assert 1 in cache.store
    assert 3 in cache.store
    assert 2 not in cache.store


# --------------------------------------------------------- on-path cache
def test_onpath_router_cache_answers_repeat_crossings_locally():
    cluster = routed(cache=CacheConfig(enabled=True, capacity=8))
    deploy = CacheDeployment(cluster, origin=(0, 1))
    client = Client(cluster, (1, 2))
    for _ in range(3):
        client.request((0, 1), 4)
        settle(cluster, 200)
    deploy.close()
    router = cluster.routers[0]
    assert [r.op for r in client.replies] == [OP_RESPONSE] * 3
    assert all(r.body == origin_body(4, 40) for r in client.replies)
    # First crossing missed and was ferried to the origin; the response
    # ferried back was remembered; the repeats never left the router.
    assert router.counters["cache_misses"] == 1
    assert router.counters["cache_hits"] == 2
    assert router.counters["cache_stored"] == 1
    assert deploy.origin.counters["origin_requests"] == 1


def test_onpath_write_refreshes_but_never_inserts():
    cluster = routed(cache=CacheConfig(enabled=True, capacity=8))
    deploy = CacheDeployment(cluster, origin=(0, 1))
    router = cluster.routers[0]
    client = Client(cluster, (1, 2))
    # A WRITE crossing for an uncached id must not populate the store.
    client.write((0, 1), 6, b"v1" * 10)
    settle(cluster, 300)
    assert 6 not in router.cache.store
    # Cache it via a read, then a WRITE refreshes the cached body.
    client.request((0, 1), 6)
    settle(cluster, 300)
    assert router.cache.store.get(6) == b"v1" * 10
    client.write((0, 1), 6, b"v2" * 10)
    settle(cluster, 300)
    deploy.close()
    assert router.cache.store.get(6) == b"v2" * 10
    assert router.counters["cache_write_refreshes"] == 1


# ------------------------------------------------- default-off contracts
def test_cache_off_is_wire_identical_to_no_cache_config():
    """``CacheConfig()`` (enabled=False) must be timeline-identical to
    passing no config at all — the tap does not exist until switched
    on, the same strict-no-op contract the resilience suite holds."""

    def run(cache):
        cluster = routed(n_nodes=4, cache=cache)
        got = []
        cluster.nodes[(1, 2)].messenger.on_message(
            CH, lambda src, data, ch: got.append(data)
        )
        for i in range(3):
            cluster.nodes[(0, 1)].messenger.send((1, 2), bytes([i]), CH)
        settle(cluster, 600)
        assert len(got) == 3
        return trace_digest(cluster.tracer)

    assert run(None) == run(CacheConfig())


def _composed_cache_chaos_spec() -> ScenarioSpec:
    # Service cache + on-path cache + a mid-run link flap on the origin
    # segment, all in one storyline: the determinism contract must hold
    # through the composition, not just each feature alone.
    return ScenarioSpec(
        name="composed_cache_chaos",
        topology=TopologySpec(
            segments=(SegmentSpec(n_nodes=6), SegmentSpec(n_nodes=6)),
            routers=(RouterConfig(segments=(0, 1),
                                cache={"enabled": True, "capacity": 8}),),
        ),
        seed=7,
        cache=CacheSpec(origin=(0, 1), caches=((1, 3),),
                        policy="read_through", capacity=4),
        workloads=(
            WorkloadSpec("zipf", count=20, src=(1, 2), dst=(1, 3),
                         channel=CH, reliable=True,
                         params={"interval_ns": 40_000, "alpha": 1.0,
                                 "catalog_size": 10}),
            WorkloadSpec("zipf", count=15, src=(0, 2), dst=(0, 1),
                         channel=CH, reliable=True,
                         params={"interval_ns": 50_000, "alpha": 1.0,
                                 "catalog_size": 10}),
        ),
        faults=(
            FaultSpec("cut_link", at_tours=120, segment=0, node=2,
                      switch=0),
            FaultSpec("restore_link", at_tours=220, segment=0, node=2,
                      switch=0),
        ),
        invariants=("all_delivered", "roster_converged"),
        horizon_tours=600,
    )


def test_composed_cache_chaos_same_seed_is_deterministic():
    first = run_scenario(_composed_cache_chaos_spec())
    second = run_scenario(_composed_cache_chaos_spec())
    assert first.ok, [f"{i.name}: {i.detail}" for i in first.failures()]
    assert first.trace_digest == second.trace_digest
    assert first.counters == second.counters
    # The segment-1 cache served local demand; crossings hit the origin.
    assert first.counters["cache_hits"] > 0
    assert first.counters["cache_origin_requests"] > 0


def test_cache_counters_fold_under_prefix():
    result = run_scenario(_composed_cache_chaos_spec())
    c = result.counters
    for key in ("cache_hits", "cache_misses", "cache_origin_requests",
                "cache_responses", "cache_fills"):
        assert key in c, f"missing folded counter {key}"
    # Segment-cache ledger: every request the cache answered was either
    # a hit or the completion of a (possibly coalesced) origin fetch.
    assert c["cache_responses"] == c["cache_hits"] + c["cache_misses"]
    assert c["cache_misses"] == (
        c["cache_origin_fetches"] + c.get("cache_coalesced", 0)
    )
