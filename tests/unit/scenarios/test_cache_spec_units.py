"""Unit tests for the declarative cache layer of the scenario spec:
:class:`CacheSpec` validation, the router-level ``cache`` knob, and the
round-trip/omission contract of ``to_dict`` (committed bench emissions
must not grow ``cache: null`` keys)."""

import pytest

from repro.caching import CacheConfig
from repro.routing import RouterConfig
from repro.scenarios import (
    CacheSpec,
    ScenarioSpec,
    SegmentSpec,
    TopologySpec,
    WorkloadSpec,
)


def routed_topology():
    return TopologySpec(
        segments=(SegmentSpec(n_nodes=6), SegmentSpec(n_nodes=6)),
        routers=(RouterConfig(segments=(0, 1)),),
    )


# ------------------------------------------------------------- CacheSpec
def test_cache_spec_rejects_bad_knobs():
    with pytest.raises(ValueError, match="unknown cache policy"):
        CacheSpec(origin=0, policy="write_around")
    with pytest.raises(ValueError, match="unknown eviction policy"):
        CacheSpec(origin=0, eviction="mru")
    with pytest.raises(ValueError, match="capacity"):
        CacheSpec(origin=0, capacity=0)
    with pytest.raises(ValueError, match="content_bytes"):
        CacheSpec(origin=0, content_bytes=0)
    with pytest.raises(ValueError, match="channel"):
        CacheSpec(origin=0, channel=16)
    with pytest.raises(ValueError, match="flush"):
        CacheSpec(origin=0, flush_interval_tours=0)
    with pytest.raises(ValueError, match="origin node cannot also"):
        CacheSpec(origin=3, caches=(1, 3))


def test_cache_spec_coerces_list_addresses():
    spec = CacheSpec(origin=[0, 1], caches=([1, 3],))
    assert spec.origin == (0, 1)
    assert spec.caches == ((1, 3),)


def test_scenario_enforces_cache_address_form():
    with pytest.raises(ValueError, match=r"\(segment, node\)"):
        ScenarioSpec(name="t", topology=routed_topology(),
                     cache=CacheSpec(origin=0))
    with pytest.raises(ValueError, match="plain node ids"):
        ScenarioSpec(name="t", topology=TopologySpec(n_nodes=6),
                     cache=CacheSpec(origin=(0, 1)))
    with pytest.raises(ValueError, match="names segment 5"):
        ScenarioSpec(name="t", topology=routed_topology(),
                     cache=CacheSpec(origin=(5, 1)))
    # ... and a node id the ring does not have
    with pytest.raises(ValueError, match="cache origin=8 names node 8"):
        ScenarioSpec(name="t", topology=TopologySpec(n_nodes=6),
                     cache=CacheSpec(origin=8))
    with pytest.raises(ValueError, match="cache node=6 names node 6"):
        ScenarioSpec(name="t", topology=TopologySpec(n_nodes=6),
                     cache=CacheSpec(origin=0, caches=(1, 6)))


def test_scenario_keeps_the_cache_service_off_the_stack_channels():
    """The origin and cache services listen on ``CacheSpec.channel``: on
    a channel the node stack owns that was ``message channel 1 already
    claimed`` once the ring was up."""
    with pytest.raises(ValueError, match="cache channel 1.*cache replication"):
        ScenarioSpec(name="t", topology=TopologySpec(n_nodes=6),
                     cache=CacheSpec(origin=0, channel=1))


def test_content_workloads_require_a_cache_spec():
    workload = WorkloadSpec("zipf", count=5, src=1, dst=0, reliable=True,
                            params={"interval_ns": 1_000})
    with pytest.raises(ValueError, match="declare a CacheSpec"):
        ScenarioSpec(name="t", topology=TopologySpec(n_nodes=6),
                     workloads=(workload,))
    # and they must be messenger-carried
    with pytest.raises(ValueError, match="reliable=True"):
        WorkloadSpec("zipf", count=1, src=1, dst=0,
                     params={"interval_ns": 1_000})


def test_cache_spec_accepts_a_plain_dict():
    spec = ScenarioSpec(
        name="t", topology=TopologySpec(n_nodes=6),
        cache={"origin": 0, "caches": [1], "capacity": 8},
    )
    assert isinstance(spec.cache, CacheSpec)
    assert spec.cache.caches == (1,)


# ----------------------------------------------------- router cache knob
def test_router_spec_coerces_cache_dict():
    router = RouterConfig(segments=(0, 1), cache={"enabled": True,
                                                "capacity": 32})
    assert isinstance(router.cache, CacheConfig)
    assert router.cache.enabled and router.cache.capacity == 32


# ----------------------------------------------------- to_dict omission
def test_to_dict_omits_cache_keys_when_unset():
    """Pre-caching emissions must stay byte-identical: a spec that never
    mentions caching serialises without any cache keys at all."""
    spec = ScenarioSpec(
        name="t", topology=routed_topology(),
        workloads=(WorkloadSpec("message", count=1, src=(0, 1), dst=(1, 1),
                                reliable=True,
                                params={"interval_ns": 1_000}),),
    )
    out = spec.to_dict()
    assert "cache" not in out
    assert all("cache" not in r for r in out["topology"]["routers"])


def test_to_dict_serialises_both_cache_layers():
    spec = ScenarioSpec(
        name="t",
        topology=TopologySpec(
            segments=(SegmentSpec(n_nodes=6), SegmentSpec(n_nodes=6)),
            routers=(RouterConfig(segments=(0, 1),
                                cache={"enabled": True, "capacity": 16}),),
        ),
        cache=CacheSpec(origin=(0, 1), caches=((1, 3),), capacity=8),
        workloads=(WorkloadSpec("zipf", count=5, src=(1, 2), dst=(1, 3),
                                reliable=True,
                                params={"interval_ns": 1_000}),),
    )
    out = spec.to_dict()
    assert out["cache"]["origin"] == (0, 1)
    assert out["cache"]["capacity"] == 8
    router = out["topology"]["routers"][0]
    assert router["cache"]["enabled"] is True
    assert router["cache"]["capacity"] == 16
