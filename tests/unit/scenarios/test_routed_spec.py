"""Unit tests for the multi-segment scenario spec shape."""

import pytest

from repro.cluster import AmpNetCluster
from repro.routing import RouterConfig
from repro.scenarios import (
    FaultSpec,
    ScenarioSpec,
    SegmentSpec,
    TopologySpec,
    WorkloadSpec,
)


def topo(n_segments=2, n_nodes=4, n_switches=2):
    return TopologySpec(
        segments=tuple(
            SegmentSpec(n_nodes=n_nodes, n_switches=n_switches)
            for _ in range(n_segments)
        ),
        routers=(RouterConfig(segments=tuple(range(n_segments))),),
    )


def reliable(src, dst, channel=13, count=5):
    return WorkloadSpec("message", count=count, src=src, dst=dst,
                        channel=channel, reliable=True,
                        params={"interval_ns": 10_000})


# ---------------------------------------------------------- TopologySpec
def test_single_segment_form_unchanged():
    t = TopologySpec(n_nodes=6, n_switches=4)
    assert not t.multi_segment
    assert t.n_nodes == 6 and not t.segments


def test_multi_segment_counts_user_nodes():
    t = topo(4, 128)
    assert t.multi_segment
    assert sum(seg.n_nodes for seg in t.segments) == 512


def test_routers_need_segments():
    with pytest.raises(ValueError, match="need a segments list"):
        TopologySpec(routers=(RouterConfig(segments=(0, 1)),))


def test_router_segment_references_validated():
    with pytest.raises(ValueError, match="references segment"):
        TopologySpec(
            segments=(SegmentSpec(n_nodes=4),),
            routers=(RouterConfig(segments=(0, 3)),),
        )


_PAIR = [{"n_nodes": 4}, {"n_nodes": 4}]

#: Shapes that cannot run, and the field the error names.  Each used to
#: construct and only fail inside ``build_cluster`` — or, past 255
#: members, build and die mid ring-up on a bare ``source id 255 out of
#: range``.  Routers come in their dict (JSON round-trip) form so the
#: row exercises the spec's own coercion into ``RouterConfig``.
REJECTED_SHAPES = {
    "17_segments": (
        TopologySpec, dict(segments=[{"n_nodes": 4}] * 17), "segments: 17"),
    "255_users_and_a_gateway": (
        TopologySpec,
        dict(segments=[{"n_nodes": 255}, {"n_nodes": 4}],
             routers=[{"segments": (0, 1)}]),
        "segment 0: n_nodes=255 user nodes plus 1 gateway"),
    "no_nodes": (TopologySpec, dict(n_nodes=0), "n_nodes=0"),
    "one_node": (TopologySpec, dict(n_nodes=1), "n_nodes=1"),
    "300_nodes": (TopologySpec, dict(n_nodes=300), "n_nodes=300"),
    "no_switches": (TopologySpec, dict(n_switches=0), "n_switches=0"),
    "negative_fibre": (TopologySpec, dict(fiber_m=-1), "fiber_m=-1"),
    "router_on_one_segment": (
        TopologySpec, dict(segments=_PAIR, routers=[{"segments": (0,)}]),
        "at least two segments"),
    "router_twice_on_a_segment": (
        TopologySpec, dict(segments=_PAIR, routers=[{"segments": (0, 0)}]),
        "twice to one segment"),
    "no_egress_capacity": (
        TopologySpec,
        dict(segments=_PAIR,
             routers=[{"segments": (0, 1), "egress_capacity": 0}]),
        "egress capacity"),
    "256_node_cluster": (AmpNetCluster, dict(n_nodes=256), "n_nodes=256"),
}


@pytest.mark.parametrize("shape", sorted(REJECTED_SHAPES))
def test_a_shape_that_cannot_run_does_not_construct(shape):
    declare, fields, named = REJECTED_SHAPES[shape]
    with pytest.raises(ValueError, match=named):
        declare(**fields)


def test_dict_round_trip_normalizes_to_dataclasses():
    t = TopologySpec(
        segments=[{"n_nodes": 8}, {"n_nodes": 8, "n_switches": 4}],
        routers=[{"segments": [0, 1]}],
    )
    assert t.segments[0] == SegmentSpec(n_nodes=8)
    assert t.segments[1].n_switches == 4
    assert t.routers[0].segments == (0, 1)


# ---------------------------------------------------------- WorkloadSpec
def test_global_addresses_normalize_from_lists():
    w = WorkloadSpec("message", count=1, src=[0, 1], dst=[1, 2],
                     reliable=True)
    assert w.src == (0, 1) and w.dst == (1, 2)


def test_malformed_global_address_rejected():
    with pytest.raises(ValueError, match="segment, node"):
        WorkloadSpec("message", count=1, src=(0, 1, 2), dst=3)


# ---------------------------------------------------------- ScenarioSpec
def test_multi_segment_workloads_must_use_global_addresses():
    with pytest.raises(ValueError, match="address nodes as"):
        ScenarioSpec(name="x", topology=topo(),
                     workloads=(reliable(src=0, dst=(1, 1)),))


def test_multi_segment_workloads_must_be_reliable():
    with pytest.raises(ValueError, match="reliable=True"):
        ScenarioSpec(
            name="x", topology=topo(),
            workloads=(WorkloadSpec("message", count=1, src=(0, 1),
                                    dst=(1, 1), params={"interval_ns": 1}),),
        )


def test_multi_segment_rejects_broadcast_workloads():
    with pytest.raises(ValueError, match="per-ring"):
        ScenarioSpec(
            name="x", topology=topo(),
            workloads=(WorkloadSpec("broadcast", count=2),),
        )


def test_single_segment_rejects_global_addresses():
    with pytest.raises(ValueError, match="plain node ids"):
        ScenarioSpec(
            name="x", topology=TopologySpec(n_nodes=4, n_switches=2),
            workloads=(reliable(src=(0, 1), dst=(0, 2)),),
        )


def test_workload_segment_reference_validated():
    with pytest.raises(ValueError, match="names segment"):
        ScenarioSpec(name="x", topology=topo(),
                     workloads=(reliable(src=(0, 1), dst=(7, 1)),))


def test_fault_segment_reference_validated():
    with pytest.raises(ValueError, match="targets segment"):
        ScenarioSpec(
            name="x", topology=topo(),
            faults=(FaultSpec("crash_node", at_tours=10, node=1, segment=9),),
        )


def test_partition_check_uses_target_segment_switches():
    single_switch = TopologySpec(
        segments=(SegmentSpec(n_nodes=4, n_switches=2),
                  SegmentSpec(n_nodes=4, n_switches=1)),
        routers=(RouterConfig(segments=(0, 1)),),
    )
    with pytest.raises(ValueError, match=">= 2 switches"):
        ScenarioSpec(
            name="x", topology=single_switch,
            faults=(FaultSpec("partition", at_tours=10, segment=1,
                              nodes=(0, 1), switches=(0,)),),
        )
    # The same fault against the two-switch segment is fine.
    ScenarioSpec(
        name="x", topology=single_switch,
        faults=(FaultSpec("partition", at_tours=10, segment=0,
                          nodes=(0, 1), switches=(0,)),),
    )


def test_fault_schedules_group_by_segment():
    spec = ScenarioSpec(
        name="x", topology=topo(),
        faults=(
            FaultSpec("crash_node", at_tours=10, node=1, segment=0),
            FaultSpec("recover_node", at_tours=20, node=1, segment=0),
            FaultSpec("cut_link", at_tours=30, node=2, switch=0, segment=1),
        ),
    )
    schedules = dict(spec.fault_schedules(origin_ns=1000, tour_ns=100))
    assert list(schedules) == [0, 1]
    assert len(schedules[0].actions) == 2
    assert len(schedules[1].actions) == 1
    assert schedules[1].actions[0].at_ns == 1000 + 3000


def test_expect_dead_normalizes_global_addresses():
    spec = ScenarioSpec(
        name="x", topology=topo(),
        expect_dead=([0, 3],),
        invariants=("roster_converged",),
    )
    assert spec.expect_dead == ((0, 3),)


def test_to_dict_serializes_multi_segment_shape():
    spec = ScenarioSpec(
        name="x", topology=topo(), workloads=(reliable((0, 1), (1, 2)),)
    )
    d = spec.to_dict()
    assert d["topology"]["segments"][0]["n_nodes"] == 4
    assert d["topology"]["routers"][0]["segments"] == (0, 1)
    assert d["workloads"][0]["src"] == (0, 1)


# ------------------------------------------------------- router faults
def test_router_fault_requires_router_index():
    with pytest.raises(ValueError, match="router index"):
        FaultSpec("crash_router", at_tours=10)


def test_router_fault_rejected_on_single_segment_topology():
    with pytest.raises(ValueError, match="multi-segment"):
        ScenarioSpec(
            name="x", topology=TopologySpec(n_nodes=4, n_switches=2),
            faults=(FaultSpec("crash_router", at_tours=10, router=0),),
        )


def test_router_fault_index_validated():
    with pytest.raises(ValueError, match="targets router 5"):
        ScenarioSpec(
            name="x", topology=topo(),
            faults=(FaultSpec("crash_router", at_tours=10, router=5),),
        )


def test_router_faults_build_their_own_schedule():
    spec = ScenarioSpec(
        name="x", topology=topo(),
        faults=(
            FaultSpec("crash_node", at_tours=10, node=1, segment=0),
            FaultSpec("crash_router", at_tours=20, router=0),
            FaultSpec("recover_router", at_tours=40, router=0),
        ),
    )
    pairs = spec.fault_schedules(origin_ns=0, tour_ns=100)
    # Segments first, then the routers: the cluster-wide schedule arms last.
    assert [segment for segment, _ in pairs] == [0, None]
    (_, on_segment), (_, router_sched) = pairs
    assert len(on_segment.actions) == 1
    assert [a.kind.value for a in router_sched.actions] == [
        "crash_router", "recover_router",
    ]
    assert router_sched.actions[0].at_ns == 2000


def test_router_priority_validated():
    with pytest.raises(ValueError, match="priority"):
        TopologySpec(segments=_PAIR,
                     routers=[{"segments": (0, 1), "priority": 999}])
