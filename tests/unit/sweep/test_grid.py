"""Unit tests for sweep grid expansion and the with_size axis."""

import pytest

from repro.micropacket import BROADCAST
from repro.routing import RouterConfig
from repro.scenarios import (
    FaultSpec,
    ScenarioSpec,
    SegmentSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.sweep import SweepGrid, grid_from_names


def tiny_spec(name="s"):
    return ScenarioSpec(
        name=name,
        topology=TopologySpec(n_nodes=4, n_switches=2),
        invariants=("roster_converged",),
    )


# ----------------------------------------------------------- grid expansion

def test_cells_expand_scenario_major_then_seed_then_replicate():
    grid = SweepGrid(specs=(tiny_spec("a"), tiny_spec("b")),
                     seeds=(7, 11), replicates=2)
    cells = grid.cells()
    assert [c.index for c in cells] == list(range(8))
    assert [(c.spec.name.rsplit("_", 0)[0], c.seed, c.replicate)
            for c in cells] == [
        ("a", 7, 0), ("a", 7, 1), ("a", 11, 0), ("a", 11, 1),
        ("b", 7, 0), ("b", 7, 1), ("b", 11, 0), ("b", 11, 1),
    ]
    # with_seed is applied at expansion: the spec a worker receives
    # already carries the cell's seed.
    assert all(c.spec.seed == c.seed for c in cells)


def test_grid_rejects_duplicate_seeds():
    with pytest.raises(ValueError, match="replicates"):
        SweepGrid(specs=(tiny_spec(),), seeds=(3, 3))


def test_grid_rejects_duplicate_scenario_names():
    with pytest.raises(ValueError, match="duplicate scenario names"):
        SweepGrid(specs=(tiny_spec("x"), tiny_spec("x")), seeds=(1,))


def test_grid_rejects_empty_axes_and_bad_replicates():
    with pytest.raises(ValueError, match="scenario"):
        SweepGrid(specs=(), seeds=(1,))
    with pytest.raises(ValueError, match="seed"):
        SweepGrid(specs=(tiny_spec(),), seeds=())
    with pytest.raises(ValueError, match="replicates"):
        SweepGrid(specs=(tiny_spec(),), seeds=(1,), replicates=0)


def test_grid_from_names_applies_size_axis():
    grid = grid_from_names(["quiet_ring"], seeds=[1, 2], sizes=[8, 16])
    assert grid.scenario_names == ["quiet_ring_n8", "quiet_ring_n16"]
    assert [c.spec.topology.n_nodes for c in grid.cells()] == [8, 8, 16, 16]


def test_grid_from_names_rejects_unknown_scenario():
    with pytest.raises(KeyError):
        grid_from_names(["no_such_scenario"], seeds=[1])


# ----------------------------------------------------------- with_size

def test_with_size_renames_and_resizes():
    spec = tiny_spec().with_size(9)
    assert spec.name == "s_n9"
    assert spec.topology.n_nodes == 9
    # Everything but the topology is untouched.
    assert spec.invariants == ("roster_converged",)


def test_with_size_rejects_degenerate_rings():
    with pytest.raises(ValueError, match="n_nodes=1"):
        tiny_spec().with_size(1)


def test_with_size_rejects_out_of_range_node_references():
    spec = ScenarioSpec(
        name="s",
        topology=TopologySpec(n_nodes=8, n_switches=2),
        workloads=(WorkloadSpec("message", count=1, src=0, dst=5,
                                params={"interval_ns": 1000}),),
        faults=(FaultSpec("crash_node", at_tours=10.0, node=6),),
        expect_dead=(6,),
        invariants=("roster_converged",),
    )
    with pytest.raises(ValueError, match=r"\[5, 6\]"):
        spec.with_size(4)
    assert spec.with_size(7).topology.n_nodes == 7


def test_with_size_ignores_broadcast_destination():
    spec = ScenarioSpec(
        name="s",
        topology=TopologySpec(n_nodes=8, n_switches=2),
        workloads=(WorkloadSpec("message", count=1, src=0, dst=BROADCAST,
                                params={"interval_ns": 1000}),),
        invariants=("roster_converged",),
    )
    # BROADCAST (0xFF) is an address-space constant, not a node id.
    assert spec.with_size(4).topology.n_nodes == 4


def test_with_size_rejects_multi_segment_topologies():
    spec = ScenarioSpec(
        name="routed",
        topology=TopologySpec(
            segments=(SegmentSpec(n_nodes=3), SegmentSpec(n_nodes=3)),
            routers=(RouterConfig(segments=(0, 1)),),
        ),
        invariants=("roster_converged",),
    )
    with pytest.raises(ValueError, match="single-segment"):
        spec.with_size(6)
