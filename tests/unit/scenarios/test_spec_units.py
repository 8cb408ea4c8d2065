"""Unit tests for the declarative scenario spec layer."""

import pytest

from repro.faults import FaultKind
from repro.scenarios import (
    FaultSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    get_scenario,
    run_scenario,
    scenario_names,
)


# ------------------------------------------------------------ WorkloadSpec
def test_unknown_workload_kind_rejected():
    with pytest.raises(ValueError, match="unknown workload kind"):
        WorkloadSpec("tsunami", count=1, src=0, dst=1)


def test_unicast_workload_requires_endpoints():
    with pytest.raises(ValueError, match="needs src and dst"):
        WorkloadSpec("poisson", count=10)


def test_broadcast_workload_needs_no_endpoints():
    WorkloadSpec("broadcast", count=4)


def test_zero_count_rejected():
    with pytest.raises(ValueError, match="count must be"):
        WorkloadSpec("message", count=0, src=0, dst=1)


STREAM = {"count": 1, "src": 0, "dst": 1}
RING_4 = TopologySpec(n_nodes=4)
#: two 4-user-node rings; each ring's node 4 is the router's gateway
PAIR_2X4 = TopologySpec(
    segments=[{"n_nodes": 4}, {"n_nodes": 4}], routers=[{"segments": (0, 1)}]
)
CROSSING = {"count": 1, "src": (0, 0), "dst": (1, 1), "reliable": True}


@pytest.mark.parametrize("kind, fields, offending", [
    # a param the kind requires is missing
    ("poisson", STREAM, "mean_interval_ns"),
    ("inhomogeneous_poisson",
     {**STREAM, "params": {"peak_interval_ns": 5}}, "profile"),
    ("inhomogeneous_poisson",
     {**STREAM, "params": {"profile": {"shape": "ramp"}}}, "peak_interval_ns"),
    ("burst", {**STREAM, "params": {"burst_mean": 2, "intra_gap_ns": 1}},
     "off_mean_ns"),
    ("zipf", {**STREAM, "reliable": True}, "interval_ns"),
    ("burst", {**STREAM, "params": {"intra_gap_ns": 1, "off_mean_ns": 1}},
     "burst_mean"),
    # a param the kind does not accept: typos ...
    ("message", {**STREAM, "params": {"intervall_ns": 5}}, "intervall_ns"),
    # ... and the runner-resolved knobs on kinds that cannot honour them
    ("file", {**STREAM, "params": {"start_tours": 5}}, "start_tours"),
    ("broadcast", {"count": 1, "params": {"start_tours": 5}}, "start_tours"),
    ("zipf", {**STREAM, "reliable": True,
              "params": {"interval_ns": 5, "start_tours": 5}}, "start_tours"),
    ("zipf", {**STREAM, "reliable": True,
              "params": {"interval_ns": 5, "pareto_sizes": {}}},
     "pareto_sizes"),
    ("file", {**STREAM, "params": {"pareto_sizes": {}}}, "pareto_sizes"),
    ("broadcast", {"count": 1, "params": {"pareto_sizes": {}}},
     "pareto_sizes"),
    ("cluster_broadcast",
     {"count": 1, "src": (0, 1), "params": {"pareto_sizes": {}}},
     "pareto_sizes"),
    # an address outside the ring's (or the segment's) user nodes: used
    # to die mid-run as a bare ``KeyError: 9``, or — naming a gateway —
    # as ``message channel 0 already claimed``
    ("message", {**STREAM, "dst": 9, "topology": RING_4}, "dst=9"),
    ("poisson", {**STREAM, "src": 4, "topology": RING_4,
                 "params": {"mean_interval_ns": 5}}, "src=4"),
    ("message", {**STREAM, "dst": 0xFF, "reliable": True,
                 "topology": RING_4}, "dst=255"),
    ("message", {**CROSSING, "dst": (1, 4), "topology": PAIR_2X4},
     r"dst=\(1, 4\)"),
    ("file", {**CROSSING, "reliable": False, "src": (0, 7),
              "topology": PAIR_2X4}, r"src=\(0, 7\)"),
    ("message", {"count": 1, "src": (0, 0), "reliable": True, "name": "m",
                 "params": {"dst_pool": [(1, 1), (1, 4)]},
                 "topology": PAIR_2X4}, r"dst_pool entry=\(1, 4\)"),
    # a messenger-carried stream on a channel the node stack listens on:
    # used to die mid-run as ``message channel N already claimed``
    ("message", {**STREAM, "reliable": True, "channel": 1,
                 "topology": RING_4}, "channel 1.*cache replication"),
    ("poisson", {**STREAM, "reliable": True, "channel": 2,
                 "params": {"mean_interval_ns": 5}, "topology": RING_4},
     "channel 2.*cache refresh"),
    ("file", {**STREAM, "channel": 2, "topology": RING_4},
     "channel 2.*cache refresh"),
    ("message", {**STREAM, "reliable": True, "channel": 10, "name": "m",
                 "topology": RING_4, "scenario": {"membership": True}},
     "'m'.*channel 10.*gossip membership"),
    ("cluster_broadcast", {"count": 1, "src": (0, 1), "channel": 11,
                           "topology": PAIR_2X4},
     "channel 11.*router advertisements"),
])
def test_workload_params_checked_against_kind(kind, fields, offending):
    """Specs that could not run used to be accepted and die inside the
    runner (``KeyError: 'mean_interval_ns'``, an unexpected-keyword
    ``TypeError``) after the ring had been brought up."""
    fields = dict(fields)
    topology = fields.pop("topology", None)
    scenario = fields.pop("scenario", {})
    with pytest.raises(ValueError, match=f"{kind}.*{offending}"):
        workload = WorkloadSpec(kind, **fields)
        # address and channel rows: the workload is sound, the scenario
        # it joins lacks the node or has given the channel away
        assert topology is not None
        ScenarioSpec(name="t", topology=topology, workloads=(workload,),
                     **scenario)


def test_broadcast_address_stays_legal_for_raw_streams():
    ScenarioSpec(name="t", topology=RING_4, workloads=(
        WorkloadSpec("message", count=1, src=0, dst=0xFF),))


def test_stack_channels_stay_legal_where_nothing_listens():
    """Raw MAC streams claim no message channel, and channel 10 is the
    gossip layer's only when the scenario runs it."""
    ScenarioSpec(name="t", topology=RING_4, workloads=(
        WorkloadSpec("message", channel=1, **STREAM),
        WorkloadSpec("message", channel=10, reliable=True, **STREAM),
    ))


def test_reliable_stream_on_its_default_channel_is_delivered():
    """Channel 0 was AmpIP's on every node while the cluster built the
    application layer: the default ``WorkloadSpec`` channel died mid-run
    with ``message channel 0 already claimed``."""
    result = run_scenario(ScenarioSpec(
        name="t", topology=RING_4, horizon_tours=60,
        workloads=(WorkloadSpec("message", reliable=True, **STREAM),),
        invariants=("all_delivered",),
    ))
    assert result.ok, result.failures()


def test_every_library_scenario_still_constructs():
    assert len([get_scenario(name) for name in scenario_names()]) == 25


# --------------------------------------------------------------- FaultSpec
def test_unknown_fault_kind_rejected():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultSpec("meteor_strike", at_tours=1)


@pytest.mark.parametrize("kind, targets, missing", [
    ("crash_node", {}, "node"),
    ("recover_node", {}, "node"),
    ("flap_node", {}, "node"),
    ("cut_link", {"node": 1}, "switch"),
    ("restore_link", {"switch": 0}, "node"),
    ("fail_switch", {"node": 1}, "switch"),
    ("partition", {}, "nodes"),
    ("heal_partition", {"nodes": (0, 1)}, "switches"),
    ("crash_router", {"node": 1}, "router"),
])
def test_fault_missing_a_target_rejected(kind, targets, missing):
    """Used to be accepted by ``ScenarioSpec`` and fail (``crash_node
    needs a target id``) only once the ring was up and the schedule
    armed."""
    with pytest.raises(ValueError, match=f"{kind} needs a {missing}"):
        FaultSpec(kind, 5.0, **targets)


def test_fault_tours_resolve_against_origin_and_tour():
    spec = ScenarioSpec(
        name="t",
        faults=(
            FaultSpec("crash_node", at_tours=10, node=2),
            FaultSpec("cut_link", at_tours=5.5, node=1, switch=0),
        ),
    )
    ((segment, sched),) = spec.fault_schedules(origin_ns=1_000, tour_ns=100)
    assert segment is None  # a single ring's storyline arms on the cluster
    by_kind = {a.kind: a for a in sched.actions}
    assert by_kind[FaultKind.CRASH_NODE].at_ns == 1_000 + 10 * 100
    assert by_kind[FaultKind.CUT_LINK].at_ns == 1_000 + 550


def test_flap_fault_expands_to_crash_recover_train():
    spec = ScenarioSpec(
        name="t",
        faults=(FaultSpec("flap_node", at_tours=1, node=3, flaps=2,
                          down_tours=2, up_tours=3),),
    )
    ((_, sched),) = spec.fault_schedules(origin_ns=0, tour_ns=1_000)
    kinds = [a.kind for a in sorted(sched.actions, key=lambda a: a.at_ns)]
    assert kinds == [
        FaultKind.CRASH_NODE, FaultKind.RECOVER_NODE,
        FaultKind.CRASH_NODE, FaultKind.RECOVER_NODE,
    ]


# ------------------------------------------------------------ ScenarioSpec
def test_unknown_invariant_rejected():
    with pytest.raises(ValueError, match="unknown invariant"):
        ScenarioSpec(name="t", invariants=("always_sunny",))


def test_every_invariant_name_has_a_judge():
    """``INVARIANT_NAMES`` is the one spelling; the runner finds each
    name's judge by it."""
    from repro.scenarios import ScenarioRunner
    from repro.scenarios.spec import INVARIANT_NAMES

    for name in INVARIANT_NAMES:
        assert callable(getattr(ScenarioRunner, f"_check_{name}"))


def test_membership_invariant_requires_membership():
    with pytest.raises(ValueError, match="requires membership"):
        ScenarioSpec(
            name="t", invariants=("membership_view_consistent",)
        )


def test_partition_requires_two_switches():
    with pytest.raises(ValueError, match=">= 2 switches"):
        ScenarioSpec(
            name="t",
            topology=TopologySpec(n_nodes=4, n_switches=1),
            faults=(FaultSpec("partition", at_tours=1, nodes=(0, 1),
                              switches=(0,)),),
        )


def test_with_seed_returns_reseeded_copy():
    spec = ScenarioSpec(name="t", seed=1)
    other = spec.with_seed(42)
    assert other.seed == 42 and spec.seed == 1
    assert other.name == spec.name


def test_to_dict_is_json_shaped():
    import json

    spec = ScenarioSpec(
        name="t",
        workloads=(
            WorkloadSpec("poisson", count=3, src=0, dst=1,
                         params={"mean_interval_ns": 100}),
        ),
        faults=(FaultSpec("crash_node", at_tours=1, node=0),),
    )
    encoded = json.dumps(spec.to_dict())
    assert '"poisson"' in encoded and '"crash_node"' in encoded


def test_broadcast_rejects_silently_ignorable_fields():
    with pytest.raises(ValueError, match="no src/dst"):
        WorkloadSpec("broadcast", count=4, src=0, dst=1)
    with pytest.raises(ValueError, match="cannot be reliable"):
        WorkloadSpec("broadcast", count=4, reliable=True)
    with pytest.raises(ValueError, match="broadcast.*'interval_ns'"):
        WorkloadSpec("broadcast", count=4, params={"interval_ns": 5})
