"""The workload and fault vocabularies cannot drift from the code they
name: every ``WORKLOAD_KINDS`` row matches its class's constructor and
builds and completes through the runner; every ``FaultKind`` applies
through ``FaultSchedule.arm`` to a cluster method of the same name."""

import inspect

import pytest

from repro.faults import FaultKind, FaultSchedule
from repro.routing import RouterConfig
from repro.scenarios import (
    CacheSpec,
    ScenarioRunner,
    ScenarioSpec,
    SegmentSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.workloads import PARAM_KEYWORDS, WORKLOAD_KINDS

RING = TopologySpec(n_nodes=4, n_switches=2)
PAIR = TopologySpec(
    segments=(SegmentSpec(4), SegmentSpec(4)),
    routers=(RouterConfig(segments=(0, 1), advertise_period_tours=8),),
)

#: one runnable spec per kind: (topology, WorkloadSpec keywords)
RUNNABLE = {
    "message": (RING, dict(src=0, dst=2, count=5,
                           params={"interval_ns": 2_000})),
    "file": (RING, dict(src=0, dst=2, count=2, channel=11,
                        params={"chunk_bytes": 512})),
    "broadcast": (RING, dict(count=3, channel=3)),
    "cluster_broadcast": (PAIR, dict(
        src=(0, 1), count=2, channel=3,
        params={"interval_ns": 50_000, "start_tours": 40})),
    "poisson": (RING, dict(src=1, dst=3, count=5, channel=12, reliable=True,
                           params={"mean_interval_ns": 4_000})),
    "inhomogeneous_poisson": (RING, dict(
        src=1, dst=3, count=5, channel=12,
        params={"peak_interval_ns": 3_000,
                "profile": {"shape": "sinusoidal", "period_tours": 50}})),
    "burst": (RING, dict(src=2, dst=0, count=6, channel=12,
                         params={"burst_mean": 3, "intra_gap_ns": 500,
                                 "off_mean_ns": 8_000})),
    "zipf": (RING, dict(src=2, dst=1, count=6, channel=13, reliable=True,
                        params={"interval_ns": 5_000, "catalog_size": 4})),
}


def test_every_kind_has_a_runnable_example():
    assert set(RUNNABLE) == set(WORKLOAD_KINDS)


def constructor_parameters(cls):
    """Keyword -> ``inspect.Parameter`` over the constructor chain: a
    ``**kwargs`` forwards what it collects to the next base class."""
    merged = {}
    for klass in cls.__mro__:
        if "__init__" not in vars(klass):
            continue
        parameters = inspect.signature(klass.__init__).parameters
        for name, parameter in parameters.items():
            merged.setdefault(name, parameter)
        if not any(p.kind is inspect.Parameter.VAR_KEYWORD
                   for p in parameters.values()):
            break
    return merged


@pytest.mark.parametrize("kind", sorted(WORKLOAD_KINDS))
def test_row_matches_the_constructor(kind):
    row = WORKLOAD_KINDS[kind]
    parameters = constructor_parameters(row.cls)
    for name in (*row.fields, *row.required, *row.optional):
        keyword = PARAM_KEYWORDS.get(name, name)
        assert keyword in parameters, (
            f"{kind}: {row.cls.__name__} takes no {keyword!r} keyword"
        )
    for name in row.required:
        parameter = parameters[PARAM_KEYWORDS.get(name, name)]
        assert parameter.default is inspect.Parameter.empty, (
            f"{kind}: required param {name!r} has a constructor default"
        )


@pytest.mark.parametrize("kind", sorted(WORKLOAD_KINDS))
def test_kind_builds_and_completes_through_the_runner(kind):
    topology, fields = RUNNABLE[kind]
    content = kind == "zipf"
    runner = ScenarioRunner(ScenarioSpec(
        name=f"table_{kind}", topology=topology, seed=3,
        workloads=(WorkloadSpec(kind, **fields),),
        cache=CacheSpec(origin=0, caches=(1,)) if content else None,
        invariants=("all_delivered", "no_duplicate_deliveries"),
        horizon_tours=200, grace_tours=600,
    ))
    result = runner.run()
    assert result.ok, [i.detail for i in result.failures()]
    (workload,) = runner.workloads
    assert isinstance(workload, WORKLOAD_KINDS[kind].cls)
    delivered = sum(s.delivered for s in workload.stream_stats())
    assert delivered == workload.expected_deliveries() > 0
    assert workload.closed


# ------------------------------------------------------------------ faults
#: a target every role can name on the 2x4 routed pair
TARGET = {"node": 1, "switch": 0, "nodes": (0, 1), "switches": (0,),
          "router": 0}
#: the fault an "undo" kind needs to have struck first
UNDOES = {
    FaultKind.RESTORE_LINK: FaultKind.CUT_LINK,
    FaultKind.REPAIR_SWITCH: FaultKind.FAIL_SWITCH,
    FaultKind.RECOVER_NODE: FaultKind.CRASH_NODE,
    FaultKind.HEAL_PARTITION: FaultKind.PARTITION,
    FaultKind.RECOVER_ROUTER: FaultKind.CRASH_ROUTER,
}


@pytest.mark.parametrize("kind", list(FaultKind), ids=lambda k: k.value)
def test_fault_kind_applies_through_an_armed_schedule(kind):
    cluster = ScenarioSpec(name="faults", topology=PAIR).build_cluster()
    cluster.start()
    cluster.run_until_ring_up()
    # Router kinds strike the routed cluster, the rest one segment.
    struck = cluster if "router" in kind.roles else cluster.segment(0)
    assert callable(getattr(struck, kind.value))
    tour = cluster.tour_estimate_ns
    sched = FaultSchedule()
    storyline = [UNDOES[kind], kind] if kind in UNDOES else [kind]
    for step, k in enumerate(storyline, start=1):
        targets = [TARGET[role] for role in k.roles]
        getattr(sched, k.value)(cluster.sim.now + step * 100 * tour, *targets)
    sched.arm(struck)
    cluster.run(until=cluster.sim.now + 300 * tour)
    assert sched.counters[kind.value] == 1
    fired = [r.data["kind"] for r in cluster.tracer.select(category="fault")]
    assert fired == [k.value for k in storyline]
    if kind in UNDOES:
        # the undo put the segment back together
        cluster.run_until_ring_up()
        assert cluster.roster_mismatch(set(cluster.nodes)) == ""
