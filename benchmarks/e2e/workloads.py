"""The benchmark's four workloads and the pins that hold their load fixed.

A workload is a *round* of library scenarios run back to back; one
repetition (rep) of the workload is one round.  Three of the four are a
single scenario; ``chaos_mix`` is eleven.  The scenarios are resolved by
name through :func:`repro.scenarios.get_scenario`, so the benchmark only
ever sees what a user of the library sees.  Why each workload is here
is recorded in ``BENCHMARK.json`` and the README.

``PINS`` records the sha256 of every scenario's declarative definition
as the library ships it.  :func:`resolve` refuses to hand out a scenario whose
definition drifted: changing the load is a benchmark change and belongs
in a PR that edits this file, never in one that claims a gain.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.scenarios import ScenarioSpec, get_scenario


@dataclass(frozen=True)
class Scenario:
    """One library scenario of a round."""

    name: str
    #: ``ScenarioSpec.with_size`` target, ``None`` = the library's size
    size: Optional[int] = None
    #: False = run at the library's own seed.  Three chaos storylines
    #: send *unreliable* streams across a partition and only deliver all
    #: of them at the seed they were written for (3 to 15 of seeds 0..39
    #: lose one message); the benchmark may not contain an operation
    #: that fails, so those keep their seed and ``--seed`` moves the rest.
    seeded: bool = True


@dataclass(frozen=True)
class Workload:
    name: str
    scenarios: Tuple[Scenario, ...]
    #: the median of a host metric must come from at least this many reps
    min_reps: int = 3


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("storm_n64", (Scenario("kernel_storm", size=64),)),
        Workload("ring_255", (Scenario("large_ring_256"),)),
        # one long rep: its 23 s window averages the noise itself
        Workload("mesh_1k", (Scenario("mesh_1k"),), min_reps=1),
        Workload(
            "chaos_mix",
            (
                Scenario("redundant_router_failover"),
                Scenario("chaos_router_storm"),
                Scenario("flapping_spine"),
                Scenario("breaker_asymmetric_partition", seeded=False),
                Scenario("bulkhead_noisy_neighbor", seeded=False),
                Scenario("routed_partition_heal", seeded=False),
                Scenario("zipf_cache_warmup"),
                Scenario("mesh_routed_small"),
                Scenario("churn_under_load"),
                Scenario("partition_heal_under_load"),
                Scenario("failover_under_load"),
            ),
        ),
    )
}

#: ``--smoke``: the same code paths in about a second (the self-test).
SMOKE_WORKLOADS: Dict[str, Workload] = {
    "storm_n64": Workload(
        "storm_n64", (Scenario("kernel_storm", size=16),), min_reps=2
    ),
    "chaos_mix": Workload(
        "chaos_mix",
        (Scenario("zipf_cache_warmup"), Scenario("failover_under_load")),
        min_reps=2,
    ),
}

#: sha256 of each library scenario's ``to_dict()``, library seed included
#: (three scenarios run at it; the others replace it with ``--seed``).
PINS: Dict[str, str] = {
    "kernel_storm":
        "2b1726a8e79771c989f17e62568793e56ab09f29cbaab453afd44c5222871995",
    "large_ring_256":
        "e62e6e22206e5da9bdaace6bdd9eb853498b786c7a9e0454bcf6b3c32badbff8",
    "mesh_1k":
        "f1b10870448f51106dd278663d4ba58c6cea12359ef8c6221701e110f3b61c76",
    "redundant_router_failover":
        "9dbe5d171c4fb29ee183d417abe3ad6241af63d3cf8875086b9d9d5f6a510409",
    "chaos_router_storm":
        "681f0281aac8e67466e4d907090f1281a7343fd87f647bd99d23f09e537b414b",
    "flapping_spine":
        "a7ba4130d0d527908363492cb37f28dcabdd0670279ef4916f157d9a348a1509",
    "breaker_asymmetric_partition":
        "ad115c4e079ae43928d27a0930567de236bff9094b87abb9ce9472dfccb72e87",
    "bulkhead_noisy_neighbor":
        "c75517a39c55b78d51882fef7feb495f56787f28bcbe912654289ca4071b3cf9",
    "routed_partition_heal":
        "5572d769ca612afdbbe8fa9945fca52bb06a9264b97241ed7e5ba505264025d8",
    "zipf_cache_warmup":
        "ac002c6bec59cd0ddbea61be4e247f5d1799f10b00e79c52d501ba608dfa0b98",
    "mesh_routed_small":
        "7b717043eec0b19501f85089fdd5e5cdb9a7bbe9e1d55d8f6fb3179b28871d13",
    "churn_under_load":
        "cd9cf19c0bb1aca6a12b6e64f088214f8af213498cfc7dd97fc897e3d51c5d19",
    "partition_heal_under_load":
        "1851ee7b168f1a9f88e188a9975543a2eb7df87ae663a2dff1965293a39fe010",
    "failover_under_load":
        "a0f410dfb69ec8ffe1fdbdea0d9974fc6f483fee6d3988de65111cff005e7b2a",
}


class WorkloadDrift(Exception):
    """A pinned library scenario no longer matches its recorded hash."""


def spec_hash(spec: ScenarioSpec) -> str:
    """sha256 of the scenario's declarative definition."""
    return hashlib.sha256(
        json.dumps(spec.to_dict(), sort_keys=True).encode("utf-8")
    ).hexdigest()


def resolve(workload: Workload, seed: int) -> List[ScenarioSpec]:
    """The round's specs at ``seed``, each checked against its pin."""
    specs = []
    for sc in workload.scenarios:
        library = get_scenario(sc.name)
        found = spec_hash(library)
        if found != PINS[sc.name]:
            raise WorkloadDrift(
                f"library scenario {sc.name!r} drifted from the benchmark's "
                f"pin (pinned {PINS[sc.name][:12]}, found {found[:12]}): the "
                f"load changed. Re-pin it in benchmarks/e2e/workloads.py in a "
                f"PR that changes only the benchmark and re-measures the "
                f"baseline."
            )
        spec = library.with_seed(seed) if sc.seeded else library
        specs.append(spec if sc.size is None else spec.with_size(sc.size))
    return specs
