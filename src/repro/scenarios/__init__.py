"""Declarative scenario engine: spec, runner, and the named library.

A :class:`ScenarioSpec` is plain data — topology, workload mix,
tour-relative fault storyline, membership flags, invariants — and the
:class:`ScenarioRunner` turns it into a seeded, replayable experiment
whose timeline folds into a digest (the golden-trace regression
contract).  Topologies come in two shapes: a single ring
(``TopologySpec(n_nodes=..., n_switches=...)``) or a router-joined
multi-ring cluster (``TopologySpec(segments=[...], routers=[...])``;
the shape classes live in :mod:`repro.routing` and are re-exported
here), which is how the library scales past the 255-node single-ring
ceiling (``two_ring_256``, ``four_ring_512``).
The authoring guide lives in ``docs/scenarios.md``.

Quickstart::

    from repro.scenarios import get_scenario, run_scenario

    result = run_scenario(get_scenario("slide7_mixed"))
    assert result.ok, result.failures()
    print(result.trace_digest)

Or from the shell::

    python -m repro.scenarios list
    python -m repro.scenarios run slide7_mixed --seed 7 --json out.json
"""

from ..routing import SegmentSpec, TopologySpec
from .library import SCENARIOS, get_scenario, scenario_names
from .runner import (
    InvariantResult,
    ScenarioResult,
    ScenarioRunner,
    run_scenario,
    trace_digest,
)
from .spec import CacheSpec, FaultSpec, ScenarioSpec, WorkloadSpec

__all__ = [
    "SCENARIOS",
    "CacheSpec",
    "FaultSpec",
    "InvariantResult",
    "ScenarioResult",
    "ScenarioRunner",
    "ScenarioSpec",
    "SegmentSpec",
    "TopologySpec",
    "WorkloadSpec",
    "get_scenario",
    "run_scenario",
    "scenario_names",
    "trace_digest",
]
