"""Integration: every named scenario runs green and replays bit-identically.

This is the acceptance contract of the scenario engine: each library
entry executes end to end with all of its invariants passing, and two
runs under the same seed produce the same trace digest (the kernel's
determinism contract surfaced at the scenario level).
"""

import os

import pytest

from repro.scenarios import (
    SCENARIOS,
    FaultSpec,
    ScenarioRunner,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    get_scenario,
    run_scenario,
    scenario_names,
)

#: Every library entry appears here so a new one fails loudly if it is
#: not covered.  The production-scale rings are too expensive to run
#: twice per suite, so they get a single invariants run; same-seed
#: replay determinism is pinned by the eight smaller scenarios (and by
#: the golden-trace suite), which exercise the identical kernel.
ALL_NAMES = (
    "quiet_ring",
    "slide7_mixed",
    "broadcast_storm",
    "kernel_storm",
    "diurnal_ramp",
    "failover_under_load",
    "churn_under_load",
    "partition_heal_under_load",
    "large_ring_64",
    "large_ring_128",
    "large_ring_256",
    "two_ring_256",
    "four_ring_512",
    "routed_partition_heal",
    "redundant_router_failover",
    "two_path_256",
    "chaos_router_storm",
    "flapping_spine",
    "breaker_asymmetric_partition",
    "bulkhead_noisy_neighbor",
    "zipf_cache_warmup",
    "cache_offload_star",
    "mesh_routed_small",
    "mesh_1k",
    "mesh_4k",
)

#: Production-scale entries too expensive for the run+replay double
#: execution; they get a single invariants run below.
LARGE_NAMES = ("large_ring_128", "large_ring_256", "two_ring_256",
               "four_ring_512", "two_path_256", "cache_offload_star",
               "mesh_1k")

#: Banked capacity tiers that are far too expensive for the suite at
#: all (mesh_4k is ~3.8k nodes and runs for minutes per tour batch).
#: They stay in the library -- the P4 bench and an opt-in run exercise
#: them -- but the default suite only sanity-checks their specs.
BANKED_NAMES = ("mesh_4k",)

#: Entries cheap enough for the run+replay double execution.
REPLAY_NAMES = tuple(n for n in ALL_NAMES
                     if n not in LARGE_NAMES and n not in BANKED_NAMES)


def test_library_is_fully_covered():
    assert set(scenario_names()) == set(ALL_NAMES)
    assert len(ALL_NAMES) >= 15


@pytest.mark.parametrize("name", BANKED_NAMES)
def test_banked_scenarios_build(name):
    """The banked tiers must at least materialise a coherent spec and
    cluster; running them green is the P4 bench's job (or set
    ``REPRO_RUN_BANKED=1`` to run them here)."""
    spec = get_scenario(name)
    cluster = spec.build_cluster(seed=spec.seed)
    assert len(cluster.nodes) >= 3_500
    if os.environ.get("REPRO_RUN_BANKED"):
        result = run_scenario(spec)
        assert result.ok, f"{name}: {[i.detail for i in result.failures()]}"


@pytest.mark.parametrize("name", REPLAY_NAMES)
def test_named_scenario_invariants_and_replay(name, first_run):
    first = first_run(name)
    assert first.ok, f"{name}: {[i.detail for i in first.failures()]}"
    assert first.counters["offered"] > 0
    assert first.counters["delivered"] >= first.counters["offered"]
    assert first.counters["phys_unbalanced"] == 0
    assert first.counters["mac_unbalanced"] == 0

    second = run_scenario(get_scenario(name))
    assert second.trace_digest == first.trace_digest
    assert second.counters == first.counters


@pytest.mark.parametrize("name", LARGE_NAMES)
def test_large_ring_scenarios_run_green(name, first_run):
    """The production-scale capstones — single rings at the 8-bit
    ceiling and router-joined clusters beyond it — run end to end with
    full delivery and zero drops inside the suite."""
    result = first_run(name)
    assert result.ok, f"{name}: {[i.detail for i in result.failures()]}"
    assert result.counters["offered"] > 0
    assert result.counters["delivered"] >= result.counters["offered"]
    assert result.counters["ring_drops"] == 0
    assert result.counters["phys_unbalanced"] == 0
    assert result.counters["mac_unbalanced"] == 0


def test_different_seed_diverges_for_stochastic_scenario():
    """The stochastic arrival processes must follow the master seed.

    (The tracer only sees protocol events, so for a fault-free scenario
    the divergence shows up in the streams' transmit instants, not
    necessarily in the trace digest.)"""
    runs = {}
    for seed in (None, 99):
        runner = ScenarioRunner(get_scenario("diurnal_ramp", seed=seed))
        assert runner.run().ok
        runs[seed] = [list(w.tx_times) for w in runner.workloads]
    assert runs[None] != runs[99]


def test_runner_reports_violated_invariant():
    """An impossible expectation must come back as a clean failure, not
    an exception."""
    spec = ScenarioSpec(
        name="impossible",
        topology=TopologySpec(n_nodes=4, n_switches=2),
        workloads=(
            WorkloadSpec("message", count=5, src=0, dst=2,
                         params={"interval_ns": 2_000}),
        ),
        # Node 3 stays perfectly alive, so a roster that excludes it
        # never forms.
        expect_dead=(3,),
        invariants=("roster_converged",),
        horizon_tours=80,
        grace_tours=0,
    )
    result = run_scenario(spec)
    assert not result.ok
    assert [i.name for i in result.failures()] == ["roster_converged"]


def test_fault_storyline_fires_through_runner():
    spec = ScenarioSpec(
        name="one_cut",
        topology=TopologySpec(n_nodes=6, n_switches=4),
        workloads=(
            WorkloadSpec("message", count=30, src=1, dst=4, channel=12,
                         reliable=True, params={"interval_ns": 4_000}),
        ),
        faults=(FaultSpec("cut_link", at_tours=20, node=0, switch=0),),
        invariants=("all_delivered", "roster_converged"),
        horizon_tours=300,
    )
    result = run_scenario(spec)
    assert result.ok
    assert result.counters["faults_fired"] == 1
