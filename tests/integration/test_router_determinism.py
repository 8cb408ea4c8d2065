"""Determinism regression for router failure: same seed => identical
timeline, bit for bit, across a mid-load router kill.

Mirrors the PR 1 cluster-level determinism contract at the routing
layer: a redundant router pair under stochastic crossing load with
gossip membership on, the designated router crashed mid-run, the
spanning tree re-converging and the backup replaying its shadow.  Two
runs under one seed must produce byte-identical trace digests; a
different master seed must diverge (gossip draws jitter and partner
choices from the seeded streams, so its traced timeline moves — the
same lever the PR 1 cluster-level regression uses).
"""

from repro.routing import RouterConfig
from repro.scenarios import (
    FaultSpec,
    ScenarioSpec,
    SegmentSpec,
    TopologySpec,
    WorkloadSpec,
    run_scenario,
)


def failover_spec(seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        name="router_kill_determinism",
        topology=TopologySpec(
            segments=(SegmentSpec(n_nodes=4), SegmentSpec(n_nodes=4)),
            routers=(RouterConfig(segments=(0, 1), priority=8),
                     RouterConfig(segments=(0, 1), priority=192)),
        ),
        seed=seed,
        membership=True,
        workloads=(
            WorkloadSpec("poisson", count=24, src=(0, 1), dst=(1, 2),
                         channel=12, reliable=True,
                         params={"mean_interval_ns": 90_000}),
            WorkloadSpec("poisson", count=18, src=(1, 3), dst=(0, 2),
                         channel=13, reliable=True,
                         params={"mean_interval_ns": 110_000}),
        ),
        faults=(FaultSpec("crash_router", at_tours=150, router=0),),
        expect_dead=((0, 4), (1, 4)),
        invariants=("all_delivered", "roster_converged"),
        horizon_tours=800,
    )


def test_router_kill_replays_bit_identically():
    first = run_scenario(failover_spec(seed=13))
    second = run_scenario(failover_spec(seed=13))
    assert first.ok, [i.detail for i in first.failures()]
    # The run really crossed the failure: the fault fired and the
    # timeline carries routing-layer records.
    assert first.counters["faults_fired"] == 1
    assert first.counters["trace_records"] > 100
    assert second.trace_digest == first.trace_digest
    assert second.counters == first.counters


def test_router_kill_diverges_across_seeds():
    a = run_scenario(failover_spec(seed=13))
    b = run_scenario(failover_spec(seed=14))
    assert a.ok and b.ok
    assert a.trace_digest != b.trace_digest
