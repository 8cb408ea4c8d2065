"""F9 (slide 19): application failover — millisecond detection, definable
failover period, control to the best qualified node, no data loss.

The AmpNet control group (checkpoints in the replicated network cache,
kernel heartbeats) against the conventional pair (TCP heartbeats, async
replication).  The baseline detects two orders of magnitude slower and
loses acknowledged writes; AmpNet loses nothing.
"""

from repro.baselines import TcpFailoverPair
from repro.hostapi import APP_REGION, CheckpointedSequenceApp, SequenceLedger
from repro.kernel import ControlGroupConfig
from repro.scenarios import ScenarioSpec, TopologySpec
from repro.sim import Simulator

import harness

AMPNET_SPEC = ScenarioSpec(
    name="f9_failover",
    description="primary-crash failover measurement topology",
    topology=TopologySpec(n_nodes=6, n_switches=4),
)


def run_ampnet():
    cluster = AMPNET_SPEC.build_cluster()
    ledger = SequenceLedger()
    config = ControlGroupConfig(
        name="f9", members=[0, 1, 2], qualification={0: 9, 1: 5, 2: 1},
        region=APP_REGION,
    )
    groups = cluster.create_control_group(
        config, lambda n, g: CheckpointedSequenceApp(n, g, ledger)
    )
    cluster.start()
    cluster.run_until_ring_up()
    cluster.run(until=cluster.sim.now + 200 * cluster.tour_estimate_ns)
    acked_before = ledger.last_acked
    assert acked_before > 0

    became = groups[1].became_primary
    crash_time = cluster.sim.now
    cluster.crash_node(0)
    cluster.run(until=became)
    takeover_ns = cluster.sim.now - crash_time
    triggers = [
        r for r in cluster.tracer.select(category="roster_trigger")
        if r.time >= crash_time and "heartbeat" in r.data["reason"]
    ]
    detection_ns = min(t.time for t in triggers) - crash_time
    # Run on: the survivor keeps producing.
    cluster.run(until=cluster.sim.now + 300 * cluster.tour_estimate_ns)
    ledger.verify_no_loss_no_fork()
    app = groups[1].app
    lost = max(0, acked_before - app.recovered_from)
    return {
        "detection_ns": detection_ns,
        "failover_ns": takeover_ns,
        "acked_before": acked_before,
        "lost": lost,
        "continued": ledger.last_acked > acked_before,
    }


def run_baseline():
    sim = Simulator()
    pair = TcpFailoverPair(sim)
    sim.call_in(500_000_000, pair.crash_primary)
    sim.run(until=3_000_000_000)
    report = pair.report
    return {
        "detection_ns": report.detection_ns,
        "failover_ns": report.failover_ns,
        "acked_before": report.acked,
        "lost": report.lost_writes,
    }


def run_experiment():
    return run_ampnet(), run_baseline()


def test_f9_application_failover(publish_json):
    amp, base = run_experiment()

    # Millisecond-class detection vs hundreds of milliseconds.
    assert amp["detection_ns"] <= 2_000_000  # <= 2 ms
    assert base["detection_ns"] >= 100_000_000  # >= 100 ms
    assert base["detection_ns"] > 20 * amp["detection_ns"]
    # No data loss vs real loss.
    assert amp["lost"] == 0
    assert base["lost"] > 0
    assert amp["continued"]

    publish_json(
        harness.bench_payload(
            exp="F9",
            title="Primary crash: detection, failover and acked-write loss",
            params={"n_nodes": 6, "n_switches": 4},
            columns=["system", "detection_ns", "failover_ns",
                     "writes_acked", "acked_lost"],
            rows=[
                ["ampnet_control_group", amp["detection_ns"],
                 amp["failover_ns"], amp["acked_before"], amp["lost"]],
                ["tcp_primary_backup", base["detection_ns"],
                 base["failover_ns"], base["acked_before"], base["lost"]],
            ],
            metrics={
                "detection_speedup": base["detection_ns"] / amp["detection_ns"],
                "amp_acked_lost": amp["lost"],
                "baseline_acked_lost": base["lost"],
            },
            scenarios=[AMPNET_SPEC.to_dict()],
            notes="Millisecond detection and zero acked-write loss vs "
                  "hundred-millisecond detection and real loss for the "
                  "baseline.  AmpNet cluster built from the f9_failover "
                  "ScenarioSpec; the control-group app and crash remain "
                  "hand-driven.",
        )
    )
