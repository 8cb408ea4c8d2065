"""A2 (ablation): the no-drop guarantee depends on insertion flow control.

Same broadcast storm as F3, but with the insertion window and pacing
disabled: nodes stuff the ring as fast as the transmitter allows, the
finite transit buffers overflow, and frames die — demonstrating that
slide 8's guarantee is a property of the flow control, not of the ring
topology.
"""

from repro import AmpNetCluster
from repro.ring import FlowControlConfig
from repro.workloads import AllToAllBroadcast

import harness

N_NODES = 8
CELLS = 24
#: Small transit buffers make the ablation bite quickly.
TRANSIT_CAPACITY = 12


def run_case(enabled: bool):
    flow = FlowControlConfig(
        transit_capacity=TRANSIT_CAPACITY,
        enabled=enabled,
        transit_priority=enabled,
    )
    cluster = AmpNetCluster(n_nodes=N_NODES, n_switches=2, flow=flow)
    cluster.start()
    cluster.run_until_ring_up()
    storm = AllToAllBroadcast(cluster, count=CELLS)
    horizon = cluster.sim.now + 4000 * cluster.tour_estimate_ns
    while not storm.complete() and cluster.sim.now < horizon:
        cluster.run(until=cluster.sim.now + 50 * cluster.tour_estimate_ns)
        if not enabled and storm.total_drops() > 0 and cluster.sim.now > horizon / 2:
            break  # the ablation has made its point
    return storm


def run_experiment():
    on = run_case(enabled=True)
    off = run_case(enabled=False)
    return on, off


def test_a2_flow_control_ablation(publish_json):
    on, off = run_experiment()

    assert on.total_drops() == 0
    assert on.complete()
    assert off.total_drops() > 0, "uncontrolled insertion failed to overflow"

    publish_json(
        harness.bench_payload(
            exp="A2",
            title="Flow-control ablation: broadcast storm with pacing disabled",
            params={"n_nodes": N_NODES, "cells_per_node": CELLS,
                    "transit_capacity": TRANSIT_CAPACITY},
            columns=["configuration", "delivered", "expected", "drops"],
            rows=[
                ["flow_control_on", on.total_delivered(),
                 on.expected_deliveries(), on.total_drops()],
                ["flow_control_off", off.total_delivered(),
                 off.expected_deliveries(), off.total_drops()],
            ],
            metrics={"ablation_drops": off.total_drops()},
            notes="Identical ring + storm; only the insertion window and "
                  "pacing differ.  The zero-drop guarantee is the flow "
                  "control's property, not the topology's.",
        )
    )
