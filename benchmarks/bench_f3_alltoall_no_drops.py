"""F3 (slide 8): simultaneous all-to-all broadcast never drops a packet.

AmpNet's register-insertion ring with local-view flow control completes
the storm with zero drops at every scale; the conventional switched-LAN
baseline tail-drops under the same convergent burst (its TCP layer then
pays retransmissions to recover).

The AmpNet side is described declaratively — one broadcast-storm
``ScenarioSpec`` per size — and the run is judged by the scenario
engine's own invariants (no drops, all delivered).  The size grid runs
through :mod:`repro.sweep`'s ``run_grid`` (a ``SweepGrid`` built from
the exact specs below rather than ``grid_from_names``: the committed
emission pins the ``f3_storm_{n}`` spec metadata byte for byte, and
library-name expansion would rename the cells).  Sizes can be
overridden for smoke runs: ``F3_SIZES=4 pytest -q benchmarks/bench_f3...``.
"""

from repro.baselines import EthernetFabric
from repro.scenarios import ScenarioSpec, TopologySpec, WorkloadSpec
from repro.sim import Simulator
from repro.sweep import SweepGrid, run_grid, workers_from_env

import harness

DEFAULT_NODE_COUNTS = (4, 8, 16)
CELLS_PER_NODE = 16


def sizes_under_test():
    return harness.sizes_from_env("F3_SIZES", DEFAULT_NODE_COUNTS)


def storm_spec(n_nodes: int) -> ScenarioSpec:
    return ScenarioSpec(
        name=f"f3_storm_{n_nodes}",
        description="slide-8 all-to-all broadcast storm",
        topology=TopologySpec(n_nodes=n_nodes, n_switches=2),
        workloads=(WorkloadSpec("broadcast", count=CELLS_PER_NODE, channel=3),),
        horizon_tours=250,
        grace_tours=3000,
        invariants=("no_drops", "all_delivered"),
    )


def run_baseline(n_nodes: int):
    sim = Simulator()
    fabric = EthernetFabric(sim, n_nodes, egress_capacity=8)
    # Broadcast storm as N-1 unicasts per cell (switched LANs replicate
    # broadcast at the switch; the convergence pattern is identical).
    for src in range(n_nodes):
        for _ in range(CELLS_PER_NODE):
            for dst in range(n_nodes):
                if dst != src:
                    fabric.nodes[src].send(dst, 64)
    sim.run()
    return fabric


def storm_grid() -> SweepGrid:
    # seeds=(0,) pins the specs' own default seed: cells are the exact
    # scenarios the emission has always recorded.
    return SweepGrid(
        specs=tuple(storm_spec(n) for n in sizes_under_test()), seeds=(0,)
    )


def run_experiment():
    sizes = sizes_under_test()
    records = run_grid(storm_grid(), workers=workers_from_env())
    rows = []
    specs = [storm_spec(n) for n in sizes]
    # run_grid returns grid order == sizes order at any worker count.
    for n, record in zip(sizes, records):
        assert "error" not in record, record.get("error")
        result = record["result"]
        fabric = run_baseline(n)
        expected = CELLS_PER_NODE * n * (n - 1)
        rows.append(
            (
                n,
                expected,
                result["counters"]["delivered"],
                result["counters"]["ring_drops"],
                fabric.counters["offered"],
                fabric.counters["drops"],
                result["ok"],
            )
        )
    return rows, specs


def test_f3_alltoall_broadcast_no_drops(publish_json):
    rows, specs = run_experiment()

    for n, expected, delivered, amp_drops, _offered, eth_drops, scenario_ok in rows:
        # The paper's guarantee, verbatim: zero drops, storm completes.
        assert amp_drops == 0, f"AmpNet dropped at n={n}"
        assert delivered == expected, f"storm incomplete at n={n}"
        assert scenario_ok, f"scenario invariants failed at n={n}"
        # The baseline drops under the same convergent load.
        assert eth_drops > 0, f"baseline did not drop at n={n}"

    columns = [
        "Nodes",
        "AmpNet expected",
        "AmpNet delivered",
        "AmpNet drops",
        "Ethernet frames",
        "Ethernet drops",
    ]
    table_rows = [row[:6] for row in rows]
    publish_json(
        harness.bench_payload(
            exp="F3",
            title="All-to-all broadcast storm: drops vs the switched baseline",
            params={"cells_per_node": CELLS_PER_NODE,
                    "sizes": list(sizes_under_test())},
            columns=columns,
            rows=table_rows,
            metrics={
                "amp_total_drops": sum(r[3] for r in rows),
                "eth_total_drops": sum(r[5] for r in rows),
            },
            scenarios=[spec.to_dict() for spec in specs],
            notes="AmpNet side built and judged by the scenario engine "
                  "(no_drops + all_delivered invariants).",
        )
    )
