"""P1: schedule entries the kernel spends on the frame hot path.

Counts the discrete-event kernel's work over the steady-state window of
an all-to-all broadcast storm (the workload where every layer of the
kernel -> phys -> MAC -> transport stack is hot), using the scenario
runner's phase hooks so ring bring-up is excluded.  Everything emitted
is fixed by the seed: schedule entries processed in the window, how
many of them were posted past the 8.192 µs lap holding ``now`` (the
"overflow spills" of the timer wheel the kernel once was), and how many the
window spent per ring hop (entries over the MACs' transit forwards).
The bench asserts the hot path keeps doing the same simulated work with
no drops, with fewer schedule entries than the wave-1 implementation
needed (``WAVE1_EVENTS``: commit ``c6a1465``, the heap kernel + chained
link scheduling that the timer wheel, one-entry-per-frame links and
batched MAC ticks replaced), and inside the hop budget
(``HOP_BUDGET``; docs/architecture.md, "The event scheduler": three
entries uncontended, six contended).

How *fast* the host gets through those entries is not this bench's
business: ``benchmarks/e2e`` times the n=64 storm and the 255-node
ring themselves (``storm_n64``, ``ring_255``) under ``BENCHMARK.json``.

The grid runs through :mod:`repro.sweep` (``grid_from_names`` over the
``kernel_storm`` library scenario x the size axis, executed by
``run_grid`` with a probe-attaching cell function), so P1 shares the
expansion, pool transport and grid-order sorting every sweep uses; the
emission is identical at any ``REPRO_SWEEP_WORKERS``.  Beyond the size
grid, two library scale points are emitted: ``large_ring_256`` (255
nodes, the 8-bit address ceiling) and the routed ``four_ring_512`` star
(4x128 nodes on one router).
"""

from repro.analysis import total_mac_counter
from repro.perf import PerfProbe
from repro.scenarios.runner import ScenarioRunner
from repro.sweep import grid_from_names, run_grid, workers_from_env

import harness

SIZES = (16, 64)
CELLS_PER_NODE = 8
#: library scale points (name -> node count), no wave-1 count to compare
LARGE_SCENARIOS = {"large_ring_256": 255, "four_ring_512": 512}
LARGE_SEED = 7

#: Storm-window schedule entries at the wave-1 commit, per ring size.
WAVE1_COMMIT = "c6a1465"
WAVE1_EVENTS = {16: 29_728, 64: 914_563}

#: Most schedule entries a window may spend per ring hop.  The storms
#: contend for registers and egress wires, the large rings mostly do
#: not; and a frame's insertion costs four entries that are no transit
#: forward, which weighs a fifteenth on n=16's tours, a 254th on n=255's.
HOP_BUDGET = {"kernel_storm_n16": 3.9, "kernel_storm_n64": 3.7,
              "large_ring_256": 3.2, "four_ring_512": 3.2}


def probed_cell(cell):
    """Run one grid cell with a PerfProbe over the workload phase.

    The window is armed -> settled: ring bring-up is construction cost,
    not the hot path.  The scenario payload rides along unchanged; the
    window's counts land under ``payload["perf"]``.
    """
    state = {}

    def hook(phase: str) -> None:
        if phase == "armed":
            state["hops"] = total_mac_counter(runner.cluster, "tx_transit")
            state["probe"] = PerfProbe(runner.cluster.sim)
            state["probe"].start()
        elif phase == "settled":
            state["report"] = state["probe"].stop()
            state["report"].ring_hops = (
                total_mac_counter(runner.cluster, "tx_transit") - state["hops"]
            )

    runner = ScenarioRunner(cell.spec, seed=cell.seed, phase_hook=hook)
    payload = runner.run().to_dict()
    report = state["report"]
    payload["perf"] = {
        "events": report.events,
        "overflow_spills": report.scheduler["overflow_spills"],
        "entries_per_ring_hop": round(report.entries_per_ring_hop, 2),
    }
    return payload


def run_experiment():
    workers = workers_from_env()
    storm = grid_from_names(["kernel_storm"], seeds=[0], sizes=SIZES)
    large = grid_from_names(list(LARGE_SCENARIOS), seeds=[LARGE_SEED])
    return (run_grid(storm, workers=workers, cell_fn=probed_cell),
            run_grid(large, workers=workers, cell_fn=probed_cell))


def _storm_size(record):
    # kernel_storm_n{size}: the suffix with_size() stamps on the name.
    return int(record["name"].rsplit("_n", 1)[1])


def _entries_per_hop(record):
    """Window entries per ring hop, held to the scenario's budget."""
    per_hop = record["result"]["perf"]["entries_per_ring_hop"]
    budget = HOP_BUDGET[record["name"]]
    assert per_hop <= budget, (
        f"{record['name']}: {per_hop} schedule entries per ring hop, "
        f"budget {budget}"
    )
    return per_hop


def test_p1_kernel_throughput(publish_json):
    storm_records, large_records = run_experiment()

    for record in storm_records + large_records:
        assert "error" not in record, record.get("error")
        assert record["result"]["ok"], f"invariants failed: {record['name']}"

    rows = []
    metrics = {}
    for record in storm_records:
        n = _storm_size(record)
        result = record["result"]
        assert result["counters"]["ring_drops"] == 0
        assert result["counters"]["delivered"] == CELLS_PER_NODE * n * (n - 1)
        # Same seeded workload, strictly less scheduling work than the
        # wave-1 hot path needed.
        events = result["perf"]["events"]
        assert events < WAVE1_EVENTS[n], (
            f"n={n}: {events} schedule entries, wave 1 "
            f"needed {WAVE1_EVENTS[n]}"
        )
        rows.append([record["name"], n, events,
                     result["perf"]["overflow_spills"],
                     _entries_per_hop(record), WAVE1_EVENTS[n]])
        metrics[f"n{n}_schedule_entries_ratio"] = round(
            events / WAVE1_EVENTS[n], 3
        )
    for record in large_records:
        perf = record["result"]["perf"]
        rows.append([record["name"], LARGE_SCENARIOS[record["name"]],
                     perf["events"], perf["overflow_spills"],
                     _entries_per_hop(record), None])

    publish_json(
        harness.bench_payload(
            exp="P1",
            title="Kernel schedule entries: storm window, timer wheel "
                  "vs wave 1",
            params={
                "cells_per_node": CELLS_PER_NODE,
                "sizes": list(SIZES),
                "large_scenarios": list(LARGE_SCENARIOS),
                "baseline_commit": WAVE1_COMMIT,
                "baseline": {
                    str(n): {"events": events}
                    for n, events in WAVE1_EVENTS.items()
                },
            },
            columns=["Scenario", "Nodes", "Events (window)",
                     "Overflow spills", "Entries / ring hop",
                     "Wave-1 events"],
            rows=rows,
            metrics=metrics,
            notes="Every number is a count the seed fixes.  The timer-"
                  "wheel kernel + one-entry-per-frame links, and since "
                  "PR 22 the fused uncontended hop (an idle MAC forwards "
                  "in one entry, a ring-map crossing reserves the egress "
                  "wire instead of queueing for it), do the same "
                  "simulated work with ~0.36x the schedule entries wave 1 "
                  "(the pre-wheel commit) posted.  Entries / ring hop is "
                  "window events over the MACs' transit forwards: the "
                  "budget is 3 uncontended, 6 contended, and the bench "
                  "holds the storms to 3.9 (n=16) / 3.7 (n=64) and the "
                  "large rings to 3.2.  Re-emitted by PR 22 for that "
                  "reason: Events (window) fell from 17365 / 546167 / "
                  "2295140 / 3204320 (6.0-6.1 per hop) and the spills "
                  "with them; the simulated work did not move.  Large "
                  "rows are the n=255 address-ceiling ring and the "
                  "routed 4x128 star. Host speed on these storms is "
                  "benchmarks/e2e's to judge (storm_n64, ring_255).",
        )
    )
