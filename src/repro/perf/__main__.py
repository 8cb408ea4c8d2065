"""Profile runner: kernel throughput of any named scenario.

::

    python -m repro.perf large_ring_128
    python -m repro.perf slide7_mixed --per-kind
    python -m repro.perf large_ring_64 --seed 9 --json out.json

Runs the scenario through the ordinary :class:`ScenarioRunner` with a
:class:`~repro.perf.PerfProbe` attached, and reports three windows:

* **total** — cluster construction through judgement (what a user
  waits for);
* **ring-up** — the ``built`` phase to ``ring_up``: the rostering
  floods, with the schedule entries they cost per node and how many of
  them were posted past the 8.192 µs lap that held ``now``;
* **workload** — the window between the ``armed`` and ``settled``
  phases, i.e. the steady-state frame hot path with ring bring-up
  excluded (what the P1 bench tracks across commits), with the
  schedule entries it spent per ring hop.

Exits non-zero if the scenario's invariants fail — a profile of a
broken run is not a data point.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..analysis import total_mac_counter
from ..scenarios import SCENARIOS, get_scenario, scenario_names
from ..scenarios.runner import ScenarioRunner
from . import PerfProbe, PerfReport


def profile_scenario(name: str, seed: Optional[int] = None,
                     per_kind: bool = False):
    """Run ``name`` under the probe; returns (result, total, ring_up,
    workload)."""
    spec = get_scenario(name, seed=seed)
    state = {}

    def hook(phase: str) -> None:
        # The cluster (and its simulator) exist from the "built" phase on.
        if phase == "built":
            probe = state["probe"] = PerfProbe(
                runner.cluster.sim, per_kind=per_kind
            )
            probe.start()
        elif phase == "ring_up":
            state["ring_up"] = state["probe"].snapshot()
            state["ring_up"].nodes = len(runner.cluster.nodes)
        elif phase == "armed":
            state["setup"] = state["probe"].snapshot()
            state["hops"] = total_mac_counter(runner.cluster, "tx_transit")
            state["probe"].start()
        elif phase == "settled":
            state["workload"] = state["probe"].snapshot()
            state["workload"].ring_hops = (
                total_mac_counter(runner.cluster, "tx_transit") - state["hops"]
            )

    runner = ScenarioRunner(spec, phase_hook=hook)
    result = runner.run()
    tail = state["probe"].stop()  # armed -> end of run
    setup = state["setup"]
    workload = state.get("workload", tail)
    merged = {
        layer: setup.by_layer.get(layer, 0) + tail.by_layer.get(layer, 0)
        for layer in set(setup.by_layer) | set(tail.by_layer)
    }
    total = PerfReport(
        events=setup.events + tail.events,
        sim_ns=setup.sim_ns + tail.sim_ns,
        wall_s=setup.wall_s + tail.wall_s,
        by_layer=merged,
    )
    return result, total, state["ring_up"], workload


def _print_report(label: str, report: PerfReport) -> None:
    print(f"  {label}:")
    print(f"    events          {report.events:,}")
    print(f"    sim time        {report.sim_ns / 1e6:.3f} ms")
    print(f"    wall time       {report.wall_s:.3f} s")
    print(f"    events/sec      {report.events_per_sec:,.0f}")
    print(f"    sim-ns / wall-s {report.sim_ns_per_wall_s:,.0f}")
    print(f"    wall-s / sim-s  {report.wall_s_per_sim_s:,.2f}")
    if report.ring_hops:
        print(f"    entries / ring hop {report.entries_per_ring_hop:.2f}"
              f"  ({report.ring_hops:,} hops)")
    if report.nodes:
        print(f"    entries / node  {report.entries_per_node:,.1f}"
              f"  ({report.nodes:,} nodes)")
    if report.scheduler:
        print(f"    posts past lap  {report.scheduler['overflow_spills']:,}")
    for layer, count in sorted(report.by_layer.items(), key=lambda kv: -kv[1]):
        print(f"      {layer:<24} {count:,}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.perf")
    parser.add_argument("scenario", help="named scenario (see: list)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--per-kind", action="store_true",
                        help="break events down by stack layer")
    parser.add_argument("--json", help="write the report as JSON")
    args = parser.parse_args(argv)

    if args.scenario == "list":
        for name in scenario_names():
            print(name)
        return 0
    if args.scenario not in SCENARIOS:
        print(f"unknown scenario {args.scenario!r}; known: "
              f"{', '.join(scenario_names())}", file=sys.stderr)
        return 2

    result, total, ring_up, workload = profile_scenario(
        args.scenario, seed=args.seed, per_kind=args.per_kind
    )
    status = "OK" if result.ok else "FAIL"
    print(f"[{status}] {result.name} (seed {result.seed})")
    _print_report("total (build + ring-up + workload)", total)
    _print_report("ring-up (built -> ring up)", ring_up)
    _print_report("workload window (armed -> settled)", workload)

    if args.json:
        payload = {
            "scenario": result.name,
            "seed": result.seed,
            "ok": result.ok,
            "total": total.to_dict(),
            "ring_up": ring_up.to_dict(),
            "workload": workload.to_dict(),
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {args.json}")
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
