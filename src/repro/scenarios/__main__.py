"""Command-line front end for the scenario engine.

::

    python -m repro.scenarios list
    python -m repro.scenarios run slide7_mixed [--seed N] [--json PATH]
    python -m repro.scenarios run all
    python -m repro.scenarios digest quiet_ring [--seed N] [--runs 2]
    python -m repro.scenarios trace quiet_ring [--seed N] --out quiet_ring.trace

``run`` exits non-zero if any invariant fails; ``digest`` re-runs the
scenario and prints one trace digest per run (the golden-trace tests
document their update procedure in terms of this command).  ``trace``
writes the canonical line of every trace record as it is made, the
lines the digest hashes (the file's BLAKE2b-128 is the digest); two
dumps, say of a parent and of a change, diff to the first record where
the timelines part.

One run at a time: for a (scenario × seed × size) grid fanned across a
worker pool with aggregated statistics, use ``python -m repro.sweep``
(see :mod:`repro.sweep`).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..analysis import fmt_ns
from ..sim import trace_line
from .library import SCENARIOS, get_scenario, scenario_names
from .runner import ScenarioResult, ScenarioRunner, run_scenario


def print_result(result: ScenarioResult) -> None:
    """One human-readable block per run (shared with ``repro.sweep``)."""
    status = "OK" if result.ok else "FAIL"
    span = result.end_ns - result.ring_up_ns
    print(f"[{status}] {result.name} (seed {result.seed}): "
          f"ring up at {fmt_ns(result.ring_up_ns)}, "
          f"ran {fmt_ns(span)} ({span // max(result.tour_ns, 1)} tours)")
    c = result.counters
    print(f"       offered {c['offered']}  delivered {c['delivered']}  "
          f"ring drops {c['ring_drops']}  faults {c['faults_fired']}  "
          f"trace records {c['trace_records']}")
    for inv in result.invariants:
        mark = "+" if inv.ok else "-"
        detail = f" ({inv.detail})" if inv.detail else ""
        print(f"       [{mark}] {inv.name}{detail}")
    print(f"       trace digest {result.trace_digest}")


def _topology_summary(topo) -> str:
    """Compact shape tag: ``6n/4sw`` or ``128+128n/1r`` for routed."""
    if topo.multi_segment:
        sizes = "+".join(str(s.n_nodes) for s in topo.segments)
        return f"{sizes}n/{len(topo.routers)}r"
    return f"{topo.n_nodes}n/{topo.n_switches}sw"


def one_line_description(spec) -> str:
    """The spec's description collapsed to a single line.

    Multi-line description strings used to render their continuation
    lines under the wrong column (so several list entries *looked*
    blank); normalizing the whitespace guarantees one honest line per
    scenario, with a visible placeholder when a spec forgot to describe
    itself.
    """
    return " ".join(spec.description.split()) or "(no description)"


def cmd_list(_args: argparse.Namespace) -> int:
    width = max(len(n) for n in scenario_names())
    for name in scenario_names():
        spec = SCENARIOS[name]()
        tags = []
        if spec.membership:
            tags.append("membership")
        if spec.faults:
            tags.append(f"{len(spec.faults)} faults")
        suffix = f"  [{', '.join(tags)}]" if tags else ""
        print(f"{name:<{width}}  {_topology_summary(spec.topology)}{suffix}")
        print(f"{'':{width}}  {one_line_description(spec)}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    names = scenario_names() if args.name == "all" else [args.name]
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        print(f"unknown scenario {unknown[0]!r}; known: "
              f"{', '.join(scenario_names())}", file=sys.stderr)
        return 2
    results = []
    for name in names:
        spec = get_scenario(name, seed=args.seed)
        result = run_scenario(spec)
        print_result(result)
        results.append((spec, result))
    if args.json:
        # Always a list, even for one scenario: consumers get one shape.
        payload = [
            {"spec": spec.to_dict(), "result": result.to_dict()}
            for spec, result in results
        ]
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {args.json}")
    return 0 if all(r.ok for _s, r in results) else 1


def cmd_digest(args: argparse.Namespace) -> int:
    if args.name not in SCENARIOS:
        print(f"unknown scenario {args.name!r}; known: "
              f"{', '.join(scenario_names())}", file=sys.stderr)
        return 2
    digests = []
    for _ in range(args.runs):
        spec = get_scenario(args.name, seed=args.seed)
        digests.append(run_scenario(spec).trace_digest)
    for d in digests:
        print(d)
    if len(set(digests)) != 1:
        print("DIVERGED: same-seed runs produced different digests",
              file=sys.stderr)
        return 1
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    if args.name not in SCENARIOS:
        print(f"unknown scenario {args.name!r}; known: "
              f"{', '.join(scenario_names())}", file=sys.stderr)
        return 2
    with open(args.out, "w", encoding="utf-8") as fh:

        def dump(phase: str) -> None:
            # The cluster exists, and has recorded nothing, from "built".
            if phase == "built":
                runner.cluster.tracer.subscribe(
                    lambda rec: fh.write(trace_line(rec)))

        runner = ScenarioRunner(get_scenario(args.name, seed=args.seed),
                                phase_hook=dump)
        result = runner.run()
    print(f"wrote {result.counters['trace_records']} records to {args.out} "
          f"(digest {result.trace_digest})")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.scenarios")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the named scenarios")

    run_p = sub.add_parser("run", help="run a named scenario (or 'all')")
    run_p.add_argument("name", help="scenario name or 'all'")
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--json", help="write spec+result JSON to this path")

    dig_p = sub.add_parser("digest", help="print trace digests of repeat runs")
    dig_p.add_argument("name")
    dig_p.add_argument("--seed", type=int, default=None)
    dig_p.add_argument("--runs", type=int, default=2)

    trace_p = sub.add_parser(
        "trace", help="write the canonical trace lines the digest hashes")
    trace_p.add_argument("name")
    trace_p.add_argument("--seed", type=int, default=None)
    trace_p.add_argument("--out", required=True, help="file to write")

    args = parser.parse_args(argv)
    if args.command == "list":
        return cmd_list(args)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "trace":
        return cmd_trace(args)
    return cmd_digest(args)


if __name__ == "__main__":
    sys.exit(main())
