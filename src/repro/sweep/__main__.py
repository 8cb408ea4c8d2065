"""Command-line front end for the sweep orchestrator.

::

    python -m repro.sweep run quiet_ring slide7_mixed \\
        --seeds 7,11,23 --workers 4 --exp S1
    python -m repro.sweep run large_ring_64 --seeds 1,2,3 --sizes 16,32
    python -m repro.sweep grid quiet_ring --seeds 1,2 --sizes 8,16

``run`` expands the (scenario × size × seed) grid, fans it across a
worker pool, prints each run in grid order as it lands and writes
the aggregate ``repro-bench/1`` JSON to ``<out>/<exp>.json`` (atomic
replace; grid order, so the file is byte-identical at any worker
count).  Exit status: 0 all invariants held, 1 failures or divergence,
2 usage errors.  ``grid`` prints the expansion without running it.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import List, Optional

from ..scenarios.__main__ import print_result
from ..scenarios.library import scenario_names
from ..scenarios.runner import ScenarioResult
from .aggregate import (
    SweepError,
    aggregate_payload,
    collect_failures,
    write_json,
)
from .grid import grid_from_names
from .runner import run_grid

DEFAULT_OUT = pathlib.Path("benchmarks") / "results"


def _parse_int_list(raw: str, flag: str) -> List[int]:
    """Tolerant comma/whitespace-separated integer list."""
    tokens = [t for t in raw.replace(",", " ").split() if t]
    if not tokens:
        raise argparse.ArgumentTypeError(f"{flag} is empty")
    out: List[int] = []
    for token in tokens:
        try:
            value = int(token)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{flag}: {token!r} is not an integer"
            ) from None
        out.append(value)
    return out


def _build_grid(args: argparse.Namespace):
    unknown = [n for n in args.scenarios if n not in scenario_names()]
    if unknown:
        raise SweepError(
            f"unknown scenario {unknown[0]!r}; known: "
            f"{', '.join(scenario_names())}"
        )
    return grid_from_names(
        args.scenarios, args.seeds, sizes=args.sizes,
        replicates=args.replicates,
    )


def cmd_grid(args: argparse.Namespace) -> int:
    grid = _build_grid(args)
    cells = grid.cells()
    for cell in cells:
        rep = f" replicate {cell.replicate}" if grid.replicates > 1 else ""
        print(f"[{cell.index:3d}] {cell.spec.name}  seed {cell.seed}{rep}")
    print(f"{len(cells)} runs "
          f"({len(grid.specs)} scenarios x {len(grid.seeds)} seeds"
          + (f" x {grid.replicates} replicates" if grid.replicates > 1
             else "") + ")")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    grid = _build_grid(args)
    total = len(grid.cells())
    done = {"n": 0}

    def progress(record) -> None:
        done["n"] += 1
        print(f"--- run {done['n']}/{total}: {record['name']} "
              f"seed {record['seed']} ---")
        if "error" in record:
            print(record["error"], end="")
        else:
            print_result(ScenarioResult.from_dict(record["result"]))

    print(f"sweep: {total} runs on {args.workers} worker(s)")
    records = run_grid(grid, workers=args.workers, progress=progress)
    payload = aggregate_payload(
        grid, records, exp=args.exp, title=args.title or "",
        notes=args.notes or "",
    )
    path = write_json(payload, pathlib.Path(args.out) / f"{args.exp}.json")
    print(f"wrote {path}")
    failures = collect_failures(records)
    if failures:
        for record in failures:
            result = ScenarioResult.from_dict(record["result"])
            bad = ", ".join(
                f"{inv.name} ({inv.detail})" if inv.detail else inv.name
                for inv in result.failures()
            )
            print(f"FAIL {record['name']} seed {record['seed']}: {bad}",
                  file=sys.stderr)
        print(f"{len(failures)}/{total} runs failed their invariants",
              file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sweep",
        description="Fan a (scenario x seed x size) grid across a "
                    "worker pool and emit one aggregate repro-bench/1 "
                    "JSON.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_grid_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("scenarios", nargs="+",
                       help="named scenarios (python -m repro.scenarios "
                            "list)")
        p.add_argument("--seeds", required=True,
                       type=lambda raw: _parse_int_list(raw, "--seeds"),
                       help="comma-separated seed axis, e.g. 7,11,23")
        p.add_argument("--sizes", default=None,
                       type=lambda raw: _parse_int_list(raw, "--sizes"),
                       help="optional n_nodes axis (single-segment "
                            "scenarios only)")
        p.add_argument("--replicates", type=int, default=1,
                       help="runs per (scenario, seed) cell; >1 enables "
                            "the same-seed divergence check (default 1)")

    grid_p = sub.add_parser("grid", help="print the grid expansion")
    add_grid_args(grid_p)

    run_p = sub.add_parser("run", help="run the grid and aggregate")
    add_grid_args(run_p)
    run_p.add_argument("--workers", type=int, default=4,
                       help="pool size (default 4; 1 = inline, no pool)")
    run_p.add_argument("--exp", required=True,
                       help="aggregate experiment id (also the filename)")
    run_p.add_argument("--out", default=str(DEFAULT_OUT),
                       help=f"output directory (default {DEFAULT_OUT})")
    run_p.add_argument("--title", default=None,
                       help="aggregate title (default derived from the "
                            "scenario names)")
    run_p.add_argument("--notes", default=None,
                       help="free-text notes embedded in the emission")

    args = parser.parse_args(argv)
    try:
        if args.command == "grid":
            return cmd_grid(args)
        return cmd_run(args)
    except (SweepError, ValueError) as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
