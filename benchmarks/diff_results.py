"""Benchmark trajectory differ: compare two ``results/`` trees.

::

    python benchmarks/diff_results.py OLD_DIR NEW_DIR
    python benchmarks/diff_results.py OLD_DIR NEW_DIR --check --tolerance 0.1

Every bench emits schema-versioned JSON (``repro-bench/1``); this tool
compares two such trees — typically the committed results against a
fresh emission, or two commits' results directories — and reports, per
experiment:

* **metric drift** — numeric ``metrics`` entries whose relative change
  exceeds the tolerance.  Wall-clock-derived numbers are inherently
  machine-dependent, so they get their own (much looser) tolerance;
  only the experiments that time the host have any
  (``VOLATILE_MARKERS``).  Simulated-time numbers (latencies in ns,
  counts, drops, ratios of the two) are deterministic under the seed
  and held to the strict tolerance.
* **row drift** — numeric cells of rows whose key matches across both
  trees.  The row key is the shortest prefix of leading cells that is
  unique within each tree: plain benches join on their first column
  (node count, stream name, ...) exactly as before, while sweep
  aggregates — which repeat the first column across one row per
  (scenario, metric) — automatically join on (scenario, metric).
  Joining on the first column alone used to collapse such rows
  (last-one-wins), silently comparing the wrong cells.
* **coverage changes** — experiments present on only one side, and rows
  or metrics added/removed.  An emission present in OLD but missing
  entirely from NEW is a **failure** (a deleted or silently-skipped
  bench must not read as "no drift"); pass ``--allow-missing`` when the
  removal is intentional.

Experiments whose ``params`` differ are *skipped*, not compared: a
changed setup (smoke sizes, different workload) makes numbers
incomparable, and pretending otherwise would drown real regressions in
noise.

``--check`` exits non-zero when any in-tolerance-scope drift is found —
the CI wiring that keeps committed results honest.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Any, Dict, List, Optional, Tuple

DEFAULT_TOLERANCE = 0.05
DEFAULT_VOLATILE_TOLERANCE = 1.0

#: Substrings marking a metric/column as wall-clock-derived, for the
#: experiments that time the host.  Every number of every other
#: emission is simulated: F9's ``detection_speedup`` is a ratio of two
#: simulated detection times, and a bare substring match used to hand
#: it the wall-clock bound.
VOLATILE_MARKERS = {
    "P1": ("wall", "per_sec", "speedup"),
    "P4": ("wall", "per_sec"),
}


def is_volatile(exp: str, name: str) -> bool:
    low = name.lower()
    return any(marker in low for marker in VOLATILE_MARKERS.get(exp, ()))


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def rel_change(old: float, new: float) -> float:
    if old == new:
        return 0.0
    if old == 0:
        return float("inf")
    return abs(new - old) / abs(old)


class Drift:
    """One flagged difference."""

    def __init__(self, exp: str, where: str, old: Any, new: Any,
                 change: float, volatile: bool):
        self.exp = exp
        self.where = where
        self.old = old
        self.new = new
        self.change = change
        self.volatile = volatile

    def __str__(self) -> str:
        tag = "volatile" if self.volatile else "METRIC"
        pct = ("inf" if self.change == float("inf")
               else f"{self.change * 100:.1f}%")
        return (f"  [{tag}] {self.exp} {self.where}: "
                f"{self.old} -> {self.new} ({pct})")


def compare_exp(
    exp: str,
    old: Dict[str, Any],
    new: Dict[str, Any],
    tolerance: float,
    volatile_tolerance: float,
) -> Tuple[List[Drift], List[str]]:
    """Compare one experiment's payloads; returns (drifts, notes)."""
    notes: List[str] = []
    if old.get("params") != new.get("params"):
        return [], [f"  skipped {exp}: params changed (not comparable)"]

    drifts: List[Drift] = []

    old_metrics = old.get("metrics", {})
    new_metrics = new.get("metrics", {})
    for key in sorted(set(old_metrics) | set(new_metrics)):
        if key not in old_metrics:
            notes.append(f"  note {exp}: metric {key!r} added")
            continue
        if key not in new_metrics:
            notes.append(f"  note {exp}: metric {key!r} removed")
            continue
        a, b = old_metrics[key], new_metrics[key]
        if not (_is_number(a) and _is_number(b)):
            if a != b:
                notes.append(f"  note {exp}: metric {key!r} {a!r} -> {b!r}")
            continue
        volatile = is_volatile(exp, key)
        limit = volatile_tolerance if volatile else tolerance
        change = rel_change(a, b)
        if change > limit:
            drifts.append(Drift(exp, f"metrics.{key}", a, b, change, volatile))

    # Rows: join on the shortest unique leading-cell key, compare
    # numeric cells per column.
    columns = old.get("columns", [])
    if columns == new.get("columns", []):
        width = _row_key_width(columns, old.get("rows", []),
                               new.get("rows", []))
        old_rows = {tuple(row[:width]): row
                    for row in old.get("rows", []) if row}
        new_rows = {tuple(row[:width]): row
                    for row in new.get("rows", []) if row}
        for key in sorted(set(old_rows) | set(new_rows), key=str):
            label = key[0] if width == 1 else key
            if key not in old_rows:
                notes.append(f"  note {exp}: row {label!r} added")
                continue
            if key not in new_rows:
                notes.append(f"  note {exp}: row {label!r} removed")
                continue
            for col, a, b in zip(columns[width:], old_rows[key][width:],
                                 new_rows[key][width:]):
                if not (_is_number(a) and _is_number(b)):
                    continue
                volatile = is_volatile(exp, col)
                limit = volatile_tolerance if volatile else tolerance
                change = rel_change(a, b)
                if change > limit:
                    drifts.append(Drift(
                        exp, f"row[{label!r}].{col}", a, b, change, volatile
                    ))
    else:
        notes.append(f"  note {exp}: columns changed (rows not compared)")

    return drifts, notes


def _row_key_width(columns: List[str], *row_sets: List[List[Any]]) -> int:
    """Shortest leading-cell prefix that uniquely keys every row set.

    A width-1 key (the historical behaviour) suffices for plain bench
    tables; aggregate emissions repeat their first column, so the key
    widens until rows stop colliding (or every column is consumed).
    """
    for width in range(1, max(len(columns), 1) + 1):
        if all(
            len({tuple(row[:width]) for row in rows if row}) ==
            len([row for row in rows if row])
            for rows in row_sets
        ):
            return width
    return len(columns)


def load_tree(path: pathlib.Path) -> Dict[str, Dict[str, Any]]:
    out: Dict[str, Dict[str, Any]] = {}
    for json_path in sorted(path.glob("*.json")):
        with open(json_path) as fh:
            payload = json.load(fh)
        if payload.get("schema", "").startswith("repro-bench/"):
            out[payload["exp"]] = payload
    return out


def diff_trees(
    old_dir: pathlib.Path,
    new_dir: pathlib.Path,
    tolerance: float = DEFAULT_TOLERANCE,
    volatile_tolerance: float = DEFAULT_VOLATILE_TOLERANCE,
) -> Tuple[List[Drift], List[str], List[str]]:
    """-> (drifts, notes, missing): ``missing`` lists experiments whose
    emission exists in OLD but vanished from NEW — coverage loss, which
    ``--check`` treats as a failure unless ``--allow-missing``."""
    old_tree = load_tree(old_dir)
    new_tree = load_tree(new_dir)
    drifts: List[Drift] = []
    notes: List[str] = []
    missing: List[str] = []
    for exp in sorted(set(old_tree) | set(new_tree)):
        if exp not in old_tree:
            notes.append(f"  note {exp}: new experiment (no old emission)")
            continue
        if exp not in new_tree:
            missing.append(exp)
            continue
        exp_drifts, exp_notes = compare_exp(
            exp, old_tree[exp], new_tree[exp], tolerance, volatile_tolerance
        )
        drifts.extend(exp_drifts)
        notes.extend(exp_notes)
    return drifts, notes, missing


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python benchmarks/diff_results.py")
    parser.add_argument("old_dir", type=pathlib.Path)
    parser.add_argument("new_dir", type=pathlib.Path)
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="relative drift allowed for deterministic "
                             f"metrics (default {DEFAULT_TOLERANCE})")
    parser.add_argument("--volatile-tolerance", type=float,
                        default=DEFAULT_VOLATILE_TOLERANCE,
                        help="relative drift allowed for wall-clock-derived "
                             f"metrics (default {DEFAULT_VOLATILE_TOLERANCE})")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when any drift (or missing "
                             "emission) is flagged")
    parser.add_argument("--allow-missing", action="store_true",
                        help="tolerate emissions present in OLD but "
                             "absent from NEW (intentional bench "
                             "removal)")
    args = parser.parse_args(argv)

    for path in (args.old_dir, args.new_dir):
        if not path.is_dir():
            print(f"not a directory: {path}", file=sys.stderr)
            return 2

    drifts, notes, missing = diff_trees(
        args.old_dir, args.new_dir,
        tolerance=args.tolerance,
        volatile_tolerance=args.volatile_tolerance,
    )
    for note in notes:
        print(note)
    if args.allow_missing:
        for exp in missing:
            print(f"  note {exp}: missing from new tree (allowed)")
        missing = []
    else:
        for exp in missing:
            print(f"  [MISSING] {exp}: present in OLD, no emission in NEW "
                  "(deleted bench? pass --allow-missing if intentional)")
    for drift in drifts:
        print(drift)
    if not drifts and not missing:
        print(f"ok: no metric drift beyond tolerance "
              f"({args.old_dir} vs {args.new_dir})")
        return 0
    flagged = []
    if drifts:
        flagged.append(f"{len(drifts)} drift(s)")
    if missing:
        flagged.append(f"{len(missing)} missing emission(s)")
    print(" + ".join(flagged) + " flagged")
    return 1 if args.check else 0


if __name__ == "__main__":
    sys.exit(main())
