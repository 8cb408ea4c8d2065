"""Benchmark trajectory differ: are two ``results/`` trees equal?

::

    python benchmarks/diff_results.py OLD_DIR NEW_DIR
    python benchmarks/diff_results.py OLD_DIR NEW_DIR --check

Every bench emits schema-versioned JSON (``repro-bench/1``) holding
only what the seed determines, so two emissions of one experiment at
one setup either agree or the simulated behaviour changed.  This tool
compares two such trees — typically the committed results against a
fresh emission — and flags, per experiment, every difference as a
**drift**:

* a ``metrics`` entry or a row cell whose value differs (integers,
  strings, booleans and nulls compare exactly; a float compares to
  ``FLOAT_NOISE``, the room ``repr`` round-tripping needs and nothing
  more);
* a metric or row present on one side only, or a changed column list
  (the rows under it are then not compared).

Rows are joined on the shortest prefix of leading cells that is unique
within each tree: plain benches join on their first column (node
count, stream name, ...), while sweep aggregates — which repeat the
first column across one row per (scenario, metric) — join on
(scenario, metric) instead of collapsing last-one-wins.

Two things are not drifts.  Experiments whose ``params`` differ are
*skipped*: a changed setup makes the numbers incomparable.  An
experiment only NEW has is a note.  An emission present in OLD but
missing from NEW **is** a failure (a deleted or silently-skipped bench
must not read as "equal"); pass ``--allow-missing`` when the removal is
intentional.

``--check`` exits non-zero when anything is flagged — the CI wiring
that keeps committed results honest.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys
from typing import Any, Dict, List, Optional, Tuple

#: Relative room a float cell gets: ``repr`` noise, not a drift budget.
FLOAT_NOISE = 1e-9

#: What the side lacking a metric or row shows in a drift.
ABSENT = "(absent)"


def same(old: Any, new: Any) -> bool:
    if isinstance(old, float) or isinstance(new, float):
        return (
            all(isinstance(v, (int, float)) for v in (old, new))
            and math.isclose(old, new, rel_tol=FLOAT_NOISE)
        )
    return old == new


class Drift:
    """One flagged difference."""

    def __init__(self, exp: str, where: str, old: Any, new: Any):
        self.exp = exp
        self.where = where
        self.old = old
        self.new = new

    def __str__(self) -> str:
        return f"  [DRIFT] {self.exp} {self.where}: {self.old} -> {self.new}"


def compare_exp(
    exp: str, old: Dict[str, Any], new: Dict[str, Any]
) -> List[Drift]:
    """Every difference between two same-setup emissions of ``exp``."""
    drifts: List[Drift] = []

    def compare(where: str, old_cells: Dict[str, Any],
                new_cells: Dict[str, Any]) -> None:
        for name in sorted(set(old_cells) | set(new_cells)):
            a = old_cells.get(name, ABSENT)
            b = new_cells.get(name, ABSENT)
            if not same(a, b):
                drifts.append(Drift(exp, where + name, a, b))

    compare("metrics.", old.get("metrics", {}), new.get("metrics", {}))

    # Rows: join on the shortest unique leading-cell key, then compare
    # cell by cell under the column's name.
    columns = old["columns"]
    if columns != new["columns"]:
        drifts.append(Drift(exp, "columns (rows not compared)",
                            columns, new["columns"]))
        return drifts
    width = _row_key_width(columns, old["rows"], new["rows"])
    old_rows = {tuple(row[:width]): row for row in old["rows"]}
    new_rows = {tuple(row[:width]): row for row in new["rows"]}
    for key in sorted(set(old_rows) | set(new_rows), key=str):
        label = key[0] if width == 1 else key
        if key not in old_rows or key not in new_rows:
            drifts.append(Drift(
                exp, f"row[{label!r}]",
                "present" if key in old_rows else ABSENT,
                "present" if key in new_rows else ABSENT,
            ))
            continue
        compare(f"row[{label!r}].",
                dict(zip(columns[width:], old_rows[key][width:])),
                dict(zip(columns[width:], new_rows[key][width:])))
    return drifts


def _row_key_width(columns: List[str], *row_sets: List[List[Any]]) -> int:
    """Shortest leading-cell prefix that uniquely keys every row set.

    A width-1 key suffices for plain bench tables; aggregate emissions
    repeat their first column, so the key widens until rows stop
    colliding (or every column is consumed).
    """
    for width in range(1, max(len(columns), 1) + 1):
        if all(
            len({tuple(row[:width]) for row in rows}) == len(rows)
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
    old_dir: pathlib.Path, new_dir: pathlib.Path
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
        if old_tree[exp]["params"] != new_tree[exp]["params"]:
            notes.append(f"  skipped {exp}: params changed (not comparable)")
            continue
        drifts.extend(compare_exp(exp, old_tree[exp], new_tree[exp]))
    return drifts, notes, missing


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python benchmarks/diff_results.py")
    parser.add_argument("old_dir", type=pathlib.Path)
    parser.add_argument("new_dir", type=pathlib.Path)
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when any drift (or missing "
                             "emission) is flagged")
    parser.add_argument("--allow-missing", action="store_true",
                        help="accept emissions present in OLD but "
                             "absent from NEW (intentional bench "
                             "removal)")
    args = parser.parse_args(argv)

    for path in (args.old_dir, args.new_dir):
        if not path.is_dir():
            print(f"not a directory: {path}", file=sys.stderr)
            return 2

    drifts, notes, missing = diff_trees(args.old_dir, args.new_dir)
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
        print(f"ok: {args.new_dir} equals {args.old_dir}")
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
