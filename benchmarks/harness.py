"""Shared machine-readable benchmark emission.

Every bench publishes one document, ``benchmarks/results/<exp>.json``:
schema-versioned, stable key order, no timestamps, nothing
wall-clock-derived — the seed determines every byte, so the files are
git-trackable and a diff is a change in simulated behaviour.  The human
table beside it (``<exp>.txt``) is :func:`render_text` of that same
document, never a second hand-built copy.

The document shape is pinned by ``SCHEMA_VERSION`` and enforced by
:func:`validate_payload`, a dependency-free validator (CI runs it with
nothing but the standard library).

Run ``python benchmarks/harness.py validate results/F3.json`` to check
an emission by hand, or ``... validate --all`` for every JSON result.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import textwrap
from typing import Any, Dict, List, Optional, Sequence, Tuple

SCHEMA_VERSION = "repro-bench/1"
RESULTS_DIR = pathlib.Path(__file__).parent / "results"

REQUIRED_KEYS = ("schema", "exp", "title", "params", "columns", "rows")
OPTIONAL_KEYS = ("metrics", "scenarios", "notes")


class BenchSchemaError(ValueError):
    """An emission does not conform to SCHEMA_VERSION."""


_SCALARS = (int, float, str, bool, type(None))


def bench_payload(
    exp: str,
    title: str,
    params: Dict[str, Any],
    columns: Sequence[str],
    rows: Sequence[Sequence[Any]],
    metrics: Optional[Dict[str, Any]] = None,
    scenarios: Optional[List[Dict[str, Any]]] = None,
    notes: str = "",
) -> Dict[str, Any]:
    """Assemble (and validate) one bench emission."""
    payload: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "exp": exp,
        "title": title,
        "params": dict(params),
        "columns": list(columns),
        "rows": [list(row) for row in rows],
    }
    if metrics:
        payload["metrics"] = dict(metrics)
    if scenarios:
        payload["scenarios"] = list(scenarios)
    if notes:
        payload["notes"] = notes
    validate_payload(payload)
    return payload


def validate_payload(payload: Any) -> None:
    """Enforce SCHEMA_VERSION with no third-party dependencies."""
    def fail(msg: str) -> None:
        raise BenchSchemaError(f"bench JSON invalid: {msg}")

    if not isinstance(payload, dict):
        fail(f"top level must be an object, got {type(payload).__name__}")
    unknown = set(payload) - set(REQUIRED_KEYS + OPTIONAL_KEYS)
    if unknown:
        fail(f"unknown keys {sorted(unknown)}")
    for key in REQUIRED_KEYS:
        if key not in payload:
            fail(f"missing required key {key!r}")
    if payload["schema"] != SCHEMA_VERSION:
        fail(f"schema {payload['schema']!r} != {SCHEMA_VERSION!r}")
    exp = payload["exp"]
    if not isinstance(exp, str) or not exp or not exp[0].isalpha() or not all(
        c.isalnum() or c == "_" for c in exp
    ):
        fail(f"exp {exp!r} must be an identifier-like string")
    if not isinstance(payload["title"], str):
        fail("title must be a string")
    if not isinstance(payload["params"], dict):
        fail("params must be an object")
    columns = payload["columns"]
    if (
        not isinstance(columns, list)
        or not columns
        or not all(isinstance(c, str) for c in columns)
    ):
        fail("columns must be a non-empty list of strings")
    rows = payload["rows"]
    if not isinstance(rows, list):
        fail("rows must be a list")
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            fail(f"row {i} is not a list")
        if len(row) != len(columns):
            fail(f"row {i} has {len(row)} cells for {len(columns)} columns")
        for cell in row:
            if not isinstance(cell, _SCALARS):
                fail(f"row {i} cell {cell!r} is not a JSON scalar")
    metrics = payload.get("metrics", {})
    if not isinstance(metrics, dict):
        fail("metrics must be an object")
    scenarios = payload.get("scenarios", [])
    if not isinstance(scenarios, list) or not all(
        isinstance(s, dict) for s in scenarios
    ):
        fail("scenarios must be a list of objects")
    if not isinstance(payload.get("notes", ""), str):
        fail("notes must be a string")


def write_result(payload: Dict[str, Any],
                 results_dir: pathlib.Path = RESULTS_DIR) -> pathlib.Path:
    """Validate and persist one emission as ``<exp>.json``.

    The write is atomic: the document is staged in a sibling temp file
    and lands via ``os.replace``, so concurrent sweep workers emitting
    into one results tree — or a crash mid-write — can never leave a
    truncated JSON where a committed result belongs.  Readers see
    either the old complete document or the new complete document.
    """
    validate_payload(payload)
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{payload['exp']}.json"
    tmp = results_dir / f".{payload['exp']}.json.{os.getpid()}.tmp"
    try:
        tmp.write_text(json.dumps(payload, indent=2) + "\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def render_text(payload: Dict[str, Any]) -> str:
    """The human table of one emission, rendered from the document
    itself: title, ``columns`` / ``rows``, ``metrics``, ``notes``."""
    # Imported here: ``validate`` runs without ``src/`` on the path.
    from repro.analysis import render_table

    blocks = [render_table(
        f"{payload['exp']}: {payload['title']}",
        payload["columns"], payload["rows"],
    )]
    if "metrics" in payload:
        blocks.append("\n".join(
            f"{key}: {value}" for key, value in payload["metrics"].items()
        ))
    if "notes" in payload:
        blocks.append(textwrap.fill(payload["notes"], 72))
    return "\n\n".join(blocks) + "\n"


def sizes_from_env(name: str, default: Sequence[int]) -> Tuple[int, ...]:
    """Size axis for a bench grid, overridable via the environment.

    ``F10_SIZES="4, 8" pytest ...`` style overrides used to be parsed
    ad hoc per bench, crashing on stray whitespace and silently
    accepting duplicates (which double-run and double-count a grid
    row).  This is the one shared parser: comma- or whitespace-
    separated integers, tolerant of trailing commas and blank tokens,
    strict about everything that would corrupt a grid — non-integer
    tokens, non-positive sizes and duplicates all raise ``ValueError``
    naming the variable.  Unset (or all-whitespace) falls back to
    ``default``.
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return tuple(default)
    tokens = [tok for tok in raw.replace(",", " ").split() if tok]
    if not tokens:
        raise ValueError(f"{name} is set but contains no sizes: {raw!r}")
    sizes: List[int] = []
    for token in tokens:
        try:
            value = int(token)
        except ValueError:
            raise ValueError(
                f"{name}: {token!r} is not an integer (in {raw!r})"
            ) from None
        if value < 1:
            raise ValueError(f"{name}: sizes must be positive, got {value}")
        if value in sizes:
            raise ValueError(
                f"{name}: duplicate size {value} (a duplicated size "
                "would double-run and double-count a grid row)"
            )
        sizes.append(value)
    return tuple(sizes)


def validate_file(path: pathlib.Path) -> None:
    with open(path) as fh:
        payload = json.load(fh)
    validate_payload(payload)


def _main(argv: List[str]) -> int:
    usage = ("usage: python benchmarks/harness.py validate "
             "(--all | PATH [PATH ...])")
    if not argv or argv[0] != "validate":
        print(usage, file=sys.stderr)
        return 2
    targets = argv[1:]
    if "--all" in targets:
        if targets != ["--all"]:
            print(usage, file=sys.stderr)
            return 2
        targets = sorted(str(p) for p in RESULTS_DIR.glob("*.json"))
        if not targets:
            print(f"no JSON results under {RESULTS_DIR}", file=sys.stderr)
            return 1
    if not targets:
        # Validating nothing must not look like success.
        print(usage, file=sys.stderr)
        return 2
    bad = 0
    for target in targets:
        try:
            validate_file(pathlib.Path(target))
        except (OSError, json.JSONDecodeError, BenchSchemaError) as exc:
            print(f"FAIL {target}: {exc}", file=sys.stderr)
            bad += 1
        else:
            print(f"ok   {target}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
