"""Compare two result documents of ``run.py --out``.

::

    python3 benchmarks/e2e/compare.py A.json B.json

One row per workload x metric, A the parent and B the change.  Host
metrics are held to the relative bound ``BENCHMARK.json`` gives them;
simulated statistics (``sim_*``) and the failed-operation count repeat
exactly under a seed and are held to equality, so any drift there is a
regression no matter how small.  Exits 1 if any row regressed.

Verdicts: ``same`` (within the bound), ``regressed``, ``improved``
(better by more than the bound, or every quartile of B clear of A's),
``unresolved`` (the run-to-run spread of either side is wider than the
bound, so "no change" cannot be told from "changed").
"""

from __future__ import annotations

import json
import pathlib
import sys
from typing import Any, Dict, Iterator, List, Tuple

CONTRACT_PATH = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def relative_verdict(a: Dict[str, float], b: Dict[str, float],
                     bound: float, better: str) -> str:
    """``a``/``b``: ``{"value", "q1", "q3"}`` of parent and change."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"]) / a["value"]
    if worse_by > bound:
        return "regressed"
    if better == "lower":
        b_clear_of_a = b["q3"] < a["q1"]
    else:
        b_clear_of_a = b["q1"] > a["q3"]
    widest = max((m["q3"] - m["q1"]) / m["value"] for m in (a, b))
    if widest > bound:
        return "improved" if b_clear_of_a else "unresolved"
    return "improved" if worse_by < -bound else "same"


def exact_verdict(a: float, b: float) -> str:
    return "same" if a == b else "regressed"


def rows(doc_a: Dict[str, Any], doc_b: Dict[str, Any],
         contract: Dict[str, Any]) -> Iterator[Tuple[str, str, Any, Any, str]]:
    """``(workload, metric, a, b, verdict)`` for every comparable pair."""
    exact_names = [m["name"] for m in contract["per_layer"]
                   if m["name"].startswith("sim_")]
    for workload, entry_a in doc_a["workloads"].items():
        entry_b = doc_b["workloads"].get(workload)
        if entry_b is None:
            yield workload, "(workload)", "present", "missing", "regressed"
            continue
        rec_a, rec_b = entry_a["untraced"], entry_b["untraced"]
        for m in contract["end_to_end"]:
            a, b = rec_a["values"][m["name"]], rec_b["values"][m["name"]]
            yield (workload, m["name"], a["value"], b["value"],
                   relative_verdict(a, b, m["bound"], m["better"]))
        for name in exact_names:
            a = rec_a["values"][name]["value"]
            b = rec_b["values"][name]["value"]
            yield workload, name, a, b, exact_verdict(a, b)
        yield (workload, "failed_ops", rec_a["failed"], rec_b["failed"],
               exact_verdict(rec_a["failed"], rec_b["failed"]))


def _fmt(v: Any) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path) as fh:
            docs.append(json.load(fh))
    with open(CONTRACT_PATH) as fh:
        contract = json.load(fh)
    if docs[0]["seed"] != docs[1]["seed"]:
        print(f"seeds differ ({docs[0]['seed']} vs {docs[1]['seed']}): the "
              f"simulated statistics are only comparable under one seed",
              file=sys.stderr)
        return 2
    regressed = 0
    print(f"{'workload':<12}{'metric':<22}{'A':>16}{'B':>16}  verdict")
    for workload, metric, a, b, verdict in rows(docs[0], docs[1], contract):
        regressed += verdict == "regressed"
        print(f"{workload:<12}{metric:<22}{_fmt(a):>16}{_fmt(b):>16}  {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
