"""Tracing from outside the program: spans and a stack sampler.

Nothing here touches ``src/``.  Spans are recorded around the calls the
benchmark makes into the library (the runner's lifecycle phases); where
time goes *inside* a phase is answered by a ``setitimer(ITIMER_PROF)``
sampler that walks the interrupted Python stack and buckets it by
``repro.<package>``.  Both are kept in memory and written out when the
run ends.
"""

from __future__ import annotations

import json
import signal
from collections import Counter
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

#: sampler period: 4 ms of process CPU time (about 250 Hz)
SAMPLE_INTERVAL_S = 0.004


def layer_of_module(module: str) -> Optional[str]:
    """``repro.ring.mac`` -> ``ring``; ``repro.node`` -> ``node``; a
    module outside the program -> ``None``.

    ``repro.routing.cluster`` is the routed counterpart of the
    ``repro.cluster`` facade: its ``run()`` sits at the bottom of every
    stack of a routed scenario, so it is bucketed as ``cluster`` or the
    routing layer's inclusive share would read ~100 % on any mesh.
    """
    if module == "repro.routing.cluster":
        return "cluster"
    if module.startswith("repro."):
        return module.split(".", 2)[1]
    return None


def bucket_stack(modules: Iterable[str]) -> Tuple[str, Set[str]]:
    """Attribute one sampled stack, innermost frame first.

    Returns ``(self_layer, inclusive_layers)``: the layer of the
    innermost frame that belongs to the program (``"other"`` when none
    does: the benchmark's own code, or the interpreter between calls)
    and every layer with a frame anywhere on the stack.
    """
    self_layer = None
    inclusive: Set[str] = set()
    for module in modules:
        layer = layer_of_module(module)
        if layer is None:
            continue
        if self_layer is None:
            self_layer = layer
        inclusive.add(layer)
    return self_layer or "other", inclusive


def _frame_modules(frame) -> Iterator[str]:
    while frame is not None:
        yield frame.f_globals.get("__name__", "")
        frame = frame.f_back


class StackSampler:
    """Counts CPU-time samples per ``(phase, layer)``.

    ``phase`` is a label the caller moves as the run crosses lifecycle
    boundaries, so the set-up and the measured window keep separate
    tallies.  The handler only reads frames: the simulation cannot see
    it, which the runner's digest gate checks on every traced rep.
    """

    def __init__(self) -> None:
        self.phase = "idle"
        self.self_counts: Counter = Counter()
        self.incl_counts: Counter = Counter()

    def _on_sample(self, _signum, frame) -> None:
        self_layer, inclusive = bucket_stack(_frame_modules(frame))
        phase = self.phase
        self.self_counts[(phase, self_layer)] += 1
        for layer in inclusive:
            self.incl_counts[(phase, layer)] += 1

    def __enter__(self) -> "StackSampler":
        self._previous = signal.signal(signal.SIGPROF, self._on_sample)
        signal.setitimer(
            signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S
        )
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def samples(self, phase: str) -> int:
        return sum(n for (p, _), n in self.self_counts.items() if p == phase)

    def shares(self, phase: str) -> Tuple[Dict[str, float], Dict[str, float]]:
        """``(self, inclusive)`` shares of ``phase`` in percent; the
        self shares sum to 100 over the sampled buckets."""
        total = self.samples(phase)
        if not total:
            return {}, {}

        def pct(counts: Counter) -> Dict[str, float]:
            return {
                layer: 100.0 * n / total
                for (p, layer), n in counts.items()
                if p == phase
            }

        return pct(self.self_counts), pct(self.incl_counts)


class SpanLog:
    """Spans with id / parent / start / end, written as Chrome-trace JSON."""

    def __init__(self) -> None:
        self.spans: List[Dict] = []

    def add(self, name: str, start_s: float, end_s: float,
            parent: Optional[int] = None) -> int:
        span_id = len(self.spans) + 1
        self.spans.append({
            "id": span_id, "parent": parent, "name": name,
            "start_s": start_s, "end_s": end_s,
        })
        return span_id

    def write_chrome_trace(self, path) -> None:
        events = [
            {
                "name": s["name"], "ph": "X", "pid": 1, "tid": 1,
                "ts": s["start_s"] * 1e6,
                "dur": (s["end_s"] - s["start_s"]) * 1e6,
                "args": {"id": s["id"], "parent": s["parent"]},
            }
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
