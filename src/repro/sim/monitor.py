"""Trace recording and lightweight statistics for simulation runs.

The analysis layer (:mod:`repro.analysis`) and every benchmark consume the
structures defined here.  Recording is cheap (a hash update, an integer
bump and, when kept, an append) so it can stay enabled during benchmarks
without distorting them.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "TraceRecord",
    "Tracer",
    "trace_line",
    "NULL_TRACER",
    "Counter",
    "LatencyStat",
    "ConvergenceTracker",
]


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One trace entry: what happened, where, when."""

    time: int
    category: str
    source: str
    data: Dict[str, Any]


def trace_line(rec: TraceRecord) -> str:
    """The canonical line of a record, newline included:
    ``repr((time, category, source, sorted data items))``.  Only value
    types with version-stable ``repr`` appear in traces (ints, strs,
    tuples, None, floats), so the lines are comparable across Python
    3.10–3.12 and across platforms."""
    return repr((rec.time, rec.category, rec.source,
                 tuple(sorted(rec.data.items())))) + "\n"


class Tracer:
    """Event trace: a running digest and per-category counts of every
    record, the records themselves while ``retain`` holds (filtered by
    category on read, :meth:`select`), and live listeners.

    A single Tracer is shared by a whole cluster model; components call
    :meth:`record` with their own ``source`` tag.  A disabled tracer
    records nothing, which keeps hot paths cheap.  The digest is
    BLAKE2b-128 of every record's :func:`trace_line`, fed as the record
    is made, so it needs no record kept: the scenario runner, which
    reads only the digest and the counts, switches ``retain`` off.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        #: keep every record in ``records``
        self.retain = True
        self.records: List[TraceRecord] = []
        #: category -> records made
        self.counts: Dict[str, int] = {}
        self._hash = hashlib.blake2b(digest_size=16)
        self._listeners: List[Callable[[TraceRecord], None]] = []

    def subscribe(self, listener: Callable[[TraceRecord], None]) -> None:
        """Register a live listener (used by tests asserting on traces)."""
        self._listeners.append(listener)

    def __bool__(self) -> bool:
        """Truthiness == "will record": the cheap hot-path guard.

        Components sitting on per-frame paths write
        ``if tracer: tracer.record(...)`` so a disabled tracer costs one
        truth test instead of a keyword-argument call per frame.
        """
        return self.enabled

    def record(self, time: int, category: str, source: str, **data: Any) -> None:
        if not self.enabled:
            return
        rec = TraceRecord(time, category, source, data)
        self._hash.update(trace_line(rec).encode("utf-8"))
        self.counts[category] = self.counts.get(category, 0) + 1
        if self.retain:
            self.records.append(rec)
        for listener in self._listeners:
            listener(rec)

    def digest(self) -> str:
        """BLAKE2b-128 hex digest of every record made so far."""
        return self._hash.hexdigest()

    def select(
        self,
        category: Optional[str] = None,
        source: Optional[str] = None,
        since: Optional[int] = None,
    ) -> List[TraceRecord]:
        """Filter the trace by category, source prefix and/or start time."""
        out = self.records
        if category is not None:
            out = [r for r in out if r.category == category]
        if source is not None:
            out = [r for r in out if r.source.startswith(source)]
        if since is not None:
            out = [r for r in out if r.time >= since]
        return list(out)

    def clear(self) -> None:
        """Forget the kept records (the digest and counts go on)."""
        self.records.clear()


class _NullTracer(Tracer):
    """Always-off tracer: ``enabled`` reads False and ignores writes.

    The shared instance below is bound by every default-constructed
    device in the process, so it must be impossible to flip on — doing
    so would silently start recording every device into one list.
    """

    @property
    def enabled(self) -> bool:  # type: ignore[override]
        return False

    @enabled.setter
    def enabled(self, value: bool) -> None:
        pass  # permanently off by design


#: Shared disabled tracer: the default for every component that is not
#: handed a real one, so device construction stops allocating a throwaway
#: Tracer (plus records list) per NIC/switch/link.
NULL_TRACER = _NullTracer(enabled=False)


class Counter(dict):
    """Named integer counters with dict-like access.

    A dict subclass rather than a wrapper, and unset names read as zero,
    so the frame hop path counts with a plain ``counters[name] += 1``:
    no method call, which at 256-node scale was 2 M calls a run.
    """

    def incr(self, name: str, amount: int = 1) -> None:
        self[name] = self[name] + amount

    def __missing__(self, name: str) -> int:
        return 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({dict.__repr__(self)})"


class LatencyStat:
    """Streaming latency statistics (count/mean/min/max/percentiles).

    Stores every sample; the experiment scales here (<= millions of
    packets) make that fine and keep percentiles exact.
    """

    def __init__(self) -> None:
        self.samples: List[int] = []

    def add(self, value: int) -> None:
        self.samples.append(value)

    def extend(self, values: Iterable[int]) -> None:
        self.samples.extend(values)

    @property
    def count(self) -> int:
        return len(self.samples)

    def mean(self) -> float:
        return sum(self.samples) / len(self.samples) if self.samples else math.nan

    def minimum(self) -> int:
        return min(self.samples) if self.samples else 0

    def maximum(self) -> int:
        return max(self.samples) if self.samples else 0

    def percentile(self, p: float) -> float:
        """Exact percentile via linear interpolation (p in [0, 100])."""
        if not self.samples:
            return math.nan
        if not 0 <= p <= 100:
            raise ValueError("percentile out of range")
        data = sorted(self.samples)
        if len(data) == 1:
            return float(data[0])
        rank = (p / 100) * (len(data) - 1)
        lo = int(rank)
        hi = min(lo + 1, len(data) - 1)
        frac = rank - lo
        return data[lo] * (1 - frac) + data[hi] * frac

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "mean": self.mean(),
            "min": float(self.minimum()),
            "p50": self.percentile(50),
            "p99": self.percentile(99),
            "max": float(self.maximum()),
        }


class ConvergenceTracker:
    """Convergence metrics over per-observer verdict trace records.

    Subscribes live to a :class:`Tracer` and indexes the ``"membership"``
    records that carry ``peer`` and ``status`` fields, keyed by the
    record's ``source`` (the observer).
    From that index it answers the questions every churn experiment asks:

    * **time-to-detect** — how long after an incident did the *first*
      observer reach a verdict about the peer;
    * **time-to-converge** — how long until *every* required observer
      reached it (epidemic dissemination is only done when the last
      holdout agrees).

    Records are indexed on arrival, so tracking stays O(1) per record no
    matter how long the run, and needs no record kept by the tracer.
    """

    def __init__(self, tracer: Tracer):
        #: (peer, status) -> {observer source: every time it was recorded}.
        #: All times are kept (transitions are rare), so repeated
        #: incidents for the same peer — exactly what flapping and
        #: partition churn produce — stay measurable via ``since``.
        self._seen: Dict[Tuple[int, str], Dict[str, List[int]]] = {}
        tracer.subscribe(self._on_record)

    def _on_record(self, rec: TraceRecord) -> None:
        if rec.category != "membership":
            return
        peer = rec.data.get("peer")
        status = rec.data.get("status")
        if peer is None or status is None:
            return
        observers = self._seen.setdefault((peer, status), {})
        observers.setdefault(rec.source, []).append(rec.time)

    # ------------------------------------------------------------- queries
    def peers(self, status: str) -> List[int]:
        """Every peer some observer has recorded ``status`` for."""
        return sorted({peer for peer, st in self._seen if st == status})

    def verdict_times(
        self, peer: int, status: str, since: int = 0
    ) -> Dict[str, int]:
        """observer -> first time at/after ``since`` it reached ``status``."""
        out: Dict[str, int] = {}
        for src, times in self._seen.get((peer, status), {}).items():
            hits = [t for t in times if t >= since]
            if hits:
                out[src] = min(hits)
        return out

    def time_to_detect(
        self, peer: int, status: str = "DEAD", since: int = 0
    ) -> Optional[int]:
        """Incident -> first observer's verdict, or None if nobody has one."""
        times = self.verdict_times(peer, status, since)
        return min(times.values()) - since if times else None

    def time_to_converge(
        self,
        peer: int,
        observers: Iterable[str],
        since: int = 0,
    ) -> Optional[int]:
        """Incident -> last required observer's DEAD verdict, or None if
        any holdout."""
        times = self.verdict_times(peer, "DEAD", since)
        required = list(observers)
        if not required or any(obs not in times for obs in required):
            return None
        return max(times[obs] for obs in required) - since
