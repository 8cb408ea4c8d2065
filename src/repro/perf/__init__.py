"""Kernel-throughput instrumentation (``repro.perf``).

The simulation kernel counts every schedule entry it processes
(``Simulator.events_processed``); this package turns that into the
numbers the performance work is steered by:

* **events/sec** — kernel schedule entries processed per wall-clock
  second, the kernel's raw throughput unit;
* **wall-seconds per simulated second** — how much real time one second
  of simulated time costs (the "as fast as the hardware allows" metric);
* **per-layer event counts** — how the schedule entries split across the
  stack (phys.link arrivals, ring.mac picks, switch forwards, ...),
  derived from each entry's callback target;
* **entries per ring hop** — window events over the transit forwards the
  MACs made in it, the figure the data path is budgeted by (three on a
  quiet ring: emit, arrival at the switch, arrival at the next node —
  ``docs/architecture.md``, "The event scheduler");
* **entries per node** — the ring-up window's events over the nodes it
  brought up, the figure bring-up is budgeted by (one arrival per
  distinct rostering cell per switch, and little else);
* **scheduler occupancy** — what is pending at the close of the window
  (entries, distinct instants, the entries-per-instant histogram) and
  how many posts during the window landed past the 8.192 µs lap that
  held ``now`` (``overflow_spills``);
* **Python calls per entry** — :func:`count_calls` runs a callable under
  stdlib ``cProfile`` and folds the calls it made by stack layer, C
  builtins apart: the interpreter's work, exact at a seed, where wall
  time on a shared box is not;
* **heap by layer** — :func:`heap_by_layer` folds a ``tracemalloc``
  snapshot by the same stack layers: what the model keeps, by who
  allocated it.

Attaching a probe never changes simulation behaviour: the kernel's
``on_event`` observer is read-only accounting, so a run with the probe
enabled produces a byte-identical timeline to one without — a property
the determinism tests pin.

Usage::

    probe = PerfProbe(cluster.sim, per_kind=True)
    probe.start()
    cluster.run(until=...)
    report = probe.stop()
    print(report.events_per_sec)

or, for any named scenario, ``python -m repro.perf large_ring_128``.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from ..sim import Callback, Simulator

__all__ = [
    "BUILTINS", "PerfProbe", "PerfReport", "count_calls", "heap_by_layer",
    "layer_of",
]

#: the layer :func:`count_calls` files C builtins under
BUILTINS = "builtins"
_PACKAGE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def layer_of(entry: Any) -> str:
    """Classify one schedule entry to the stack layer that will run it.

    Slim callbacks are attributed by their target function's module
    (``repro.phys.link`` -> ``phys.link``); kernel events (timeouts,
    triggered events, process ends) are attributed to
    ``sim.<TypeName>``.  A process start is a slim callback into
    :mod:`repro.sim.events`, so it counts under ``sim.events``.
    """
    if type(entry) is Callback:
        module = getattr(entry.fn, "__module__", "") or ""
        if module.startswith("repro."):
            return module[len("repro."):]
        return module or "callback"
    return f"sim.{type(entry).__name__}"


def count_calls(fn: Callable[..., Any], *args: Any,
                **kwargs: Any) -> Tuple[Any, Dict[str, int]]:
    """Run ``fn(*args, **kwargs)`` under ``cProfile``; return its result
    and every call made meanwhile, by layer: the package below ``repro``
    of the function's file (:func:`layer_of`'s names to their first
    part: ``phys``, ``node``, ...), ``other`` outside ``repro``, and
    :data:`BUILTINS` for C functions (cProfile's file ``~``).  All but
    the last are the Python-level calls."""
    profile = cProfile.Profile()
    result = profile.runcall(fn, *args, **kwargs)
    calls: Dict[str, int] = {}
    for (filename, _line, _name), row in pstats.Stats(profile).stats.items():
        layer = BUILTINS if filename == "~" else _file_layer(filename)
        calls[layer] = calls.get(layer, 0) + row[1]
    return result, calls


def heap_by_layer(snapshot: tracemalloc.Snapshot) -> Dict[str, int]:
    """Live bytes of a ``tracemalloc`` snapshot by the layer of the file
    that allocated them (:func:`count_calls`'s layers; ``other`` is the
    standard library and the interpreter)."""
    heap: Dict[str, int] = {}
    for stat in snapshot.statistics("filename"):
        layer = _file_layer(stat.traceback[0].filename)
        heap[layer] = heap.get(layer, 0) + stat.size
    return heap


def _file_layer(filename: str) -> str:
    """The package below ``repro`` that ``filename`` is in, or ``other``."""
    rel = os.path.relpath(filename, _PACKAGE_DIR).split(os.sep)
    return "other" if rel[0] == os.pardir else rel[0].removesuffix(".py")


@dataclass
class PerfReport:
    """One measurement window's worth of kernel throughput numbers."""

    events: int
    sim_ns: int
    wall_s: float
    by_layer: Dict[str, int] = field(default_factory=dict)
    scheduler: Dict[str, Any] = field(default_factory=dict)
    #: transit forwards by every MAC in the window (the probe sees only
    #: the simulator; whoever holds the cluster fills this in)
    ring_hops: int = 0
    #: nodes the window's work is spread over (filled in likewise; what
    #: a ring bring-up is budgeted by)
    nodes: int = 0

    @property
    def entries_per_ring_hop(self) -> float:
        return self.events / self.ring_hops if self.ring_hops else 0.0

    @property
    def entries_per_node(self) -> float:
        return self.events / self.nodes if self.nodes else 0.0

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_s if self.wall_s else 0.0

    @property
    def sim_ns_per_wall_s(self) -> float:
        return self.sim_ns / self.wall_s if self.wall_s else 0.0

    @property
    def wall_s_per_sim_s(self) -> float:
        """Wall-seconds needed per simulated second (lower is faster)."""
        if not self.sim_ns:
            return float("inf")
        return self.wall_s / (self.sim_ns / 1e9)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "events": self.events,
            "sim_ns": self.sim_ns,
            "wall_s": round(self.wall_s, 6),
            "events_per_sec": round(self.events_per_sec, 1),
            "sim_ns_per_wall_s": round(self.sim_ns_per_wall_s, 1),
            "wall_s_per_sim_s": round(self.wall_s_per_sim_s, 6),
        }
        if self.ring_hops:
            out["ring_hops"] = self.ring_hops
            out["entries_per_ring_hop"] = round(self.entries_per_ring_hop, 3)
        if self.nodes:
            out["nodes"] = self.nodes
            out["entries_per_node"] = round(self.entries_per_node, 3)
        if self.by_layer:
            out["by_layer"] = dict(
                sorted(self.by_layer.items(), key=lambda kv: -kv[1])
            )
        if self.scheduler:
            out["scheduler"] = dict(self.scheduler)
        return out


class PerfProbe:
    """Measures kernel throughput over a window of a simulation run.

    ``per_kind=True`` additionally installs the kernel's ``on_event``
    observer to bucket every schedule entry by stack layer.  The
    observer costs one call per event, so leave it off when the raw
    events/sec number itself is what you are measuring.
    """

    def __init__(self, sim: Simulator, per_kind: bool = False):
        self.sim = sim
        self.per_kind = per_kind
        self._by_layer: Dict[str, int] = {}
        self._start_events = 0
        self._start_sim_ns = 0
        self._start_spills = 0
        self._start_wall = 0.0
        self._running = False
        #: the exact bound method installed as the kernel observer (bound
        #: methods are created per access, so identity checks need it)
        self._installed: Optional[Any] = None

    # ------------------------------------------------------------- window
    def start(self) -> None:
        """Open (or re-open) the measurement window at this instant."""
        if self.per_kind and self._installed is None:
            if self.sim.on_event is not None:
                # Silently skipping would break the sum(by_layer)==events
                # contract with an empty breakdown — refuse loudly.
                raise RuntimeError(
                    "Simulator.on_event is already occupied; only one "
                    "per-kind PerfProbe (or other observer) may be "
                    "attached at a time"
                )
            self._installed = self._observe
            self.sim.on_event = self._installed
        self._by_layer.clear()
        self._start_events = self.sim.events_processed
        self._start_sim_ns = self.sim.now
        self._start_spills = self.sim.scheduler_stats()["overflow_spills"]
        self._start_wall = time.perf_counter()
        self._running = True

    def snapshot(self) -> PerfReport:
        """Report for the window so far (window stays open)."""
        if not self._running:
            raise RuntimeError("PerfProbe.start() was never called")
        return PerfReport(
            events=self.sim.events_processed - self._start_events,
            sim_ns=self.sim.now - self._start_sim_ns,
            wall_s=time.perf_counter() - self._start_wall,
            by_layer=dict(self._by_layer),
            scheduler=self._scheduler_snapshot(),
        )

    def stop(self) -> PerfReport:
        """Close the window and return its report."""
        report = self.snapshot()
        self._running = False
        if self._installed is not None and self.sim.on_event is self._installed:
            self.sim.on_event = None
            self._installed = None
        return report

    # ----------------------------------------------------------- internal
    def _scheduler_snapshot(self) -> Dict[str, Any]:
        """Occupancy of the scheduler at this instant.

        Pending entries, pending instants and the histogram describe the
        schedule *now*; ``overflow_spills`` is a delta over the
        measurement window.  Reading these only walks the pending slots
        — the schedule itself is never mutated, so probed runs stay
        digest-identical to unprobed ones.
        """
        sim = self.sim
        stats = sim.scheduler_stats()
        return {
            "pending_entries": stats["pending_entries"],
            "pending_instants": stats["pending_instants"],
            # its readers are benchmarks/e2e/run.py:473 and bench P1
            "overflow_spills": stats["overflow_spills"] - self._start_spills,
            # entries-per-instant -> instant count, sparsest first
            "instant_histogram": {
                str(k): v for k, v in sorted(sim.instant_histogram().items())
            },
            # always 0 now; its reader is benchmarks/e2e/run.py:475
            "mac_pacer_coalesced": 0,
        }

    def _observe(self, entry: Any) -> None:
        layer = layer_of(entry)
        counts = self._by_layer
        counts[layer] = counts.get(layer, 0) + 1
