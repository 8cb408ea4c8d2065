"""Deterministic discrete-event simulation kernel.

This is the substrate on which the whole AmpNet model runs.  Design goals,
in order:

1. **Determinism** — integer nanosecond clock, strict FIFO tie-breaking for
   events scheduled at the same instant, and seeded random streams (see
   :mod:`repro.sim.rand`).  Two runs with the same seed produce identical
   traces, which the failover experiments rely on.
2. **Speed** — one dict lookup per post and one heap pop per distinct
   instant (see below); callbacks are plain Python callables; events use
   ``__slots__``.  A full F3 all-to-all broadcast storm (16 nodes) pushes
   a few hundred thousand events and completes in seconds on a laptop,
   matching the repro band.
3. **Ergonomics** — simpy-style generator processes so protocol state
   machines (rostering, DMA engines, TCP baseline) read like sequential
   code.

Scheduler design
----------------

The schedule is a dict from instant (an int nanosecond) to what is due
then, beside a ``heapq`` of the distinct pending instants — plain ints.
A slot is either one entry or, once a second entry lands at the same
instant, a list of them in posting order; an entry is never a list, so
``type(held) is list`` tells the two shapes apart and a lone entry costs
the collector nothing.

A post is one ``dict.get`` and a store or an append; a post to a fresh
instant also pushes one int onto the heap.  How far ahead the instant
lies does not enter into it: an entry 100 µs out costs what one 100 ns
out does — and ring bring-up posts over half its entries more than
8 µs ahead, behind a flood (``docs/architecture.md``, "The event
scheduler").

The run loop pops the earliest instant, takes its slot out of the dict
and fires it.  Anything posted at that instant while the slot fires
lands in a fresh slot for the same instant, which the heap yields right
after.  So entries fire in ``(time, submission order)`` — what a
``(time, seq)`` heap does, pinned by the golden-trace digests and by the
reference heap in ``tests/property/test_scheduler_reference.py``.

An entry, once posted, fires: the kernel has no cancellation.  Every
timer in the tree is fire-and-guard — the handler checks a generation
counter or a due time it owns and returns when it has been superseded
(``docs/architecture.md``, "The event scheduler").
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional

from .events import AnyOf, Callback, Event, Process, SimulationError, Timeout
from .rand import SeededStreams

__all__ = ["Simulator", "StopSimulation"]

#: The reporting lap: a post landing outside the 8,192 ns-aligned lap
#: that holds ``now`` counts as an overflow spill.  The scheduler treats
#: such a post like any other; the count is kept because the benchmark's
#: ``sim.overflow_spills`` column reads it (see :meth:`scheduler_stats`).
_LAP_BITS = 13


class StopSimulation(Exception):
    """Raised internally to halt :meth:`Simulator.run` at an event."""


class Simulator:
    """Event loop with an integer-nanosecond clock.

    Parameters
    ----------
    seed:
        Master seed for the simulation's named random streams.  Every
        stochastic component (workload generators, fault injectors, jitter
        models) draws from ``sim.rng.stream(name)`` so components never
        perturb each other's randomness.

    An event that *fails* with no process waiting on it aborts the
    simulation by re-raising the exception, so a firmware process cannot
    die silently.
    """

    def __init__(self, seed: int = 0):
        self._now: int = 0
        # --- schedule (see module docstring) ---
        #: instant -> its entry, or a list of its entries in posting order
        self._slots: Dict[int, Any] = {}
        #: heap of the instants that have a slot; each appears once
        self._instants: List[int] = []
        #: posts that landed past the reporting lap holding ``now``
        self._spills: int = 0
        self.rng = SeededStreams(seed)
        #: total schedule entries processed; the kernel's throughput unit
        #: (see :mod:`repro.perf`).  Always maintained — an int bump per
        #: event is noise next to the slot operation.
        self.events_processed: int = 0
        #: optional observer called with each processed entry.  Purely
        #: read-only accounting (per-kind/per-layer event counts); it MUST
        #: NOT mutate simulation state, so enabling it cannot change the
        #: event sequence — a property the determinism tests pin.
        self.on_event: Optional[Callable[[Any], None]] = None

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now

    # ------------------------------------------------------------- factories
    def event(self) -> Event:
        """Create an untriggered event."""
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """An event that fires ``delay`` ns from now."""
        return Timeout(self, int(delay), value)

    def process(
        self,
        gen: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> Process:
        """Start a generator as a simulation process."""
        return Process(self, gen, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def call_at(self, time: int, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` at absolute simulated ``time`` (>= now).

        This is the allocation-light scheduling path: one slim
        :class:`~repro.sim.events.Callback` goes straight onto the
        schedule — no intermediate Timeout, wrapper lambda or callback
        list.  Nothing can wait on the entry (processes that need to wait
        should use :meth:`timeout`).
        """
        if time < self._now:
            raise SimulationError(f"call_at({time}) is in the past (now={self._now})")
        self._post(time, Callback(fn, args))

    def call_in(self, delay: int, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` ns (see :meth:`call_at`)."""
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        self._post(self._now + delay, Callback(fn, args))

    # ------------------------------------------------------------- scheduling
    # CONTRACT: ``sim._post(fire_time, entry)`` is the one scheduling
    # primitive: entries at the same instant fire in submission order.
    # ``fire_time`` must be >= now; the public wrappers validate, hot
    # producers schedule only non-negative offsets from now by construction.
    #
    # The kernel never looks at an entry's identity, so one entry may sit
    # on the schedule any number of times and fires once per post.  The
    # per-frame producers rely on that — phys/link.py (an arrival per
    # frame), phys/switch.py (a crossing per frame that has to queue for
    # its egress; ring traffic that need not reserves the link's wire
    # and posts nothing), ring/mac.py (an emit per frame, and a pick
    # either side of it only under contention): each device posts the
    # *same* ``Callback`` for every frame and keeps the frames in a FIFO
    # of its own, which is exact because the device's fire times never
    # decrease from one post to the next.  A device that has to void its
    # pending firings swaps in a fresh entry and re-points the old one
    # (see ``SerialLink.go_down``, ``RingMAC._unfuse``).
    def _post(self, time: int, entry: Any) -> None:
        slots = self._slots
        held = slots.get(time)
        if held is None:
            slots[time] = entry
            heappush(self._instants, time)
        elif type(held) is list:
            held.append(entry)
        else:
            slots[time] = [held, entry]
        if (time ^ self._now) >> _LAP_BITS:
            self._spills += 1

    def _enqueue(self, event: Event, delay: int = 0) -> None:
        """Put a triggered event on the schedule (kernel internal)."""
        self._post(self._now + delay, event)

    def _requeue(self, time: int, unfired: List[Any]) -> None:
        """Put the unfired tail of instant ``time`` back on the schedule,
        ahead of anything posted for ``time`` while it fired."""
        if not unfired:
            return
        later = self._slots.get(time)
        if later is None:
            heappush(self._instants, time)
            later = []
        elif type(later) is not list:
            later = [later]
        self._slots[time] = unfired + later

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until the schedule drains,
        * an ``int`` — run until simulated time reaches that instant,
        * an :class:`Event` — run until that event is processed, returning
          its value (or raising its failure).
        """
        if until is None:
            stop_time: Optional[int] = None
        elif isinstance(until, Event):
            if until.processed:
                if until._ok:
                    return until._value
                raise until._value  # type: ignore[misc]
            assert until.callbacks is not None
            until.callbacks.append(self._stop_on)
            stop_time = None
        else:
            stop_time = int(until)
            if stop_time < self._now:
                raise SimulationError(
                    f"run(until={stop_time}) is in the past (now={self._now})"
                )

        # Hot loop: pop the earliest instant, take its slot out of the
        # dict and fire it.  At production scale (128/256-node rings)
        # per-event attribute lookups are a measurable fraction of the
        # run, so hot names are bound to locals once.
        instants = self._instants
        take = self._slots.pop
        observer = self.on_event
        callback_type = Callback
        processed = 0
        try:
            while instants:
                t = heappop(instants)
                if stop_time is not None and t > stop_time:
                    heappush(instants, t)
                    break
                held = take(t)
                self._now = t
                # A lone entry fires as it is, with no sequence built
                # around it; a list keeps its place in case one raises.
                if type(held) is not list:
                    processed += 1
                    if observer is not None:
                        observer(held)
                    if type(held) is callback_type:
                        held.fn(*held.args)
                        continue
                    had_waiters = bool(held.callbacks)
                    held._process()
                    if not held._ok and not had_waiters:
                        # A failure nobody observed: surface it.
                        raise held._value
                    continue
                i = 0
                try:
                    for entry in held:
                        i += 1
                        if observer is not None:
                            observer(entry)
                        if type(entry) is callback_type:
                            entry.fn(*entry.args)
                            continue
                        had_waiters = bool(entry.callbacks)
                        entry._process()
                        if not entry._ok and not had_waiters:
                            raise entry._value
                except BaseException:
                    # Keep the not-yet-fired entries at this instant so a
                    # later run() resumes exactly where this one stopped.
                    processed += i
                    self._requeue(t, held[i:])
                    raise
                processed += i
        except StopSimulation as stop:
            event = stop.args[0]
            if event._ok:
                return event._value
            raise event._value from None
        finally:
            self.events_processed += processed
        if stop_time is not None:
            # The horizon was reached, or the schedule drained before it:
            # advance the clock anyway so repeated run(until=...) calls
            # observe monotonic time.
            self._now = stop_time
        if isinstance(until, Event) and not until.processed:
            raise SimulationError("run(until=event): schedule drained first")
        return None

    @staticmethod
    def _stop_on(event: Event) -> None:
        raise StopSimulation(event)

    def run_until(
        self,
        condition: Callable[[], bool],
        timeout_ns: int,
        step_ns: int,
        what: str,
    ) -> int:
        """Advance in ``step_ns`` slices until ``condition()`` holds;
        returns now.  The condition is polled from outside the schedule,
        so waiting never adds an entry to the timeline.  Raises
        :class:`SimulationError` (``"<what> before the horizon"``) when
        ``timeout_ns`` passes first."""
        horizon = self._now + timeout_ns
        while self._now < horizon:
            if condition():
                return self._now
            self.run(until=min(self._now + step_ns, horizon))
        if condition():
            return self._now
        raise SimulationError(f"{what} before the horizon")

    # ------------------------------------------------------- introspection
    def scheduler_stats(self) -> Dict[str, int]:
        """Occupancy counters for :mod:`repro.perf` and tests."""
        hist = self.instant_histogram()
        return {
            # the reporting lap in ns; benchmarks/e2e/run.py (drive_kernel)
            # reads it to place its posts inside or past one lap
            "wheel_slots": 1 << _LAP_BITS,
            # posts that landed past the lap holding now; read by
            # benchmarks/e2e/run.py (drive_kernel, sim.overflow_spills)
            "overflow_spills": self._spills,
            "pending_entries": sum(n * count for n, count in hist.items()),
            "pending_instants": len(self._instants),
        }

    def instant_histogram(self) -> Dict[int, int]:
        """Map entries-per-pending-instant -> number of such instants."""
        hist: Dict[int, int] = {}
        for held in self._slots.values():
            n = len(held) if type(held) is list else 1
            hist[n] = hist.get(n, 0) + 1
        return hist

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        queued = self.scheduler_stats()["pending_entries"]
        return f"<Simulator now={self._now}ns queued={queued}>"
