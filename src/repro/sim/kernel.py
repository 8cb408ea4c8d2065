"""Deterministic discrete-event simulation kernel.

This is the substrate on which the whole AmpNet model runs.  Design goals,
in order:

1. **Determinism** — integer nanosecond clock, strict FIFO tie-breaking for
   events scheduled at the same instant, and seeded random streams (see
   :mod:`repro.sim.rand`).  Two runs with the same seed produce identical
   traces, which the failover experiments rely on.
2. **Speed** — a hierarchical timer wheel (see below) sized for the
   simulator's dense near-future event distribution; callbacks are plain
   Python callables; events use ``__slots__``.  A full F3 all-to-all
   broadcast storm (16 nodes) pushes a few hundred thousand events and
   completes in seconds on a laptop, matching the repro band.
3. **Ergonomics** — simpy-style generator processes so protocol state
   machines (rostering, DMA engines, TCP baseline) read like sequential
   code.

Scheduler design
----------------

Profiling the broadcast-storm workloads showed the binary heap the kernel
started with spending ~a third of the run in ``heappush``/``heappop``
churn, on events whose firing times cluster within a few nanoseconds of
``now`` (serialization completions, switch hops, MAC pacing ticks — the
n=64 storm averages one event every ~3 ns of simulated time).  That dense
near-future regime is exactly what a calendar queue / timer wheel is for,
so the heap was replaced with a two-level structure:

* **Near wheel** — ``_WHEEL_SLOTS`` one-nanosecond slots covering one
  *lap* ``[lap_start, lap_start + _WHEEL_SLOTS)`` of simulated time,
  aligned to a multiple of the wheel size.  A slot is a bare list of
  entries: the fire time is implicit in the slot index and FIFO order is
  list order, so insertion is an O(1) append with no key tuple and no
  comparison at all.  Occupancy is tracked in a two-level bitmap (one
  64-bit word per group of 64 slots plus a summary word) so finding the
  next occupied slot is a couple of shifts regardless of how sparse the
  lap is.
* **Overflow heap** — entries beyond the current lap go to a classic
  ``(time, seq, entry)`` heap.  When the wheel drains, the kernel jumps
  the lap straight to the overflow head's lap (no empty-lap scanning)
  and refills every overflow entry that lands inside the new lap.

FIFO correctness at equal timestamps needs no per-entry sequence number
in the wheel: the lap only ever advances when the wheel is empty, so for
any slot, all overflow refills (scheduled in an earlier lap, drained in
heap ``(time, seq)`` order) land in the slot *before* any direct append
(only possible once the lap is current), and direct appends land in
submission order.  Slot order therefore equals submission order — the
same ``(time, seq)`` semantics the heap provided, and the golden-trace
digests pin it.

An entry, once posted, fires: the kernel has no cancellation.  Every
timer in the tree is fire-and-guard — the handler checks a generation
counter or a due time it owns and returns when it has been superseded
(``docs/architecture.md``, "The event scheduler").
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional, Tuple

from .events import AnyOf, Callback, Event, Process, SimulationError, Timeout
from .rand import SeededStreams

__all__ = ["Simulator", "StopSimulation"]

#: Near-wheel geometry.  8192 one-nanosecond slots cover ~8.2 µs per lap —
#: comfortably past serialization (~0.5 µs/cell), propagation (0.25 µs at
#: 50 m), switch latency (0.3 µs) and node transit (0.12 µs), so in the
#: storm workloads nearly every schedule lands in the current lap.
_WHEEL_BITS = 13
_WHEEL_SLOTS = 1 << _WHEEL_BITS
_WHEEL_MASK = _WHEEL_SLOTS - 1
_GROUP_SHIFT = 6  # 64 slots per occupancy word
_GROUPS = _WHEEL_SLOTS >> _GROUP_SHIFT


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
        # --- timer wheel state (see module docstring) ---
        self._wheel: List[List[Any]] = [[] for _ in range(_WHEEL_SLOTS)]
        self._occ: List[int] = [0] * _GROUPS
        self._occ_top: int = 0
        self._wheel_count: int = 0
        self._lap_start: int = 0
        self._lap_end: int = _WHEEL_SLOTS
        #: next instant the run loop will scan from; always <= now at
        #: every point where user code can schedule, so nothing lands
        #: behind it.
        self._cursor: int = 0
        self._overflow: List[Tuple[int, int, Any]] = []
        self._seq: int = 0  # FIFO tie-break for overflow entries only
        #: total schedules that missed the near wheel (occupancy metric)
        self._overflow_spills: int = 0
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
        :class:`~repro.sim.events.Callback` goes straight into a wheel
        slot — no intermediate Timeout, wrapper lambda or callback list.
        Nothing can wait on the entry (processes that need to wait
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
    # primitive: entries at the same instant fire in submission order, no
    # matter whether they land in a wheel slot or the overflow heap.
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
        if self._lap_start <= time < self._lap_end:
            idx = time & _WHEEL_MASK
            slot = self._wheel[idx]
            if not slot:
                g = idx >> _GROUP_SHIFT
                self._occ[g] |= 1 << (idx & 63)
                self._occ_top |= 1 << g
            slot.append(entry)
            self._wheel_count += 1
        else:
            heapq.heappush(self._overflow, (time, self._seq, entry))
            self._seq += 1
            self._overflow_spills += 1

    def _enqueue(self, event: Event, delay: int = 0) -> None:
        """Put a triggered event on the schedule (kernel internal)."""
        self._post(self._now + delay, event)

    def _advance_lap(self) -> None:
        """Jump the (empty) wheel to the overflow head's lap and refill."""
        head = self._overflow[0][0]
        lap_start = head & ~_WHEEL_MASK
        self._lap_start = lap_start
        self._lap_end = lap_end = lap_start + _WHEEL_SLOTS
        self._cursor = head
        overflow = self._overflow
        wheel = self._wheel
        occ = self._occ
        heappop = heapq.heappop
        count = 0
        while overflow and overflow[0][0] < lap_end:
            time, _seq, entry = heappop(overflow)
            idx = time & _WHEEL_MASK
            slot = wheel[idx]
            if not slot:
                g = idx >> _GROUP_SHIFT
                occ[g] |= 1 << (idx & 63)
                self._occ_top |= 1 << g
            slot.append(entry)
            count += 1
        self._wheel_count += count

    def _wheel_next(self) -> Optional[int]:
        """Earliest wheel-entry instant at/after the cursor, or None."""
        if not self._wheel_count:
            return None
        cursor = self._cursor
        idx = cursor & _WHEEL_MASK
        g = idx >> _GROUP_SHIFT
        x = self._occ[g] >> (idx & 63)
        if x:
            return cursor + ((x & -x).bit_length() - 1)
        top = self._occ_top >> (g + 1)
        if not top:  # pragma: no cover - nothing lands behind the cursor
            return None
        g2 = g + 1 + ((top & -top).bit_length() - 1)
        y = self._occ[g2]
        return self._lap_start + (g2 << _GROUP_SHIFT) + ((y & -y).bit_length() - 1)

    def _clear_slot_bit(self, idx: int) -> None:
        g = idx >> _GROUP_SHIFT
        occ = self._occ
        occ[g] &= ~(1 << (idx & 63))
        if not occ[g]:
            self._occ_top &= ~(1 << g)

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

        # Hot loop: one bitmap scan finds the next occupied slot, then the
        # whole slot is drained with plain list iteration — entries a
        # handler appends to the *current* instant are picked up by the
        # growing-length check, exactly as the heap interleaved them.  At
        # production scale (128/256-node rings) per-event attribute
        # lookups are a measurable fraction of the run, so hot names are
        # bound to locals once.
        wheel = self._wheel
        occ = self._occ
        observer = self.on_event
        callback_type = Callback
        processed = 0
        cursor = self._cursor
        try:
            while True:
                # ---- locate the next occupied instant ----
                if self._wheel_count:
                    idx = cursor & _WHEEL_MASK
                    x = occ[idx >> _GROUP_SHIFT] >> (idx & 63)
                    if x:
                        t = cursor + ((x & -x).bit_length() - 1)
                    else:
                        self._cursor = cursor
                        t = self._wheel_next()  # cross-group scan
                elif self._overflow:
                    if stop_time is not None and self._overflow[0][0] > stop_time:
                        self._now = stop_time
                        return None
                    self._advance_lap()
                    cursor = self._cursor
                    continue
                else:
                    break  # schedule drained
                if stop_time is not None and t > stop_time:
                    self._now = stop_time
                    return None
                # ---- drain the slot at t ----
                idx = t & _WHEEL_MASK
                slot = wheel[idx]
                self._now = t
                self._cursor = cursor = t
                i = 0
                try:
                    while i < len(slot):
                        entry = slot[i]
                        i += 1
                        processed += 1
                        if observer is not None:
                            observer(entry)
                        if type(entry) is callback_type:
                            entry.fn(*entry.args)
                            continue
                        had_waiters = bool(entry.callbacks)
                        entry._process()
                        if not entry._ok and not had_waiters:
                            # A failure nobody observed: surface it.
                            raise entry._value
                except BaseException:
                    # Keep not-yet-fired entries at this instant so a
                    # later run() resumes exactly where this one stopped.
                    del slot[:i]
                    self._wheel_count -= i
                    if not slot:
                        self._clear_slot_bit(idx)
                    raise
                self._wheel_count -= i
                del slot[:]
                self._clear_slot_bit(idx)
        except StopSimulation as stop:
            event = stop.args[0]
            if event._ok:
                return event._value
            raise event._value from None
        finally:
            self.events_processed += processed
        if stop_time is not None:
            # Queue drained before the horizon: advance the clock anyway so
            # repeated run(until=...) calls observe monotonic time.
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
        return {
            "wheel_slots": _WHEEL_SLOTS,
            "wheel_entries": self._wheel_count,
            "overflow_entries": len(self._overflow),
            "overflow_spills": self._overflow_spills,
        }

    def wheel_histogram(self) -> Dict[int, int]:
        """Map entries-per-occupied-slot -> number of such slots (now)."""
        hist: Dict[int, int] = {}
        for g in range(_GROUPS):
            bits = self._occ[g]
            while bits:
                low = bits & -bits
                bits ^= low
                idx = (g << _GROUP_SHIFT) + low.bit_length() - 1
                n = len(self._wheel[idx])
                hist[n] = hist.get(n, 0) + 1
        return hist

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        queued = self._wheel_count + len(self._overflow)
        return f"<Simulator now={self._now}ns queued={queued}>"
