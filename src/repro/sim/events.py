"""Event primitives for the discrete-event simulation kernel.

The network model schedules plain callbacks (:class:`Callback` entries,
``call_at`` / ``call_in``); host programs — applications, services, test
scripts — are Python generators that ``yield`` :class:`Event` objects and
are resumed when those events fire.

Events move through three stages:

``pending``    created, nobody has triggered it yet
``triggered``  a value (or an exception) has been attached and the event is
               sitting in the kernel's schedule queue
``processed``  the kernel has popped it and run its callbacks

Only integer simulated time is used (nanoseconds throughout the AmpNet
model) so that runs are exactly reproducible across platforms.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .kernel import Simulator

__all__ = [
    "Callback",
    "Event",
    "Timeout",
    "Process",
    "SimulationError",
]


class SimulationError(Exception):
    """Raised for kernel-level misuse (double trigger, bad yield, ...)."""


# Sentinel distinguishing "not yet triggered" from a triggered None value.
_PENDING = object()


class Callback:
    """Allocation-light schedule entry: a callable and its arguments.

    Every schedule entry has this shape — the kernel's ``run()`` loop
    fires any entry as ``entry.fn(*entry.args)`` — and this is the
    slimmest: compared to a :class:`Timeout` plus an appended closure it
    skips the callback list, the wrapper lambda and the ``succeed``
    bookkeeping entirely.  Instances cannot be waited on — processes
    must keep yielding real events — so they carry no trigger state at
    all (nothing ever observes a failure on a Callback: an exception in
    ``fn`` propagates out of the event loop exactly as an unhandled
    callback error always did).

    An entry made by ``call_at``/``call_in`` is one-shot.  The per-frame
    hot path (link arrivals, switch crossings, the MAC transmit engine)
    instead posts one long-lived entry per device over and over — see
    the ``_post`` contract in :mod:`repro.sim.kernel`.
    """

    __slots__ = ("fn", "args")

    def __init__(self, fn: Callable[..., Any], args: tuple):
        self.fn = fn
        self.args = args

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Callback {getattr(self.fn, '__qualname__', self.fn)!r}>"


class Event:
    """A one-shot occurrence that processes can wait on.

    An event succeeds with a value; a :class:`Process` whose generator
    raises fails with the exception.  Waiting processes receive the value
    as the result of their ``yield`` (or have the exception raised at the
    yield point).

    A triggered event sits on the schedule as a :class:`Callback`-shaped
    entry: the kernel sets ``fn``/``args`` to :meth:`_fire` when it
    enqueues the event.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "processed", "fn", "args")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        #: callables invoked with this event once it is processed
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        self.processed = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (or, for a process, a failure)."""
        return self._value is not _PENDING

    @property
    def value(self) -> Any:
        """The success value or failure exception attached to the event."""
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._value = value
        self._ok = True
        self.sim._enqueue(self)
        return self

    # -- internal ----------------------------------------------------------
    def _fire(self) -> None:
        """Run callbacks; fired exactly once, as the event's schedule
        entry.  A failure no callback was there to observe aborts the
        run: a host process cannot die silently."""
        self.fn = None  # the bound method referenced the event itself
        self.processed = True
        callbacks, self.callbacks = self.callbacks, None
        if callbacks:
            for cb in callbacks:
                cb(self)
        elif not self._ok:
            raise self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed"
            if self.processed
            else ("triggered" if self.triggered else "pending")
        )
        return f"<{type(self).__name__} {state} at 0x{id(self):x}>"


class Timeout(Event):
    """An event that fires ``delay`` simulated nanoseconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: int, value: Any = None):
        if delay < 0:
            # Fail at schedule time: a negative delay enqueued here would
            # only surface later as "time ran backwards" deep inside the
            # kernel, far from the buggy caller.
            raise SimulationError(f"negative timeout delay {delay!r}")
        super().__init__(sim)
        self.delay = delay
        self._value = value
        self._ok = True
        sim._enqueue(self, delay=delay)


class Process(Event):
    """Wraps a generator; the process event fires when the generator ends.

    The generator may yield:

    * an :class:`Event` — the process resumes when it fires, receiving its
      value (or having its failure raised),
    * another :class:`Process` — waits for termination (return value passed
      through).

    ``return value`` inside the generator becomes the process result.
    """

    __slots__ = ("gen", "name")

    def __init__(
        self,
        sim: "Simulator",
        gen: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ):
        if not hasattr(gen, "send") or not hasattr(gen, "throw"):
            raise TypeError(f"process() requires a generator, got {gen!r}")
        super().__init__(sim)
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        # Bootstrap: resume the generator at time now (same-timestep).
        sim.call_in(0, self._resume, None)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._value is _PENDING

    # -- driving the generator ----------------------------------------------
    def _resume(self, event: Optional[Event]) -> None:
        sim = self.sim
        try:
            while True:
                if event is None or event._ok:
                    target = self.gen.send(None if event is None else event._value)
                else:
                    # Propagate failure into the generator.
                    target = self.gen.throw(event._value)
                # The generator yielded a new target event.
                if not isinstance(target, Event):
                    raise SimulationError(
                        f"process {self.name!r} yielded non-event {target!r}"
                    )
                if target.sim is not sim:
                    raise SimulationError(
                        f"process {self.name!r} yielded event from another simulator"
                    )
                if target.processed:
                    # Already fired: resume immediately within this step.
                    event = target
                    continue
                if target.callbacks is None:  # pragma: no cover - defensive
                    raise SimulationError("target event lost its callback list")
                target.callbacks.append(self._resume)
                return
        except StopIteration as stop:
            self._value = stop.value
            self._ok = True
            sim._enqueue(self)
        except BaseException as exc:  # noqa: BLE001 - forwarded to waiters
            self._value = exc
            self._ok = False
            sim._enqueue(self)
