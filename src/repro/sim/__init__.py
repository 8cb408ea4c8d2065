"""Deterministic discrete-event simulation kernel (AmpNet substrate).

Public surface::

    from repro.sim import Simulator, Tracer

See :mod:`repro.sim.kernel` for the event-loop semantics.
"""

from .events import Callback, Event, Process, SimulationError, Timeout
from .kernel import Simulator, StopSimulation
from .monitor import (
    NULL_TRACER,
    ConvergenceTracker,
    Counter,
    LatencyStat,
    Tracer,
    trace_line,
)
from .rand import SeededStreams, derive_seed

__all__ = [
    "Callback",
    "ConvergenceTracker",
    "Counter",
    "Event",
    "LatencyStat",
    "NULL_TRACER",
    "Process",
    "SeededStreams",
    "SimulationError",
    "Simulator",
    "StopSimulation",
    "Timeout",
    "Tracer",
    "derive_seed",
    "trace_line",
]
